// ptaint-client — command-line client for the ptaint-serve daemon.
//
//   ptaint-client --socket PATH <subcommand> [options]
//
// Subcommands:
//   submit <app> <payload> [--policy P] [--tenant T] [--engine E]
//          [--elide] [--timeout-ms N] [--wait]
//       submit one job; --wait streams until its verdict event arrives
//       and prints the verdict row (JSON) to stdout
//   campaign <ablation|falseneg|coverage> [--spec-scale N] [--tenant T]
//          [--engine E] [--elide] [--render|--rows]
//       submit every cell of a named campaign, stream the verdicts, and
//       (--render, default) print the batch CLI's report text —
//       byte-identical to `ptaint-campaign <name>` stdout — or (--rows)
//       print the raw verdict rows in matrix order
//   status                        print the daemon's status reply
//   result <id>                   print one job's state (and row if done)
//   cancel <id>                   cancel a queued job
//   drain                         stop intake, wait until idle
//   shutdown                      ask the daemon to exit
//
// Exit codes: 0 ok, 1 daemon reported an error event, 2 at least one
// streamed verdict was a harness error, 3 at least one timed out,
// 4 usage/connection error.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/report.hpp"
#include "cpu/env.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"

using namespace ptaint;
using namespace ptaint::serve;

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: ptaint-client --socket PATH <subcommand> [options]\n"
         "  submit <app> <payload> [--policy P] [--tenant T] [--engine E]\n"
         "         [--elide] [--timeout-ms N] [--wait]\n"
         "  campaign <name> [--spec-scale N] [--tenant T] [--engine E]\n"
         "         [--elide] [--render|--rows]\n"
         "  status | result <id> | cancel <id> | drain | shutdown\n";
  std::exit(4);
}

std::string spec_json(const std::string& app, const std::string& payload,
                      const std::string& policy, const std::string& tenant,
                      const std::string& engine, bool elide,
                      uint64_t timeout_ms) {
  std::ostringstream ss;
  ss << "{\"app\": \"" << campaign::json_escape(app) << "\", \"payload\": \""
     << campaign::json_escape(payload) << "\", \"policy\": \""
     << campaign::json_escape(policy) << "\", \"tenant\": \""
     << campaign::json_escape(tenant) << "\"";
  if (!engine.empty()) {
    ss << ", \"engine\": \"" << campaign::json_escape(engine) << "\"";
  }
  if (elide) ss << ", \"elide\": true";
  if (timeout_ms != 0) ss << ", \"timeout_ms\": " << timeout_ms;
  ss << "}";
  return ss.str();
}

campaign::JobStatus status_from_name(const std::string& name) {
  if (name == "ok") return campaign::JobStatus::kOk;
  if (name == "guest-fault") return campaign::JobStatus::kGuestFault;
  if (name == "budget-exhausted") {
    return campaign::JobStatus::kBudgetExhausted;
  }
  if (name == "timeout") return campaign::JobStatus::kTimeout;
  return campaign::JobStatus::kHarnessError;
}

/// A streamed verdict row back into the result cell the report layer
/// renders from (labels and verdicts only; reports never need timings).
campaign::JobResult result_from_row(const JsonValue& row) {
  campaign::JobResult r;
  r.app = row.get_string("app");
  r.payload = row.get_string("payload");
  r.policy = row.get_string("policy");
  r.status = status_from_name(row.get_string("status"));
  r.verdict = row.get_string("verdict");
  r.detail = row.get_string("detail");
  r.error = row.get_string("error");
  r.attempts = static_cast<int>(row.get_u64("attempts"));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      if (i + 1 >= argc) usage();
      socket_path = argv[++i];
    } else {
      rest.push_back(arg);
    }
  }
  if (socket_path.empty() || rest.empty()) usage();
  const std::string cmd = rest[0];

  // Per-subcommand options.
  std::string policy = "paper", tenant = "default", engine;
  bool elide = false, wait = false, render = true;
  uint64_t timeout_ms = 0;
  int spec_scale = 1;
  std::vector<std::string> positional;
  for (size_t i = 1; i < rest.size(); ++i) {
    const std::string& arg = rest[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= rest.size()) usage();
      return rest[++i];
    };
    auto number = [&](uint64_t max) {
      const auto n = cpu::parse_number(value(), max);
      if (!n) usage();
      return *n;
    };
    if (arg == "--policy") {
      policy = value();
    } else if (arg == "--tenant") {
      tenant = value();
    } else if (arg == "--engine") {
      engine = value();
    } else if (arg == "--elide") {
      elide = true;
    } else if (arg == "--wait") {
      wait = true;
    } else if (arg == "--render") {
      render = true;
    } else if (arg == "--rows") {
      render = false;
    } else if (arg == "--timeout-ms") {
      timeout_ms = number(UINT64_MAX);
    } else if (arg == "--spec-scale") {
      spec_scale = static_cast<int>(number(INT_MAX));
      if (spec_scale < 1) usage();
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else {
      positional.push_back(arg);
    }
  }

  std::optional<uint64_t> id;  // of `result` and `cancel`
  if (cmd == "result" || cmd == "cancel") {
    if (positional.size() != 1) usage();
    id = cpu::parse_number(positional[0], UINT64_MAX);
    if (!id) usage();
  }

  try {
    Client client(socket_path);

    if (cmd == "status") {
      std::cout << client.request("{\"cmd\": \"status\"}") << "\n";
      return 0;
    }
    if (cmd == "drain") {
      std::cout << client.request("{\"cmd\": \"drain\"}") << "\n";
      return 0;
    }
    if (cmd == "shutdown") {
      std::cout << client.request("{\"cmd\": \"shutdown\"}") << "\n";
      return 0;
    }
    if (cmd == "result" || cmd == "cancel") {
      std::cout << client.request("{\"cmd\": \"" + cmd + "\", \"id\": " +
                                  std::to_string(*id) + "}")
                << "\n";
      return 0;
    }

    if (cmd == "submit") {
      if (positional.size() != 2) usage();
      const std::string spec = spec_json(positional[0], positional[1], policy,
                                         tenant, engine, elide, timeout_ms);
      if (!wait) {
        const std::string reply =
            client.request("{\"cmd\": \"submit\", \"job\": " + spec + "}");
        std::cout << reply << "\n";
        return reply.find("\"event\": \"error\"") != std::string::npos ? 1 : 0;
      }
      const Client::Streamed streamed = client.submit_stream({spec});
      std::cout << streamed.reply << "\n";
      if (!streamed.accepted) return 1;
      std::cout << streamed.events[0] << "\n";
      const JsonValue event = JsonValue::parse(streamed.events[0]);
      if (const JsonValue* row = event.get("result")) {
        return campaign::exit_code_for({result_from_row(*row)});
      }
      return 0;
    }

    if (cmd == "campaign") {
      if (positional.size() != 1) usage();
      const std::string name = positional[0];
      std::vector<std::string> specs;
      for (const campaign::CellRef& cell :
           campaign::campaign_cells(name, spec_scale)) {
        specs.push_back(spec_json(cell.app, cell.payload, cell.policy, tenant,
                                  engine, elide, timeout_ms));
      }
      const Client::Streamed streamed = client.submit_stream(specs);
      if (!streamed.accepted) {
        std::cerr << "ptaint-client: " << streamed.reply << "\n";
        return 1;
      }
      std::vector<campaign::JobResult> results(specs.size());
      for (size_t i = 0; i < results.size(); ++i) {
        const JsonValue event = JsonValue::parse(streamed.events[i]);
        const JsonValue* row = event.get("result");
        if (row == nullptr) {  // cancelled by another client
          std::cerr << "ptaint-client: " << streamed.events[i] << "\n";
          return 1;
        }
        results[i] = result_from_row(*row);
        results[i].index = i;
      }
      if (render) {
        std::fputs(campaign::format_campaign(name, results).c_str(), stdout);
      } else {
        for (const std::string& row : streamed.events) std::cout << row << "\n";
      }
      return campaign::exit_code_for(results);
    }
  } catch (const std::exception& e) {
    std::cerr << "ptaint-client: " << e.what() << "\n";
    return 4;
  }
  usage();
}
