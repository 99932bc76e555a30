// Serving gates for the ptaint-serve daemon, run in process.
//
// Boots a ServeDaemon on a scratch socket + journal and drives the seed
// load, every detectable attack cell of the ablation matrix under the
// paper policy, through the full socket protocol: streaming submits in
// batches of 32, one client thread per connection.  The path is the real
// daemon path end to end: NDJSON parse, quota check, journal append,
// fair-queue dispatch, snapshot-fork execution on shard workers,
// judge-batch adjudication, second journal append, event fan-out, socket
// write.  Serving cost is measured by perfbench's serve-mixed workload
// (perfbench/README.md); this binary only checks behaviour.
//
//   bench_serve --check [--workers N]
//   bench_serve --soak N [--workers N]
//
// `--check` streams 64 jobs plus four per seed cell over 2 connections to
// 8 shard workers (made for sanitizer legs) and exits 1 unless every job
// verdicted and no error event arrived.
//
// `--soak N` exercises the store-backed restart path (DESIGN.md §13): a
// cold daemon with a disk-tier snapshot store serves N jobs over 4
// connections and shuts down cleanly; a second daemon on the same journal
// + store directory then serves N more.  Asserted: phase-A results
// replayed done and never re-executed (exactly-once), phase B rehydrates
// snapshots from the prior process's disk tier (warm misses < cold
// misses, disk rehydrations > 0), and the two phases' verdicts are
// identical.
//
// Exit codes: 0 pass, 1 a failed assertion, 4 usage or scratch-setup error.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaigns.hpp"
#include "cpu/env.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

using namespace ptaint;
using namespace ptaint::serve;

namespace {

std::string scratch_path(const char* suffix) {
  return "/tmp/bench_serve." + std::to_string(::getpid()) + suffix;
}

/// The seed load: the ablation matrix's detectable attack cells under the
/// paper policy — small guests, one shared snapshot per scenario.
std::vector<std::string> seed_specs() {
  std::vector<std::string> specs;
  for (const auto& cell : campaign::campaign_cells("ablation")) {
    if (cell.app != "attack") continue;
    if (cell.policy != "paper (all rules on)") continue;
    specs.push_back("{\"app\": \"attack\", \"payload\": \"" + cell.payload +
                    "\", \"policy\": \"paper\"}");
  }
  return specs;
}

/// Streams `jobs` jobs, cycling through the seed specs, in batches of 32
/// over `connections` concurrent clients, one thread each.  True when every
/// job verdicted and no error event arrived.
bool stream_jobs(const std::string& socket, uint64_t jobs, int connections) {
  constexpr uint64_t kBatch = 32;
  const std::vector<std::string> specs = seed_specs();
  const uint64_t stride = kBatch * static_cast<uint64_t>(connections);
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c]() {
      try {
        Client client(socket);
        for (uint64_t begin = kBatch * static_cast<uint64_t>(c); begin < jobs;
             begin += stride) {
          std::vector<std::string> batch;
          for (uint64_t i = begin; i < std::min(jobs, begin + kBatch); ++i) {
            batch.push_back(specs[i % specs.size()]);
          }
          const Client::Streamed streamed = client.submit_stream(batch);
          if (!streamed.accepted) ok = false;
          for (const std::string& event : streamed.events) {
            if (JsonValue::parse(event).get_string("event") != "verdict") {
              ok = false;
            }
          }
        }
      } catch (const std::exception&) {
        ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok;
}

/// The `result` reply for job `id`, parsed.
JsonValue job_result(Client& client, uint64_t id) {
  return JsonValue::parse(client.request(
      "{\"cmd\": \"result\", \"id\": " + std::to_string(id) + "}"));
}

/// The timing-independent part of a `result` reply's verdict row, for
/// cross-phase comparison.
std::string verdict_fingerprint(const JsonValue& result) {
  const JsonValue* row = result.get("result");
  if (row == nullptr) return "";
  std::string out;
  for (const char* key :
       {"payload", "policy", "verdict", "stop", "alert", "alert_function"}) {
    out += row->get_string(key) + "|";
  }
  return out;
}

int run_soak(uint64_t jobs, int workers) {
  constexpr int kConnections = 4;
  const std::string socket = scratch_path(".sock");
  const std::string journal = scratch_path(".journal");
  char tmpl[] = "/tmp/bench_serve.store.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "soak: mkdtemp failed\n");
    return 4;
  }
  ::unlink(journal.c_str());
  auto fail = [&](const char* msg) {
    std::fprintf(stderr, "soak: %s\n", msg);
    std::filesystem::remove_all(dir);
    ::unlink(journal.c_str());
    return 1;
  };

  ServeDaemon::Config config;
  config.socket_path = socket;
  config.journal_path = journal;
  config.workers = workers;
  config.snapshot_store = true;
  config.snapshot_dir = dir;

  // Phase A: cold daemon, empty store.  Every scenario snapshot is built
  // once, dehydrated into the store and written behind to the disk tier.
  uint64_t cold_misses = 0;
  std::vector<std::string> verdicts_a;
  {
    ServeDaemon daemon(config);
    daemon.start();
    if (!stream_jobs(socket, jobs, kConnections)) {
      return fail("phase A error events / missing verdicts");
    }
    Client client(socket);
    const JsonValue status =
        JsonValue::parse(client.request("{\"cmd\": \"status\"}"));
    const JsonValue* cache = status.get("snapshot_cache");
    if (cache == nullptr) return fail("phase A status has no snapshot_cache");
    cold_misses = cache->get_u64("misses");
    if (cold_misses == 0) return fail("phase A reported no cold misses");
    if (!cache->get_bool("store_enabled")) {
      return fail("phase A daemon is not store-backed");
    }
    for (uint64_t id = 1; id <= jobs; ++id) {
      const JsonValue r = job_result(client, id);
      if (r.get_string("state") != "done") {
        return fail("phase A job not done");
      }
      verdicts_a.push_back(verdict_fingerprint(r));
    }
    client.request("{\"cmd\": \"shutdown\"}");
    daemon.wait();  // flushes the store's write-behind queue
  }

  // Phase B: a fresh daemon process-equivalent on the same journal and
  // store directory.  The journal replays phase A's results (done, never
  // re-run); the store directory seeds the cache with warm dehydrated
  // snapshots.
  std::vector<std::string> verdicts_b;
  uint64_t warm_misses = 0, disk_rehydrations = 0;
  {
    ServeDaemon daemon(config);
    daemon.start();
    Client client(socket);
    const JsonValue status0 =
        JsonValue::parse(client.request("{\"cmd\": \"status\"}"));
    if (status0.get_u64("done") != jobs) {
      return fail("restart did not replay phase A results as done");
    }
    if (status0.get_u64("jobs_done") != 0 || status0.get_u64("replayed") != 0) {
      return fail("restart re-executed phase A jobs (exactly-once broken)");
    }
    if (!stream_jobs(socket, jobs, kConnections)) {
      return fail("phase B error events / missing verdicts");
    }
    const JsonValue status1 =
        JsonValue::parse(client.request("{\"cmd\": \"status\"}"));
    const JsonValue* cache = status1.get("snapshot_cache");
    if (cache == nullptr) return fail("phase B status has no snapshot_cache");
    warm_misses = cache->get_u64("misses");
    disk_rehydrations = cache->get_u64("disk_rehydrations");
    if (warm_misses >= cold_misses) {
      return fail("phase B was not warm (misses did not drop)");
    }
    if (disk_rehydrations == 0) {
      return fail("phase B never rehydrated from the disk tier");
    }
    for (uint64_t id = jobs + 1; id <= 2 * jobs; ++id) {
      const JsonValue r = job_result(client, id);
      if (r.get_string("state") != "done") {
        return fail("phase B job not done");
      }
      verdicts_b.push_back(verdict_fingerprint(r));
    }
    client.request("{\"cmd\": \"shutdown\"}");
    daemon.wait();
  }

  std::sort(verdicts_a.begin(), verdicts_a.end());
  std::sort(verdicts_b.begin(), verdicts_b.end());
  if (verdicts_a != verdicts_b) {
    return fail("verdicts differ between cold and warm phases");
  }

  std::printf("== ptaint-serve store-backed soak ==\n\n");
  std::printf("phase A (cold): %llu jobs, %llu snapshot misses\n",
              static_cast<unsigned long long>(jobs),
              static_cast<unsigned long long>(cold_misses));
  std::printf("phase B (warm): %llu jobs, %llu misses, %llu disk "
              "rehydrations\n",
              static_cast<unsigned long long>(jobs),
              static_cast<unsigned long long>(warm_misses),
              static_cast<unsigned long long>(disk_rehydrations));
  std::printf("exactly-once: phase A results replayed done, none re-run\n");
  std::printf("verdicts: cold == warm (%zu rows)\n", verdicts_a.size());
  std::filesystem::remove_all(dir);
  ::unlink(journal.c_str());
  return 0;
}

/// Streams the seed load through a fresh daemon; see the header.
int run_check(int workers) {
  ServeDaemon::Config config;
  config.socket_path = scratch_path(".sock");
  config.journal_path = scratch_path(".journal");
  config.workers = workers;
  ::unlink(config.journal_path.c_str());

  const uint64_t jobs = 4 * seed_specs().size() + 64;
  ServeDaemon daemon(config);
  daemon.start();
  const bool ok = stream_jobs(config.socket_path, jobs, 2);
  {
    Client client(config.socket_path);
    client.request("{\"cmd\": \"shutdown\"}");
  }
  daemon.wait();
  ::unlink(config.journal_path.c_str());
  std::printf("check: %s (%llu jobs, %d workers, 2 connections)\n",
              ok ? "ok" : "FAILED", static_cast<unsigned long long>(jobs),
              workers);
  return ok ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_serve --check [--workers N]\n"
               "       bench_serve --soak N [--workers N]\n");
  std::exit(4);
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 8;
  bool check = false;
  uint64_t soak = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto number = [&](uint64_t max) {
      if (i + 1 >= argc) usage();
      const auto n = cpu::parse_number(argv[++i], max);
      if (!n || *n == 0) usage();
      return *n;
    };
    if (arg == "--workers") {
      workers = static_cast<int>(number(INT_MAX));
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--soak") {
      soak = number(UINT64_MAX);
    } else {
      usage();
    }
  }
  if (soak > 0) return run_soak(soak, workers);
  if (check) return run_check(workers);
  usage();
}
