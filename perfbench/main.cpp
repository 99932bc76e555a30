// perfbench: the repository's end-to-end benchmark binary.  run.py builds
// it and calls it; see README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE --work-dir DIR [--setup-only]
//   perfbench --make-reference FILE
//
// Prints one JSON object as its last stdout line: metrics, the attempted
// and failed operation counts, run validity and the workload's inputs.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>

#include "campaign/report.hpp"
#include "common.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ablation-jit|coverage-check|"
               "serve-mixed --seed N --seconds S --trace 0|1 --reference FILE "
               "--work-dir DIR [--setup-only]\n"
               "       perfbench --make-reference FILE\n");
  std::exit(64);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.process_start = perfbench::Clock::now();
  std::string make_reference;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--reference") {
      opt.reference_path = value();
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else if (arg == "--make-reference") {
      make_reference = value();
    } else {
      usage();
    }
  }
  try {
    if (!make_reference.empty()) {
      perfbench::write_reference(make_reference);
      return 0;
    }
    if (opt.reference_path.empty() || opt.work_dir.empty() ||
        !(opt.seconds > 0)) {
      usage();
    }
    const perfbench::Reference ref =
        perfbench::load_reference(opt.reference_path);
    perfbench::Outcome out;
    if (opt.workload == "ablation-jit" || opt.workload == "coverage-check") {
      out = perfbench::run_batch(opt, ref);
    } else if (opt.workload == "serve-mixed") {
      out = perfbench::run_serve_mixed(opt, ref);
    } else {
      usage();
    }
    for (const std::string& note : out.notes) {
      std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    }
    using ptaint::campaign::json_escape;
    std::ostringstream js;
    js << "{\"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"valid\": " << (out.valid ? "true" : "false")
       << ", \"metrics\": {";
    const char* sep = "";
    for (const auto& [name, v] : out.metrics) {
      js << sep << "\"" << json_escape(name) << "\": " << json_number(v);
      sep = ", ";
    }
    js << "}, \"observed\": {";
    sep = "";
    for (const auto& [name, v] : out.observed) {
      js << sep << "\"" << json_escape(name) << "\": " << json_number(v);
      sep = ", ";
    }
    js << "}, \"inputs\": {";
    sep = "";
    for (const auto& [k, v] : out.inputs) {
      js << sep << "\"" << json_escape(k) << "\": \"" << json_escape(v)
         << "\"";
      sep = ", ";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    out.keep_alive.reset();
    return out.failed == 0 && out.valid ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
