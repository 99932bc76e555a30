// Section 5.4 — software processing overhead of kernel-side tainting,
// plus the static check-elision counterpart.
//
// Part 1: the paper estimates the cost of marking input buffers tainted at
// one extra kernel instruction per input byte and reports 0.002%-0.2% of
// the SPEC programs' executed instructions.  This bench reproduces that
// ratio from measured input sizes and instruction counts.
//
// Part 2: the src/analysis value-set prover proves most dereference sites
// can never carry a tainted address; the interpreter then skips the
// per-dereference detection check at those PCs.  The second table reports
// the analysis coverage (sites proven clean) and the measured interpreter
// speedup, with identical verdicts by construction (docs/ANALYSIS.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "analysis/cfg.hpp"
#include "analysis/vsa.hpp"
#include "core/spec_workloads.hpp"

using namespace ptaint;
using namespace ptaint::core;

namespace {

using Clock = std::chrono::steady_clock;

double run_ms(Machine& m) {
  const auto t0 = Clock::now();
  (void)m.run();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = argc > 1 ? std::atoi(argv[1]) : 2;
  std::printf("== Section 5.4: software tainting overhead (scale %d) ==\n\n",
              scale);
  std::printf("%-8s %14s %16s %14s\n", "program", "input bytes",
              "instructions", "overhead");
  for (const auto& w : make_spec_workloads(scale)) {
    SpecRunRow row = run_spec_workload(w);
    // One tainting instruction per input byte, as in the paper's estimate.
    const double overhead =
        row.instructions == 0
            ? 0.0
            : 100.0 * static_cast<double>(row.input_bytes) / row.instructions;
    std::printf("%-8s %14llu %16llu %13.4f%%\n", row.name.c_str(),
                static_cast<unsigned long long>(row.input_bytes),
                static_cast<unsigned long long>(row.instructions), overhead);
  }
  std::printf("\npaper: 0.002%% - 0.2%% across SPEC 2000; the ratio is "
              "input-boundedness, which the surrogates reproduce.\n");

  std::printf("\n== Static check-elision: coverage and interpreter "
              "speedup ==\n\n");
  std::printf("%-8s %8s %8s %9s %10s %10s %8s\n", "program", "sites", "vsa",
              "elidable", "base ms", "elide ms", "speedup");
  constexpr int kReps = 3;  // min-of-3 rejects scheduler noise
  double base_total = 0.0, elide_total = 0.0;
  for (const auto& w : make_spec_workloads(scale)) {
    const analysis::Cfg cfg(prepare_spec_workload(w)->program());
    const analysis::VsaAnalysis vsa = analysis::analyze_vsa(cfg, {});
    const auto elided_sites = static_cast<size_t>(
        std::count(vsa.elision.begin(), vsa.elision.end(), 1));
    double base_ms = 1e300, elide_ms = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      auto base = prepare_spec_workload(w);
      base_ms = std::min(base_ms, run_ms(*base));
      auto elided = prepare_spec_workload(w);
      elided->enable_static_elision();  // installs vsa.elision
      elide_ms = std::min(elide_ms, run_ms(*elided));
    }
    base_total += base_ms;
    elide_total += elide_ms;

    std::printf(
        "%-8s %8zu %8zu %8.1f%% %10.1f %10.1f %7.2fx\n", w.name.c_str(),
        vsa.sites.size(), elided_sites,
        vsa.sites.empty() ? 0.0
                          : 100.0 * static_cast<double>(elided_sites) /
                                static_cast<double>(vsa.sites.size()),
        base_ms, elide_ms, elide_ms > 0.0 ? base_ms / elide_ms : 0.0);
  }
  std::printf("%-8s %8s %8s %9s %10.1f %10.1f %7.2fx\n", "total", "", "", "",
              base_total, elide_total,
              elide_total > 0.0 ? base_total / elide_total : 0.0);
  std::printf("\nverdicts are unchanged by construction: the value-set "
              "prover's table (docs/ANALYSIS.md)\nonly covers sites proven "
              "untainted on every path, or dead (ptaint-campaign\n--check "
              "--elide pins this on the full matrix; --static-check adds "
              "the\nbidirectional alert/witness consistency leg).\n");
  return 0;
}
