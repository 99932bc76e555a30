// Static-analysis performance (DESIGN.md §14).
//
// Exercises the summary cache (analysis/summary_cache.hpp) over the six
// SPEC surrogates, the largest static surfaces in the repo:
//
//   * cold  — first analysis of each program (CFG recovery + VSA
//             fixpoint);
//   * exact — a second lookup of the identical program: pure content-hash
//             hit, no analysis runs.
//
//   bench_analysis [json-path]       timing run (default BENCH_analysis.json)
//   bench_analysis --check           identity run for the sanitizer legs:
//                                    cached == uncached on every surrogate
//                                    (bitmaps, verdicts, witnesses, leak
//                                    sites); timing skipped; exit 1 on any
//                                    divergence
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/summary_cache.hpp"
#include "asmgen/assembler.hpp"
#include "core/spec_workloads.hpp"
#include "guest/runtime.hpp"

using namespace ptaint;
using namespace ptaint::analysis;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool same_witnesses(const std::vector<Witness>& a,
                    const std::vector<Witness>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].site_pc != b[i].site_pc || a[i].complete != b[i].complete ||
        a[i].steps.size() != b[i].steps.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].steps.size(); ++j) {
      const WitnessStep& x = a[i].steps[j];
      const WitnessStep& y = b[i].steps[j];
      if (x.pc != y.pc || x.event != y.event || x.loc != y.loc) return false;
    }
  }
  return true;
}

bool same_leak_sites(const std::vector<LeakSite>& a,
                     const std::vector<LeakSite>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pc != b[i].pc || a[i].reachable != b[i].reachable ||
        a[i].may_planes != b[i].may_planes ||
        a[i].annotated != b[i].annotated) {
      return false;
    }
  }
  return true;
}

/// Full identity between two analysis results: elision and leak bitmaps,
/// per-site verdict renderings, witnesses, leak sites.
bool identical(const std::string& what, const Cfg& cfg, const VsaAnalysis& x,
               const VsaAnalysis& y) {
  bool ok = true;
  auto fail = [&](const char* field) {
    std::fprintf(stderr, "FAIL %s: %s differs\n", what.c_str(), field);
    ok = false;
  };
  if (x.elision != y.elision) fail("elision bitmap");
  if (x.leak_elision != y.leak_elision) fail("leak elision bitmap");
  if (x.report(cfg) != y.report(cfg)) fail("site report");
  if (x.leak_report(cfg) != y.leak_report(cfg)) fail("leak report");
  if (!same_witnesses(x.witnesses, y.witnesses)) fail("witnesses");
  if (!same_witnesses(x.leak_witnesses, y.leak_witnesses)) {
    fail("leak witnesses");
  }
  if (!same_leak_sites(x.leak_sites, y.leak_sites)) fail("leak sites");
  return ok;
}

struct AppSurface {
  std::string name;
  asmgen::Program program;
  size_t functions = 0;
};

std::vector<AppSurface> build_surfaces() {
  std::vector<AppSurface> out;
  for (core::SpecWorkload& w : core::make_spec_workloads(1)) {
    AppSurface s;
    s.name = w.name;
    s.program = asmgen::assemble(guest::link_with_runtime(std::move(w.app)));
    s.functions = Cfg(s.program).functions().size();
    out.push_back(std::move(s));
  }
  return out;
}

struct AppRow {
  std::string name;
  size_t text_words = 0;
  size_t functions = 0;
  double cold_ms = 0.0;
  double exact_us = 0.0;
};

constexpr int kReps = 5;

int run_check(const std::vector<AppSurface>& apps) {
  VsaOptions opts;
  opts.witnesses = true;
  const cpu::TaintPolicy policy;
  int rc = 0;
  for (const AppSurface& app : apps) {
    const Cfg cfg(app.program);
    const VsaAnalysis uncached = analyze_vsa(cfg, policy, opts);
    SummaryCache cache;
    (void)cache.analyze(app.program, policy, opts);
    const auto hit = cache.analyze(app.program, policy, opts);
    if (cache.stats().hits != 1) {
      std::fprintf(stderr, "FAIL %s: repeat lookup missed the cache\n",
                   app.name.c_str());
      rc = 1;
    }
    if (!identical(app.name + " cached-vs-uncached", cfg, hit->vsa,
                   uncached)) {
      rc = 1;
    }
    std::printf("%-8s cached==uncached\n", app.name.c_str());
  }
  std::printf("%s\n", rc == 0 ? "bench_analysis --check: all identical"
                              : "bench_analysis --check: DIVERGENCE");
  return rc;
}

int run_timing(const std::vector<AppSurface>& apps,
               const std::string& json_path) {
  const cpu::TaintPolicy policy;
  const VsaOptions opts;  // Machine-shaped lookups: no witnesses
  std::vector<AppRow> rows;
  for (const AppSurface& app : apps) {
    AppRow row;
    row.name = app.name;
    row.text_words = app.program.text.size();
    row.functions = app.functions;
    row.cold_ms = 1e9;
    row.exact_us = 1e9;
    for (int rep = 0; rep < kReps; ++rep) {
      SummaryCache cache;
      auto t0 = Clock::now();
      (void)cache.analyze(app.program, policy, opts);
      row.cold_ms = std::min(row.cold_ms, ms_since(t0));
      t0 = Clock::now();
      (void)cache.analyze(app.program, policy, opts);
      row.exact_us = std::min(row.exact_us, ms_since(t0) * 1000.0);
    }
    std::printf("%-8s %6zu words %3zu fns  cold %8.2fms  exact %7.1fus\n",
                row.name.c_str(), row.text_words, row.functions, row.cold_ms,
                row.exact_us);
    rows.push_back(row);
  }

  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"analysis_cache\",\n  \"apps\": [\n";
  char buf[256];
  for (size_t i = 0; i < rows.size(); ++i) {
    const AppRow& r = rows[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"text_words\": %zu, "
                  "\"functions\": %zu, \"cold_ms\": %.3f, "
                  "\"exact_hit_us\": %.1f}%s\n",
                  r.name.c_str(), r.text_words, r.functions, r.cold_ms,
                  r.exact_us, i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string json_path = "BENCH_analysis.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else {
      json_path = arg;
    }
  }
  const std::vector<AppSurface> apps = build_surfaces();
  return check ? run_check(apps) : run_timing(apps, json_path);
}
