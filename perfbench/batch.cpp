// The two batch workloads.
//
//   ablation-jit    the ablation matrix (7 policy variants x (6 SPEC + 9
//                   attacks) = 105 jobs) on the jit engine at spec_scale 8.
//                   Guest execution is nearly all of a pass: the workload
//                   for the cpu layer and for the executor's balancing.
//   coverage-check  the coverage matrix (15 scenarios x 4 columns = 60
//                   jobs) on the default engine, then campaign::static_check
//                   over its results.  Guest builds and the static side are
//                   nearly all of a pass: the workload for analysis and
//                   program-build changes.
//
// One pass is what one `ptaint-campaign` invocation pays: a fresh
// SnapshotCache (and, for coverage-check, a cleared SummaryCache), a fresh
// Executor with one worker per host CPU, make_jobs, Executor::run, and for
// coverage-check static_check.  The seed picks the order in which the
// matrix's policy rows are dealt to the executor.
#include <algorithm>
#include <thread>

#include "analysis/summary_cache.hpp"
#include "campaign/campaigns.hpp"
#include "campaign/executor.hpp"
#include "common.hpp"
#include "core/attack.hpp"

namespace perfbench {
namespace {

using namespace ptaint;

struct BatchSpec {
  std::string campaign;
  int spec_scale = 1;
  std::optional<cpu::Engine> engine;
  bool static_check = false;
};

BatchSpec spec_for(const std::string& workload) {
  if (workload == "ablation-jit") {
    return {"ablation", 8, cpu::Engine::kJit, false};
  }
  return {"coverage", 1, std::nullopt, true};
}

/// Seeded order of the matrix: policy rows (runs of equal policy label in
/// matrix order) are shuffled as whole rows, so neighbouring jobs still
/// share machine keys the way a campaign's do.
std::vector<size_t> seeded_order(const std::vector<campaign::Job>& jobs,
                                 uint64_t seed) {
  std::vector<std::pair<size_t, size_t>> rows;  // [begin, end)
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (i == 0 || jobs[i].policy != jobs[i - 1].policy) rows.push_back({i, i});
    rows.back().second = i + 1;
  }
  std::mt19937_64 rng(seed);
  shuffle(rows, rng);
  std::vector<size_t> order;
  for (const auto& [begin, end] : rows) {
    for (size_t i = begin; i < end; ++i) order.push_back(i);
  }
  return order;
}

std::vector<campaign::Job> permuted(std::vector<campaign::Job> jobs,
                                    const std::vector<size_t>& order) {
  std::vector<campaign::Job> out;
  out.reserve(jobs.size());
  for (size_t i : order) out.push_back(std::move(jobs[i]));
  return out;
}

std::vector<campaign::JobResult> unpermuted(
    std::vector<campaign::JobResult> results,
    const std::vector<size_t>& order) {
  std::vector<campaign::JobResult> out(results.size());
  for (size_t k = 0; k < order.size(); ++k) {
    out[order[k]] = std::move(results[k]);
    out[order[k]].index = order[k];
  }
  return out;
}

struct Check {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t instructions = 0;
};

/// Verdict rows against the pinned reference, plus static_check's two
/// violation lists.  Every mismatch is printed and counted.
Check check_pass(const std::vector<campaign::JobResult>& results,
                 const std::vector<RefRow>& want,
                 const campaign::StaticCheckReport* sc, Outcome& out) {
  Check c;
  c.attempted = results.size();
  if (results.size() != want.size()) {
    out.notes.push_back("matrix size " + std::to_string(results.size()) +
                        " != reference " + std::to_string(want.size()));
    c.failed = results.size();
    return c;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    const RefRow got = row_of(results[i]);
    c.instructions += got.instructions;
    const std::string diff = compare_row(got, want[i]);
    if (!diff.empty()) {
      ++c.failed;
      if (out.notes.size() < 20) out.notes.push_back("mismatch " + diff);
    }
  }
  if (sc != nullptr) {
    ++c.attempted;
    if (!sc->missed.empty() || !sc->elided_alerts.empty()) {
      ++c.failed;
      out.notes.push_back("static_check: " + std::to_string(sc->missed.size()) +
                          " missed, " + std::to_string(sc->elided_alerts.size()) +
                          " elided alerts");
    }
  }
  return c;
}

struct PassResult {
  double wall_ms = 0;
  double verdict_p99_ms = 0;  // 99% of the pass's verdicts are in by then
  Check check;
};

/// One untraced pass, through Executor::run.
PassResult untraced_pass(const BatchSpec& spec, int workers, uint64_t seed,
                         const std::vector<RefRow>& want, Outcome& out) {
  PassResult pr;
  std::vector<campaign::JobResult> results;
  campaign::StaticCheckReport sc;
  const auto start = Clock::now();
  {
    campaign::SnapshotCache cache{campaign::StoreOptions{}};
    if (spec.static_check) analysis::SummaryCache::instance().clear();
    campaign::Executor executor(campaign::Executor::Config{workers});
    auto jobs = campaign::make_jobs(spec.campaign, cache, spec.spec_scale,
                                    false, spec.engine);
    const std::vector<size_t> order = seeded_order(jobs, seed);
    jobs = permuted(std::move(jobs), order);
    std::vector<Clock::time_point> done(jobs.size(), start);
    for (size_t k = 0; k < jobs.size(); ++k) {
      jobs[k].classify = [inner = std::move(jobs[k].classify),
                          stamp = &done[k]](core::Machine& m,
                                            const core::RunReport& r,
                                            campaign::JobResult& res) {
        if (inner) inner(m, r, res);
        *stamp = Clock::now();
      };
    }
    results = unpermuted(executor.run(jobs), order);
    if (spec.static_check) {
      sc = campaign::static_check(spec.campaign, results, spec.spec_scale);
    }
    const auto end = Clock::now();
    pr.wall_ms = ms_between(start, end);
    std::vector<double> done_ms;
    for (const auto& t : done) done_ms.push_back(ms_between(start, t));
    pr.verdict_p99_ms = quantile(done_ms, 0.99);
  }
  pr.check = check_pass(results, want, spec.static_check ? &sc : nullptr, out);
  return pr;
}

/// Per-pass layer numbers of one traced pass.
struct LayerPass {
  std::map<std::string, double> m;
  double wall_ms = 0;
};

LayerPass traced_pass(const BatchSpec& spec, int workers, uint64_t seed,
                      const std::vector<RefRow>& want, SpanLog& spans,
                      int64_t pass, Outcome& out) {
  LayerPass lp;
  auto& m = lp.m;
  std::vector<campaign::JobResult> results;
  campaign::StaticCheckReport sc;
  const auto start = Clock::now();
  TracedRun tr;
  double make_jobs_ms = 0, static_check_ms = 0;
  analysis::CacheStats a0, a1;
  campaign::SnapshotCache::Stats cs;
  {
    campaign::SnapshotCache cache{campaign::StoreOptions{}};
    if (spec.static_check) analysis::SummaryCache::instance().clear();
    const auto mj0 = Clock::now();
    auto jobs = campaign::make_jobs(spec.campaign, cache, spec.spec_scale,
                                    false, spec.engine);
    const auto mj1 = Clock::now();
    spans.add("campaign.make_jobs", "pass", pass, -1, mj0, mj1);
    make_jobs_ms = ms_between(mj0, mj1);
    const std::vector<size_t> order = seeded_order(jobs, seed);
    jobs = permuted(std::move(jobs), order);
    tr = run_traced(jobs, workers, spans, pass);
    results = unpermuted(std::move(tr.results), order);
    if (spec.static_check) {
      a0 = analysis::SummaryCache::instance().stats();
      const auto sc0 = Clock::now();
      sc = campaign::static_check(spec.campaign, results, spec.spec_scale);
      const auto sc1 = Clock::now();
      spans.add("analysis.static_check", "pass", pass, -1, sc0, sc1);
      static_check_ms = ms_between(sc0, sc1);
      a1 = analysis::SummaryCache::instance().stats();
    }
    cs = cache.stats();
    const auto end = Clock::now();
    spans.add("pass", "", pass, -1, start, end);
    lp.wall_ms = ms_between(start, end);
  }
  const auto c0 = Clock::now();
  const auto corpus = core::make_attack_corpus();
  const auto c1 = Clock::now();
  spans.add("core.make_attack_corpus", "", pass, -1, c0, c1);

  const Check c =
      check_pass(results, want, spec.static_check ? &sc : nullptr, out);
  out.attempted += c.attempted;
  out.failed += c.failed;

  const JobCounters& s = tr.sum;
  const double insts = static_cast<double>(s.instructions);
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  m["cpu.run_ms"] = s.run_ms;
  m["cpu.guest_insts"] = insts;
  m["cpu.run_mips"] = ratio(insts, s.run_ms * 1e3);
  m["cpu.jit.host_retired_ratio"] = ratio(s.jit_host_retired, insts);
  m["cpu.jit.blocks_compiled"] = s.jit_compiled;
  m["cpu.jit.bailouts"] = s.jit_bailouts;
  m["cpu.sb.blocks_translated"] = s.sb_translated;
  m["cpu.sb.step_retired_ratio"] = ratio(s.sb_step_retired, insts);
  m["campaign.busy_frac"] = ratio(s.job_ms, workers * tr.wall_ms);
  m["campaign.steals"] = tr.steals;
  m["campaign.make_jobs_ms"] = make_jobs_ms;
  m["campaign.snapshot_get_ms"] = s.get_snapshot_ms;
  m["campaign.snapshot_builds"] = cs.builds;
  m["campaign.snapshot_hit_ratio"] = ratio(cs.hits, cs.hits + cs.misses);
  m["campaign.hydrate_ms"] = cs.hydrate_ms;
  m["campaign.classify_ms"] = s.classify_ms;
  m["campaign.job_ms"] = s.job_ms;
  m["campaign.pass_ms"] = lp.wall_ms;
  m["mem.store.rehydrations"] = cs.rehydrations;
  m["mem.store.dedup_ratio"] =
      ratio(cs.store.interned_refs, cs.store.canonical_pages);
  m["mem.cow_breaks"] = s.cow_breaks;
  m["core.restore_ms"] = s.restore_ms;
  m["core.restore_dirty_pages"] = s.dirty_pages;
  m["core.corpus_ms"] = ms_between(c0, c1);
  m["analysis.static_check_ms"] = static_check_ms;
  m["analysis.analyze_ms"] =
      static_cast<double>(a1.analysis_micros - a0.analysis_micros) / 1e3;
  m["analysis.cold_analyses"] = a1.cold_misses - a0.cold_misses;
  m["analysis.hit_ratio"] = ratio(a1.hits - a0.hits, a1.lookups - a0.lookups);
  m["os.syscalls"] = s.syscalls;
  m["share.cpu_run_of_job"] = ratio(s.run_ms, s.job_ms);
  m["share.static_check_of_pass"] = ratio(static_check_ms, lp.wall_ms);
  m["trace.job_attributed_frac"] = ratio(
      s.get_snapshot_ms + s.restore_ms + s.run_ms + s.classify_ms, s.job_ms);
  m["trace.pass_attributed_frac"] =
      ratio(make_jobs_ms + tr.wall_ms + static_check_ms, lp.wall_ms);
  return lp;
}

}  // namespace

Outcome run_batch(const Options& opt, const Reference& ref) {
  Outcome out;
  const BatchSpec spec = spec_for(opt.workload);
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::vector<RefRow>& want = ref.at(spec.campaign);
  out.inputs = {{"campaign", spec.campaign},
                {"jobs_per_pass", std::to_string(want.size())},
                {"spec_scale", std::to_string(spec.spec_scale)},
                {"engine", spec.engine ? "jit" : "default"},
                {"workers", std::to_string(workers)},
                {"static_check", spec.static_check ? "yes" : "no"},
                {"order", "policy rows shuffled by seed"}};

  // Set-up: the first pass of a fresh process (lazy allocation, code and
  // data first touched), checked like every other pass.
  const PassResult warm = untraced_pass(spec, workers, opt.seed, want, out);
  out.attempted += warm.check.attempted;
  out.failed += warm.check.failed;
  out.metrics["setup_s"] = seconds_since(opt.process_start);
  if (opt.setup_only) return out;

  std::vector<double> walls, verdict_p99, mips;
  std::vector<double> traced_walls;
  std::map<std::string, std::vector<double>> layers;
  std::optional<SpanLog> spans;
  if (opt.trace) spans.emplace(opt.process_start);
  const auto loop_start = Clock::now();
  for (int64_t pass = 0; pass == 0 || seconds_since(loop_start) < opt.seconds;
       ++pass) {
    // Traced runs alternate traced and untraced passes; the difference
    // of their medians is the tracing overhead.
    if (opt.trace && pass % 2 == 0) {
      const LayerPass lp =
          traced_pass(spec, workers, opt.seed, want, *spans, pass, out);
      traced_walls.push_back(lp.wall_ms);
      for (const auto& [k, v] : lp.m) layers[k].push_back(v);
      continue;
    }
    const PassResult pr = untraced_pass(spec, workers, opt.seed, want, out);
    out.attempted += pr.check.attempted;
    out.failed += pr.check.failed;
    walls.push_back(pr.wall_ms);
    verdict_p99.push_back(pr.verdict_p99_ms);
    mips.push_back(static_cast<double>(pr.check.instructions) /
                   (pr.wall_ms * 1e3));
    if (pr.check.instructions != warm.check.instructions) {
      out.notes.push_back("guest instruction count changed between passes");
      ++out.failed;
    }
  }

  if (opt.trace) {
    for (const auto& [k, v] : layers) out.metrics[k] = median(v);
    out.metrics["trace.overhead_frac"] =
        walls.empty() ? 0.0 : median(traced_walls) / median(walls) - 1.0;
    for (const char* exact : {"cpu.guest_insts", "os.syscalls"}) {
      const auto& v = layers[exact];
      if (*std::min_element(v.begin(), v.end()) !=
          *std::max_element(v.begin(), v.end())) {
        out.notes.push_back(std::string(exact) + " differs between passes");
        ++out.failed;
      }
    }
    const std::string path = opt.work_dir + "/spans-" + opt.workload + ".jsonl";
    spans->write(path);
    out.notes.push_back("traced passes " + std::to_string(traced_walls.size()) +
                        ", untraced " + std::to_string(walls.size()) + ", " +
                        std::to_string(spans->size()) + " spans -> " + path);
  } else {
    out.metrics["p50_ms"] = median(walls);
    out.metrics["p99_ms"] = median(verdict_p99);
    out.observed["passes"] = static_cast<double>(walls.size());
    out.observed["guest_mips"] = median(mips);
    out.observed["guest_insts_per_pass"] =
        static_cast<double>(warm.check.instructions);
    out.notes.push_back("passes " + std::to_string(walls.size()));
  }
  out.metrics["rss_mb"] = peak_rss_mb();
  return out;
}

}  // namespace perfbench
