// Tests for the process-wide analysis summary cache
// (src/analysis/summary_cache.cpp): exact content hits, cold re-analysis
// identity, policy keying, LRU eviction, the
// PTAINT_ANALYSIS_CACHE=0 bypass, and concurrent lookups collapsing onto
// one analysis.  The suite names match the CI thread sanitizer filter
// (SummaryCache*).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/summary_cache.hpp"
#include "asmgen/assembler.hpp"
#include "core/spec_workloads.hpp"
#include "cpu/env.hpp"
#include "guest/runtime.hpp"

namespace ptaint::analysis {
namespace {

asmgen::Program spec_program(size_t index = 0) {
  auto workloads = core::make_spec_workloads(1);
  auto& w = workloads.at(index);
  return asmgen::assemble(guest::link_with_runtime(std::move(w.app)));
}

// ---- identity comparison ---------------------------------------------------

bool same_witnesses(const std::vector<Witness>& a,
                    const std::vector<Witness>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].site_pc != b[i].site_pc || a[i].complete != b[i].complete ||
        a[i].steps.size() != b[i].steps.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].steps.size(); ++j) {
      if (a[i].steps[j].pc != b[i].steps[j].pc ||
          a[i].steps[j].event != b[i].steps[j].event ||
          a[i].steps[j].loc != b[i].steps[j].loc) {
        return false;
      }
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

/// Full identity between two result sets: every surface a consumer reads.
::testing::AssertionResult identical(const Cfg& cfg, const CachedAnalysis& x,
                                     const CachedAnalysis& y) {
  if (x.vsa.elision != y.vsa.elision) {
    return ::testing::AssertionFailure() << "elision bitmap differs";
  }
  if (x.vsa.leak_elision != y.vsa.leak_elision) {
    return ::testing::AssertionFailure() << "leak elision bitmap differs";
  }
  if (x.vsa.report(cfg) != y.vsa.report(cfg)) {
    return ::testing::AssertionFailure() << "site report differs";
  }
  if (x.vsa.leak_report(cfg) != y.vsa.leak_report(cfg)) {
    return ::testing::AssertionFailure() << "leak report differs";
  }
  if (!same_witnesses(x.vsa.witnesses, y.vsa.witnesses)) {
    return ::testing::AssertionFailure() << "witnesses differ";
  }
  if (!same_witnesses(x.vsa.leak_witnesses, y.vsa.leak_witnesses)) {
    return ::testing::AssertionFailure() << "leak witnesses differ";
  }
  if (!same_leak_sites(x.vsa.leak_sites, y.vsa.leak_sites)) {
    return ::testing::AssertionFailure() << "leak sites differ";
  }
  if (x.block_leaders != y.block_leaders) {
    return ::testing::AssertionFailure() << "block leaders differ";
  }
  return ::testing::AssertionSuccess();
}

// ---- exact hits and keying -------------------------------------------------

/// The CI bypass leg (PTAINT_ANALYSIS_CACHE=0) re-runs the whole suite
/// with memoization off.  Tests asserting *memoization* semantics skip
/// there; the identity-contract tests keep running — verifying answers
/// don't change with the cache off is exactly that leg's job.
#define PTAINT_REQUIRE_CACHE_ON()                                     \
  if (!SummaryCache::enabled()) {                                     \
    GTEST_SKIP() << "memoization disabled via PTAINT_ANALYSIS_CACHE"; \
  }

TEST(SummaryCacheTest, ExactContentHitReturnsTheSameResultObject) {
  PTAINT_REQUIRE_CACHE_ON();
  const asmgen::Program program = spec_program();
  SummaryCache cache;
  const auto a = cache.analyze(program, {});
  const auto b = cache.analyze(program, {});
  EXPECT_EQ(a.get(), b.get());  // same shared object, no re-analysis
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.cold_misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(SummaryCacheTest, PolicyColumnIsPartOfTheKey) {
  PTAINT_REQUIRE_CACHE_ON();
  const asmgen::Program program = spec_program();
  SummaryCache cache;
  cpu::TaintPolicy pointer_taint;
  cpu::TaintPolicy control_only;
  control_only.mode = cpu::DetectionMode::kControlDataOnly;
  const auto a = cache.analyze(program, pointer_taint);
  const auto b = cache.analyze(program, control_only);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 0u);  // no cross-policy hit
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SummaryCacheTest, EvictionAtCapacityDropsTheColdestEntry) {
  PTAINT_REQUIRE_CACHE_ON();
  const asmgen::Program a = spec_program(0);
  const asmgen::Program b = spec_program(1);
  SummaryCache cache;
  cache.set_capacity(1);
  (void)cache.analyze(a, {});
  (void)cache.analyze(b, {});
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  // `a` was evicted: looking it up again is not a hit.
  (void)cache.analyze(a, {});
  EXPECT_EQ(cache.stats().hits, 0u);
}

// The environment is read once per process, so ctest runs this test in its
// own process with PTAINT_ANALYSIS_CACHE=0 set (tests/CMakeLists.txt); the
// CI bypass leg runs the whole binary that way.
TEST(SummaryCacheTest, DisabledViaEnvironmentStillComputesCorrectly) {
  if (cpu::env().analysis_cache) {
    GTEST_SKIP() << "needs PTAINT_ANALYSIS_CACHE=0 (set by ctest)";
  }
  const asmgen::Program program = spec_program();
  SummaryCache reference;
  const auto want = reference.analyze(program, {});

  EXPECT_FALSE(SummaryCache::enabled());
  SummaryCache cache;
  const auto x = cache.analyze(program, {});
  const auto y = cache.analyze(program, {});

  EXPECT_NE(x.get(), y.get());  // nothing memoized
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().cold_misses, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
  const Cfg cfg(program);
  EXPECT_TRUE(identical(cfg, *want, *x));
  EXPECT_TRUE(identical(cfg, *want, *y));
}

// ---- cold re-analysis identity --------------------------------------------

// Two cold analyses of the same program in independent caches are
// byte-identical on every surface, witnesses included: the fixpoint is a
// pure function of (program, policy, options).
TEST(SummaryCacheTest, ColdReanalysisIsIdenticalAcrossRunsAndReassembly) {
  const asmgen::Program program = spec_program();
  VsaOptions opts;
  opts.witnesses = true;
  const auto a = SummaryCache().analyze(program, {}, opts);
  const auto b = SummaryCache().analyze(program, {}, opts);
  ASSERT_NE(a.get(), b.get());
  const Cfg cfg(program);
  EXPECT_TRUE(identical(cfg, *a, *b));
  // Re-assembling the identical source yields the identical result.
  const auto c = SummaryCache().analyze(spec_program(), {}, opts);
  EXPECT_TRUE(identical(cfg, *a, *c));
}

// ---- concurrency -----------------------------------------------------------

TEST(SummaryCacheConcurrency, SameKeyLookupsCollapseOntoOneAnalysis) {
  PTAINT_REQUIRE_CACHE_ON();
  const asmgen::Program program = spec_program();
  SummaryCache cache;
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const CachedAnalysis>> results(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { results[t] = cache.analyze(program, {}); });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[0].get(), results[t].get());
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(s.cold_misses, 1u);  // one analysis served every waiter
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(SummaryCacheConcurrency, HammerMixedKeysStaysCoherent) {
  const asmgen::Program a = spec_program(0);
  const asmgen::Program b = spec_program(1);
  const asmgen::Program c = spec_program(2);
  SummaryCache reference;
  const auto want_a = reference.analyze(a, {});
  const auto want_b = reference.analyze(b, {});
  const auto want_c = reference.analyze(c, {});

  SummaryCache cache;
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::vector<int> failures(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          const int pick = (t + r) % 3;
          const asmgen::Program& p = pick == 0 ? a : pick == 1 ? b : c;
          const CachedAnalysis& want =
              pick == 0 ? *want_a : pick == 1 ? *want_b : *want_c;
          const auto got = cache.analyze(p, {});
          if (!identical(Cfg(p), want, *got)) ++failures[t];
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_EQ(s.hits + s.cold_misses, s.lookups);
  if (SummaryCache::enabled()) {
    EXPECT_EQ(s.entries, 3u);
  }
}

}  // namespace
}  // namespace ptaint::analysis
