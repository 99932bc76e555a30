// Process-wide analysis summary cache.
//
// Every consumer of the static results — Machine::apply_static_elision on
// each boot, the campaign static-check leg, the ptaint-serve shards,
// ptaint-prove, ptaint-lint — would otherwise re-run CFG recovery plus the
// value-set prover from scratch per program.  This cache memoizes the
// complete result (the prover's verdicts, elision and leak bitmaps, and the
// recovered block leaders) keyed by exact program content and policy: a
// lookup either hits an identical key or analyzes cold.
//
// Key.  The content hash covers the text words, the entry point and the
// label placement (which shapes the recovered CFG); the data segment is
// excluded because the abstract domains never read data bytes.  The policy
// column and analysis options are hashed alongside: the same program under
// a different Table 1 configuration is a different entry.  The LRU holds
// 32 entries.
//
// Environment knob:
//   PTAINT_ANALYSIS_CACHE=0    bypass (every lookup analyzes cold; the CI
//                              identity leg diffs this against cached runs)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/vsa.hpp"
#include "asmgen/assembler.hpp"
#include "cpu/taint_policy.hpp"

namespace ptaint::analysis {

/// The complete static result set for one (program, policy, options) key.
/// Shared-ptr immutable once published; consumers index freely.
struct CachedAnalysis {
  VsaAnalysis vsa;  // verdicts plus the tables Machine ships to the CPU
  std::vector<uint8_t> block_leaders;  // recovered block begins, per inst
};

struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;            // exact content hit, no analysis ran
  uint64_t cold_misses = 0;     // analyzed from scratch
  uint64_t evictions = 0;
  uint64_t analysis_micros = 0; // wall time inside cold analysis
  size_t entries = 0;

  /// One flat JSON object for status/--json surfaces.  Timing is opt-out
  /// for surfaces with a byte-identical-output contract (ptaint-prove).
  std::string json(bool include_timing = true) const;
};

/// Thread-safe LRU memoizer.  `analyze` is the single entry point: it
/// returns the cached result on an exact content hit and runs a cold
/// analysis on the calling thread otherwise.  Concurrent lookups of the
/// same key block on one analysis, so hits + cold_misses == lookups.
class SummaryCache {
 public:
  /// The process-wide instance every consumer shares.
  static SummaryCache& instance();

  SummaryCache();

  std::shared_ptr<const CachedAnalysis> analyze(
      const asmgen::Program& program, const cpu::TaintPolicy& policy,
      const VsaOptions& options = {});

  CacheStats stats() const;
  void clear();

  void set_capacity(size_t cap);

  /// cpu::env().analysis_cache: memoization on unless
  /// PTAINT_ANALYSIS_CACHE=0.  When off, analyze() still computes and
  /// returns the same result object, uncached.
  static bool enabled();

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace ptaint::analysis
