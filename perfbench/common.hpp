// Shared pieces of the perfbench workloads: metric sink, quantiles, the
// pinned verdict reference, the span recorder and the traced job path.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "campaign/job.hpp"
#include "campaign/snapshot_cache.hpp"

namespace ptaint::serve {
class JsonValue;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t);

/// Nearest-rank quantile of `v` (copied and sorted); 0 for an empty set.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Seeded Fisher-Yates shuffle (the same order on every standard library).
template <typename T>
void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng() % i]);
}

/// What one workload run reports back to main(): flat name -> value
/// metrics plus the contract's attempted/failed counts.
struct Outcome {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool valid = true;             // false: the run must not be used
  std::vector<std::string> notes;  // human-readable lines (stderr)
  std::map<std::string, std::string> inputs;  // workload parameters
  std::map<std::string, double> observed;  // context, not bounded metrics
  std::shared_ptr<void> keep_alive;  // released after the result is printed
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string reference_path;
  std::string work_dir;  // working files (socket, journal, spans)
  Clock::time_point process_start;
};

// --- pinned reference -----------------------------------------------------

/// The verdict fields one job must reproduce exactly.
struct RefRow {
  std::string app, payload, policy, verdict, stop;
  std::string alert_pc;  // hex, "-" when the run raised no alert
  uint64_t instructions = 0;
};

/// Rows keyed by table ("ablation", "coverage", "spec1", "session") in
/// matrix (or universe) order.
using Reference = std::map<std::string, std::vector<RefRow>>;

Reference load_reference(const std::string& path);
void write_reference(const std::string& path);

/// The compared fields of a verdict row as the daemon streams it
/// (campaign::to_json_row); the alert PC is the hex before the alert's ':'.
RefRow row_of_json(const ptaint::serve::JsonValue& row);
RefRow row_of(const ptaint::campaign::JobResult& r);
/// Empty when `got` matches `want`; otherwise one line naming the diff.
std::string compare_row(const RefRow& got, const RefRow& want);

// --- serve-mixed guest sessions ---------------------------------------------

/// One scripted guest session (the daemon's "guest" job kind).
struct Session {
  std::string app;
  std::vector<std::string> lines;
};

/// The pinned universe the serve-mixed pool draws from; reference rows
/// under "session" are in this order.
std::vector<Session> session_universe();

// --- spans ------------------------------------------------------------------

/// One timed call into a library layer.  `job` groups the spans of one job
/// (-1 for pass-level spans); `parent` is the enclosing span's name.
struct Span {
  const char* name;
  const char* parent;
  int64_t pass;
  int64_t job;
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans kept in memory and written out once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  void add(const char* name, const char* parent, int64_t pass, int64_t job,
           Clock::time_point start, Clock::time_point end);
  void write(const std::string& path) const;
  size_t size() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per-job counters read from the Machine after a traced run.
struct JobCounters {
  double get_snapshot_ms = 0, restore_ms = 0, run_ms = 0, classify_ms = 0;
  double job_ms = 0;
  uint64_t instructions = 0, syscalls = 0, dirty_pages = 0, cow_breaks = 0;
  uint64_t sb_translated = 0, sb_step_retired = 0;
  uint64_t jit_compiled = 0, jit_host_retired = 0, jit_bailouts = 0;
  void add(const JobCounters& o);
};

/// Result of running a job list through the traced worker path.
struct TracedRun {
  std::vector<ptaint::campaign::JobResult> results;
  JobCounters sum;
  double wall_ms = 0;
  uint64_t steals = 0;
};

/// Runs `jobs` on `workers` threads through the same public calls
/// campaign::run_job makes (Job::get_snapshot, Job::make_config, Machine
/// construction and restore, run_for slices, Job::classify), one span per
/// call.  Dealing and stealing mirror campaign::Executor: contiguous chunks
/// per worker, own deque popped from the back, victims robbed from the
/// front.  Jobs must use the fork path.
TracedRun run_traced(const std::vector<ptaint::campaign::Job>& jobs, int workers,
                     SpanLog& spans, int64_t pass);

// --- workloads --------------------------------------------------------------

Outcome run_batch(const Options& opt, const Reference& ref);
Outcome run_serve_mixed(const Options& opt, const Reference& ref);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
