#include "campaign/executor.hpp"

#include <atomic>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "campaign/worker.hpp"

namespace ptaint::campaign {

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kGuestFault: return "guest-fault";
    case JobStatus::kBudgetExhausted: return "budget-exhausted";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kHarnessError: return "harness-error";
  }
  return "?";
}

Executor::Executor() : Executor(Config{}) {}

Executor::Executor(Config config) : config_(config) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.slice_instructions == 0) config_.slice_instructions = 250'000;
}

namespace {

/// One worker's job queue.  Owner pops newest (back), thieves steal oldest
/// (front); a plain mutex per deque is plenty — jobs are whole guest runs,
/// so queue traffic is thousands of lockings per second at most.
struct WorkQueue {
  std::mutex mutex;
  std::deque<size_t> jobs;

  bool pop_back(size_t& out) {
    std::lock_guard<std::mutex> lock(mutex);
    if (jobs.empty()) return false;
    out = jobs.back();
    jobs.pop_back();
    return true;
  }

  bool steal_front(size_t& out) {
    std::lock_guard<std::mutex> lock(mutex);
    if (jobs.empty()) return false;
    out = jobs.front();
    jobs.pop_front();
    return true;
  }
};

}  // namespace

std::vector<JobResult> Executor::run(const std::vector<Job>& jobs) {
  stats_ = {};
  stats_.jobs = jobs.size();
  std::vector<JobResult> results(jobs.size());
  if (jobs.empty()) return results;

  const int workers =
      config_.workers > static_cast<int>(jobs.size())
          ? static_cast<int>(jobs.size())
          : config_.workers;
  std::vector<WorkQueue> queues(static_cast<size_t>(workers));
  // Deal contiguous chunks: matrix neighbours share snapshots and machine
  // keys, so chunking keeps a worker's machine pool hot.  Stealing (from
  // the *front*, i.e. another worker's chunk start) rebalances skew.
  for (size_t i = 0; i < jobs.size(); ++i) {
    const size_t w = i * static_cast<size_t>(workers) / jobs.size();
    queues[w].jobs.push_back(i);
  }

  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> retries{0};
  ForkCounters counters;
  const WorkerConfig worker_config{config_.slice_instructions};

  auto worker_main = [&](int me) {
    MachinePool machines;
    for (;;) {
      size_t index = 0;
      bool found = queues[static_cast<size_t>(me)].pop_back(index);
      if (!found) {
        for (int k = 1; k < workers && !found; ++k) {
          const int victim = (me + k) % workers;
          found = queues[static_cast<size_t>(victim)].steal_front(index);
          if (found) steals.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Every job is dealt before the threads start and none is ever
      // re-enqueued (retries happen inside run_job), so once every deque
      // is empty no job can appear: this worker is done.
      if (!found) return;
      JobResult r =
          run_job(jobs[index], index, worker_config, machines, counters);
      if (r.attempts > 1) {
        retries.fetch_add(static_cast<uint64_t>(r.attempts - 1),
                          std::memory_order_relaxed);
      }
      results[index] = std::move(r);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker_main, w);
  for (auto& t : pool) t.join();

  stats_.steals = steals.load();
  stats_.retries = retries.load();
  stats_.machine_builds = counters.machine_builds.load();
  stats_.machine_reuses = counters.machine_reuses.load();
  for (const JobResult& r : results) {
    stats_.build_ms += r.build_ms;
    stats_.restore_ms += r.restore_ms;
    stats_.run_ms += r.run_ms;
    stats_.judge_ms += r.judge_ms;
  }
  return results;
}

}  // namespace ptaint::campaign
