// ptaint-serve daemon: sharded campaign analysis over a local socket.
//
// A long-running server that turns the batch campaign engine into a
// service (ROADMAP "campaign-as-a-service").  Clients speak
// newline-delimited JSON over a Unix-domain socket (docs/SERVING.md):
// submit jobs (campaign matrix cells or custom guest sessions), query
// status, fetch or stream verdicts, cancel, drain, shut down.
//
// Architecture — four thread groups around one JobQueue:
//
//   listener ──► connection handlers   parse requests, write replies and
//                                      subscribed event streams
//   shard workers (config.workers)     acquire → build Job (shared
//                                      SnapshotCache, per-shard
//                                      MachinePool) → run_job → hand off
//   judge thread                       batches finished jobs: journals
//                                      the verdict row (exactly-once),
//                                      fans events out to subscribers
//
// The judge exists so shards never leave guest execution for I/O: a
// worker's only non-guest work per job is one queue pop and one handoff
// push.  Verdict rows reuse report/ReportOptions plumbing (to_json_row),
// so a streamed verdict equals the batch CLI's sidecar row field by
// field.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/job.hpp"
#include "campaign/snapshot_cache.hpp"
#include "campaign/worker.hpp"
#include "serve/queue.hpp"

namespace ptaint::serve {

class ServeDaemon {
 public:
  struct Config {
    std::string socket_path;
    std::string journal_path;
    int workers = 4;                      // shard worker threads
    int tenant_quota = 1024;              // live jobs per tenant (0 = off)
    uint64_t slice_instructions = 250'000;
    int spec_scale = 1;                   // SPEC surrogate input scale
    uint64_t default_timeout_ms = 60'000; // per-job deadline when unset
    bool quiet = true;                    // no stderr chatter
    /// Content-addressed snapshot store (DESIGN.md §13).  snapshot_store
    /// attaches a memory-only store; snapshot_dir additionally persists
    /// pages + snapshot blobs so a restarted daemon rehydrates warm state
    /// instead of rebuilding.  Either also resolves from the environment
    /// (PTAINT_SNAPSHOT_STORE / PTAINT_SNAPSHOT_DIR).
    bool snapshot_store = false;
    std::string snapshot_dir;
  };

  struct Stats {
    uint64_t jobs_done = 0;      // verdict rows journaled
    uint64_t jobs_failed = 0;    // of those, harness errors
    uint64_t judge_batches = 0;  // judge wakeups that processed ≥1 job
    uint64_t events_streamed = 0;
  };

  explicit ServeDaemon(Config config);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Replays the journal, binds the socket, spawns all threads.  Throws
  /// std::runtime_error on bind/listen failure.
  void start();

  /// Requests shutdown: closes the listener and live connections, lets
  /// shards drain queued jobs, then stops.  Safe from any thread,
  /// including a connection handler (join happens in wait()).
  void stop();

  /// Blocks until the daemon has fully stopped (stop() or a protocol
  /// `shutdown`), then joins every thread.
  void wait();

  const Config& config() const { return config_; }
  Stats stats() const;
  /// The `status` reply body — also handy for tests and tools.
  std::string status_json();
  /// Queue replay count from start() (jobs re-enqueued from the journal).
  uint64_t replayed() const;

 private:
  struct StreamSink {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::string> lines;
    size_t awaiting = 0;
    bool dead = false;
  };

  struct Finished {
    uint64_t id = 0;
    campaign::JobResult result;
  };

  void listener_main();
  void connection_main(int fd);
  void worker_main();
  void judge_main();

  campaign::Job build_job(const JobSpec& spec);
  void finish_job(uint64_t id, campaign::JobResult result);  // -> judge
  void publish(uint64_t id, const std::string& line);  // event to subscriber

  std::string handle_submit(const class JsonValue& req,
                            const std::shared_ptr<StreamSink>& sink,
                            std::vector<uint64_t>& subscribed);
  /// Registers `ids` on `sink` and back-fills events for any id that
  /// completed before registration (no event may be lost or doubled).
  void finish_partial_subscription(const std::shared_ptr<StreamSink>& sink,
                                   std::vector<uint64_t>& subscribed,
                                   const std::vector<uint64_t>& ids);
  std::string handle_status();
  std::string handle_result(const class JsonValue& req);
  std::string handle_cancel(const class JsonValue& req);
  std::string handle_drain();

  Config config_;
  std::unique_ptr<JobQueue> queue_;
  campaign::SnapshotCache cache_;
  campaign::ForkCounters fork_counters_;

  int listen_fd_ = -1;
  // Both feed the judge's wait predicate: written only under judge_mutex_
  // once the threads run (atomic so other threads may read them unlocked).
  std::atomic<bool> running_{false};
  std::atomic<int> active_workers_{0};
  std::thread listener_;
  std::vector<std::thread> workers_;
  std::thread judge_;

  // Connections are keyed by an accept serial, not the fd: a handler marks
  // its entry fd=-1 when it closes, so stop() never shuts down a recycled
  // descriptor.  Thread objects stay in the map until wait() joins them.
  struct Conn {
    int fd = -1;
    std::thread thread;
  };
  std::mutex conns_mutex_;
  std::map<uint64_t, Conn> conns_;

  std::mutex judge_mutex_;
  std::condition_variable judge_cv_;
  std::deque<Finished> judge_queue_;

  std::mutex subs_mutex_;
  std::map<uint64_t, std::shared_ptr<StreamSink>> subs_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace ptaint::serve
