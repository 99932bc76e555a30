// The serve-mixed workload: an in-process ServeDaemon (2 shard workers,
// default engine, memory-only snapshot store) driven open loop over two
// client connections, one per tenant, with seeded Poisson arrivals at a
// fixed rate.  About 90% of jobs are coverage attack cells, 8% scripted
// guest sessions, and 2% SPEC cells.  Guest sessions come from a seeded
// pool of 48, larger than the store's 32 hot snapshots; the other 16
// sessions of the universe each boot once, spread over the window.  No
// production trace exists; the mix is modelled on bench_serve's seed load
// plus the daemon's "guest" job kind.
// The SPEC cells are gzip under the seven ablation policies: p99 falls
// among the SPEC jobs, and surrogates of different lengths would make it
// jump between their run times from one run to the next.
//
// Each job is timed from its due time to its verdict event.  The daemon
// streams a connection's verdicts before it reads that connection's next
// request, so a slow job delays the jobs queued behind it on the wire;
// timing from the due time counts that wait.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <thread>
#include <unordered_map>

#include "campaign/campaigns.hpp"
#include "campaign/report.hpp"
#include "common.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace ptaint;

// The reference host is a shared VM whose speed varied up to 2x within an
// hour.  Jobs in flight grew at 1400/s in its slow phases (2800/s in fast
// ones).  At 400/s queueing amplified those swings: over ten runs the
// quartile spread of p50 was 0.39 of its median, of p99 0.26.  At 150/s
// latency is set by the job path itself, through every daemon stage.
constexpr double kRatePerSec = 150.0;
constexpr const char* kSpecWorkload = "GZIP";
constexpr double kLatencyLimitMs = 100.0;
constexpr int kShards = 2;
constexpr int kConnections = 2;  // one per tenant
constexpr size_t kGuestPool = 48;
constexpr double kMaxLatenessP99Ms = 10.0;  // a tenth of the latency limit
constexpr size_t kReplayJobs = 3000;

/// One job of the seeded schedule.
struct Planned {
  double due_s = 0;  // from the start of the window
  int conn = 0;
  std::string spec_json;
  const RefRow* want = nullptr;
  // For the traced replay.
  campaign::CellRef cell;
  const Session* session = nullptr;
};

/// Per-job observations, written by the connection's sender and reader.
struct Observed {
  Clock::time_point sent, acked, verdict;
  bool ok = false;
  bool answered = false;
  double exec_ms = 0, build_ms = 0, restore_ms = 0, run_ms = 0,
         judge_ms = 0, dirty_pages = 0;
};

std::string quoted(const std::string& s) {
  return "\"" + campaign::json_escape(s) + "\"";
}

std::string cell_json(const campaign::CellRef& c) {
  return "{\"app\": " + quoted(c.app) + ", \"payload\": " + quoted(c.payload) +
         ", \"policy\": " + quoted(c.policy) + "}";
}

std::string session_json(const Session& s) {
  std::string out = "{\"app\": \"guest\", \"payload\": " + quoted(s.app) +
                    ", \"policy\": \"paper\", \"session\": [";
  for (size_t i = 0; i < s.lines.size(); ++i) {
    out += (i ? ", " : "") + quoted(s.lines[i]);
  }
  return out + "]}";
}

struct Mix {
  std::vector<campaign::CellRef> attacks, specs;
  std::vector<const RefRow*> attack_want, spec_want;
  std::vector<Session> universe;
  std::vector<size_t> pool;   // universe indices, booted in set-up
  std::vector<size_t> fresh;  // the rest, each booted once in the window
  const std::vector<RefRow>* session_want = nullptr;
};

Mix make_mix(const Reference& ref, uint64_t seed) {
  Mix mix;
  mix.attacks = campaign::campaign_cells("coverage");
  const auto& cov = ref.at("coverage");
  for (size_t i = 0; i < mix.attacks.size(); ++i) {
    mix.attack_want.push_back(&cov.at(i));
  }
  const auto& spec = ref.at("spec1");
  size_t spec_index = 0;
  for (const auto& c : campaign::campaign_cells("ablation", 1)) {
    if (c.app == "spec") ++spec_index;
    if (c.app != "spec" || c.payload != kSpecWorkload) continue;
    mix.spec_want.push_back(&spec.at(spec_index - 1));
    mix.specs.push_back(c);
  }
  mix.universe = session_universe();
  mix.session_want = &ref.at("session");
  std::vector<size_t> all(mix.universe.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::mt19937_64 rng(seed ^ 0x5e55105ULL);
  shuffle(all, rng);
  mix.pool.assign(all.begin(), all.begin() + kGuestPool);
  mix.fresh.assign(all.begin() + kGuestPool, all.end());
  return mix;
}

/// The seeded schedule: rate x seconds arrivals at uniform random times
/// (a Poisson process conditioned on its count), with exact kind shares.
/// Each kind cycles through its cells in a seeded order, so seeds differ in
/// arrival times and order, not in how much work the window holds.
std::vector<Planned> make_schedule(const Mix& mix, uint64_t seed,
                                   double seconds) {
  std::mt19937_64 rng(seed);
  const auto n = static_cast<size_t>(kRatePerSec * seconds);
  std::uniform_real_distribution<double> when(0.0, seconds);
  std::vector<double> due(n);
  for (double& t : due) t = when(rng);
  std::sort(due.begin(), due.end());
  // Kinds and connections are dealt in blocks of 50 consecutive arrivals:
  // 4 guest and 45 attack jobs in seeded order, half on each connection,
  // and one SPEC job mid-block on alternating connections.  A SPEC job then
  // never waits behind another on its connection, so p99, which falls
  // among the SPEC jobs, tracks their run time instead of jumping between
  // one and two run times from run to run.
  enum Kind : uint8_t { kAttack, kGuest, kSpec };
  constexpr size_t kBlock = 50;
  std::vector<Kind> kind;
  std::vector<int> conn;
  for (size_t block = 0; kind.size() < n; ++block) {
    std::vector<Kind> k(kBlock - 1, kAttack);
    std::fill_n(k.begin(), 4, kGuest);
    shuffle(k, rng);
    k.insert(k.begin() + kBlock / 2, kSpec);
    std::vector<int> c(kBlock);
    for (size_t i = 0; i < kBlock; ++i) c[i] = static_cast<int>(i % kConnections);
    shuffle(c, rng);
    const int spec_conn = static_cast<int>(block % kConnections);
    const auto other = std::find(c.begin(), c.end(), spec_conn);
    std::swap(*other, c[kBlock / 2]);
    kind.insert(kind.end(), k.begin(), k.end());
    conn.insert(conn.end(), c.begin(), c.end());
  }
  kind.resize(n);
  conn.resize(n);
  std::vector<size_t> attacks(mix.attacks.size()), spec_cells(mix.specs.size());
  for (size_t i = 0; i < attacks.size(); ++i) attacks[i] = i;
  for (size_t i = 0; i < spec_cells.size(); ++i) spec_cells[i] = i;
  shuffle(attacks, rng);
  shuffle(spec_cells, rng);
  const auto guests = static_cast<size_t>(std::count(kind.begin(), kind.end(), kGuest));
  size_t next[3] = {0, 0, 0};
  std::vector<Planned> out(n);
  for (size_t j = 0; j < n; ++j) {
    Planned& p = out[j];
    p.due_s = due[j];
    p.conn = conn[j];
    const size_t k = next[kind[j]]++;
    if (kind[j] == kAttack) {
      const size_t i = attacks[k % attacks.size()];
      p.cell = mix.attacks[i];
      p.want = mix.attack_want[i];
      p.spec_json = cell_json(p.cell);
    } else if (kind[j] == kGuest) {
      // Guest jobs cycle through the warm pool; every `spacing`-th one
      // boots a fresh session instead, so snapshot builds trickle through
      // the window at a steady rate rather than in one burst.
      const size_t spacing = std::max<size_t>(1, guests / mix.fresh.size());
      const size_t u = k % spacing == spacing / 2 && k / spacing < mix.fresh.size()
                           ? mix.fresh[k / spacing]
                           : mix.pool[k % mix.pool.size()];
      p.session = &mix.universe[u];
      p.want = &mix.session_want->at(u);
      p.spec_json = session_json(*p.session);
    } else {
      const size_t i = spec_cells[k % spec_cells.size()];
      p.cell = mix.specs[i];
      p.want = mix.spec_want[i];
      p.spec_json = cell_json(p.cell);
    }
  }
  return out;
}

std::string submit_line(const std::string& tenant, const std::string& job) {
  return "{\"cmd\": \"submit\", \"stream\": true, \"tenant\": " +
         quoted(tenant) + ", \"job\": " + job + "}";
}

/// Compares a streamed verdict row with the reference; records timings.
bool judge_row(const serve::JsonValue& row, const RefRow& want, Observed& o,
               Outcome& out) {
  auto num = [&](const char* k) {
    const serve::JsonValue* v = row.get(k);
    return v ? v->as_number() : 0.0;
  };
  o.exec_ms = num("wall_ms");
  o.build_ms = num("build_ms");
  o.restore_ms = num("restore_ms");
  o.run_ms = num("run_ms");
  o.judge_ms = num("judge_ms");
  o.dirty_pages = num("dirty_pages");
  const std::string diff = compare_row(row_of_json(row), want);
  if (diff.empty()) return true;
  if (out.notes.size() < 20) out.notes.push_back("mismatch " + diff);
  return false;
}

/// One generator connection and the jobs sent on it that await their
/// `accepted` reply, oldest first.
struct Connection {
  explicit Connection(const std::string& socket) : client(socket) {}
  serve::Client client;
  std::mutex mutex;
  std::deque<size_t> unacked;
};

/// Status poll: the `queued` count and the judge's running totals.
struct StatusSample {
  uint64_t queued = 0, jobs_done = 0, judge_batches = 0;
};

StatusSample poll_status(serve::Client& control) {
  const auto st =
      serve::JsonValue::parse(control.request("{\"cmd\": \"status\"}"));
  return {st.get_u64("queued"), st.get_u64("jobs_done"),
          st.get_u64("judge_batches")};
}

/// Submits `jobs` on one connection and waits for every verdict.
/// Returns the number of verdicts that matched `want`.
uint64_t warm_up(const std::string& socket, const std::vector<std::string>& jobs,
                 const std::vector<const RefRow*>& want, Outcome& out) {
  serve::Client client(socket);
  std::string line = "{\"cmd\": \"submit\", \"stream\": true, \"jobs\": [";
  for (size_t i = 0; i < jobs.size(); ++i) line += (i ? ", " : "") + jobs[i];
  client.send_line(line + "]}");
  std::unordered_map<uint64_t, size_t> index_of;
  uint64_t ok = 0;
  size_t seen = 0;
  while (seen < jobs.size()) {
    const auto reply = client.read_line();
    if (!reply) break;
    const auto ev = serve::JsonValue::parse(*reply);
    const std::string kind = ev.get_string("event");
    if (kind == "accepted") {
      const auto& ids = ev.get("ids")->as_array();
      for (size_t i = 0; i < ids.size(); ++i) index_of[ids[i].as_u64()] = i;
    } else if (kind == "verdict") {
      Observed o;
      const size_t i = index_of.at(ev.get_u64("id"));
      if (judge_row(*ev.get("result"), *want[i], o, out)) ++ok;
      ++seen;
    } else {
      out.notes.push_back("warm-up: " + *reply);
      break;
    }
  }
  return ok;
}

/// The daemon under test.  It is shut down when the last owner lets go,
/// which main() does after printing the result.  ServeDaemon's last worker
/// and stop() notify the judge without holding its mutex, so a judge that
/// re-checks its wait condition at that moment sleeps forever and wait()
/// never returns (seen in about one run in five).  Every verdict has been
/// checked by then, so a shutdown that hangs past a deadline is reported and
/// the process exits with the result already printed.
struct RunningDaemon {
  explicit RunningDaemon(const serve::ServeDaemon::Config& config)
      : daemon(config) {
    daemon.start();
  }
  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;
  ~RunningDaemon() {
    const std::string sock = daemon.config().socket_path;
    const std::string journal = daemon.config().journal_path;
    std::atomic<bool> stopped{false};
    std::thread watchdog([&]() {
      for (int i = 0; i < 100 && !stopped.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      if (stopped.load()) return;
      ::unlink(sock.c_str());
      ::unlink(journal.c_str());
      std::fprintf(stderr, "perfbench: daemon shutdown hung (lost judge "
                           "wakeup in ServeDaemon::stop); exiting\n");
      std::fflush(nullptr);
      std::_Exit(0);
    });
    daemon.stop();
    daemon.wait();
    stopped = true;
    watchdog.join();
    ::unlink(sock.c_str());
    ::unlink(journal.c_str());
  }
  serve::ServeDaemon daemon;
};

}  // namespace

Outcome run_serve_mixed(const Options& opt, const Reference& ref) {
  Outcome out;
  const Mix mix = make_mix(ref, opt.seed);
  out.inputs = {{"rate_per_s", std::to_string(kRatePerSec)},
                {"arrivals", "poisson, open loop"},
                {"connections", std::to_string(kConnections)},
                {"tenants", std::to_string(kConnections)},
                {"shards", std::to_string(kShards)},
                {"mix", "90% coverage attack cells, 8% guest sessions, "
                        "2% gzip spec cells (spec_scale 1)"},
                {"guest_pool", std::to_string(kGuestPool) + " warm of " +
                                   std::to_string(mix.universe.size()) +
                                   ", the rest booted once each"},
                {"snapshot_store", "memory, 32 hot"},
                {"latency_limit_ms", "100"}};

  serve::ServeDaemon::Config config;
  const std::string base =
      opt.work_dir + "/serve-" + std::to_string(::getpid());
  config.socket_path = base + ".sock";
  config.journal_path = base + ".journal";
  config.workers = kShards;
  config.snapshot_store = true;
  ::unlink(config.socket_path.c_str());
  ::unlink(config.journal_path.c_str());
  auto running = std::make_shared<RunningDaemon>(config);
  serve::ServeDaemon& daemon = running->daemon;
  out.keep_alive = running;

  // Set-up: start the daemon and serve every distinct cell and pooled
  // guest session of the mix once, as a warm daemon would have.
  {
    std::vector<std::string> jobs;
    std::vector<const RefRow*> want;
    for (size_t i = 0; i < mix.attacks.size(); ++i) {
      jobs.push_back(cell_json(mix.attacks[i]));
      want.push_back(mix.attack_want[i]);
    }
    for (size_t i = 0; i < mix.specs.size(); ++i) {
      jobs.push_back(cell_json(mix.specs[i]));
      want.push_back(mix.spec_want[i]);
    }
    for (size_t u : mix.pool) {
      jobs.push_back(session_json(mix.universe[u]));
      want.push_back(&mix.session_want->at(u));
    }
    const uint64_t ok = warm_up(config.socket_path, jobs, want, out);
    out.attempted += jobs.size();
    out.failed += jobs.size() - ok;
  }
  out.metrics["setup_s"] = seconds_since(opt.process_start);
  if (opt.setup_only) return out;

  const std::vector<Planned> plan = make_schedule(mix, opt.seed, opt.seconds);
  std::vector<Observed> seen(plan.size());
  std::vector<std::vector<size_t>> per_conn(kConnections);
  for (size_t i = 0; i < plan.size(); ++i) per_conn[plan[i].conn].push_back(i);

  serve::Client control(config.socket_path);
  const StatusSample before = poll_status(control);
  std::atomic<uint64_t> outstanding{0};  // sent, no verdict yet
  std::vector<std::pair<double, double>> inflight;  // (due s, outstanding)
  std::mutex mutex;  // guards inflight and out.notes while threads run
  const auto window = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](double s) {
    return window + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
  };

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(config.socket_path));
  }
  // Each connection has a sender, which submits its jobs at their due
  // times whatever the replies, and a reader.  The daemon acknowledges a
  // connection's submits in order, so the reader matches each `accepted`
  // to the oldest unacknowledged job, then verdicts to jobs by id.
  const auto send_all = [&](int c) {
    Connection& conn = *conns[c];
    const std::string tenant = "tenant-" + std::to_string(c);
    for (size_t i : per_conn[c]) {
      std::this_thread::sleep_until(due_at(plan[i].due_s));
      seen[i].sent = Clock::now();
      {
        std::lock_guard<std::mutex> lock(conn.mutex);
        conn.unacked.push_back(i);
      }
      const double now_out = static_cast<double>(outstanding.fetch_add(1) + 1);
      {
        std::lock_guard<std::mutex> lock(mutex);
        inflight.push_back({plan[i].due_s, now_out});
      }
      conn.client.send_line(submit_line(tenant, plan[i].spec_json));
    }
  };
  const auto read_all = [&](int c) {
    Connection& conn = *conns[c];
    std::unordered_map<uint64_t, size_t> job_of;
    for (size_t answered = 0; answered < per_conn[c].size();) {
      const auto line = conn.client.read_line();
      if (!line) return;
      const auto now = Clock::now();
      const auto ev = serve::JsonValue::parse(*line);
      const std::string kind = ev.get_string("event");
      size_t i = 0;
      if (kind == "accepted" || kind == "error") {
        std::lock_guard<std::mutex> lock(conn.mutex);
        i = conn.unacked.front();
        conn.unacked.pop_front();
      }
      if (kind == "accepted") {
        seen[i].acked = now;
        job_of[ev.get("ids")->as_array().at(0).as_u64()] = i;
        continue;
      }
      ++answered;
      outstanding.fetch_sub(1);
      if (kind == "verdict") {
        i = job_of.at(ev.get_u64("id"));
        Observed& o = seen[i];
        o.verdict = now;
        o.answered = true;
        Outcome local;
        o.ok = judge_row(*ev.get("result"), *plan[i].want, o, local);
        if (local.notes.empty()) continue;
      }
      // A refused submission (no verdict follows) or a wrong verdict.
      std::lock_guard<std::mutex> lock(mutex);
      out.notes.push_back("job " + std::to_string(i) + ": " + *line);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    for (const auto& body : {std::function<void(int)>(send_all),
                             std::function<void(int)>(read_all)}) {
      threads.emplace_back([&, body, c]() {
        try {
          body(c);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mutex);
          out.notes.push_back("connection " + std::to_string(c) + ": " +
                              e.what());
        }
      });
    }
  }

  // Poll the daemon's queue while the window runs.
  std::vector<std::pair<double, double>> queued;  // (t, queued)
  while (Clock::now() < due_at(opt.seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double t = std::chrono::duration<double>(Clock::now() - window).count();
    queued.push_back({t, static_cast<double>(poll_status(control).queued)});
  }
  // Give stragglers a bounded grace period, then hang up on them.
  const auto grace = Clock::now() + std::chrono::seconds(20);
  while (outstanding.load() > 0 && Clock::now() < grace) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const StatusSample after = poll_status(control);
  // Stopping the daemon hangs up on readers still waiting for a verdict.
  if (outstanding.load() > 0) daemon.stop();
  for (auto& t : threads) t.join();

  // --- results ---
  std::vector<double> latency, lateness, ack, exec, wait;
  double sum_build = 0, sum_restore = 0, sum_run = 0, sum_judge = 0,
         sum_dirty = 0;
  uint64_t misses = 0, answered = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    const Observed& o = seen[i];
    const auto due = due_at(plan[i].due_s);
    ++out.attempted;
    if (!o.answered || !o.ok) {
      ++out.failed;
      ++misses;
      continue;
    }
    ++answered;
    const double lat = ms_between(due, o.verdict);
    latency.push_back(lat);
    if (lat > kLatencyLimitMs) ++misses;
    lateness.push_back(ms_between(due, o.sent));
    ack.push_back(ms_between(o.sent, o.acked));
    exec.push_back(o.exec_ms);
    wait.push_back(ms_between(o.acked, o.verdict) - o.exec_ms);
    sum_build += o.build_ms;
    sum_restore += o.restore_ms;
    sum_run += o.run_ms;
    sum_judge += o.judge_ms;
    sum_dirty += o.dirty_pages;
  }
  const double late_p99 = quantile(lateness, 0.99);
  auto quarter_mean = [](const std::vector<std::pair<double, double>>& v,
                         double from, double to) {
    double sum = 0;
    size_t n = 0;
    for (const auto& [t, x] : v) {
      if (t >= from && t < to) sum += x, ++n;
    }
    return n ? sum / n : 0.0;
  };
  const double q = opt.seconds / 4;
  const double inflight_first = quarter_mean(inflight, 0, q);
  const double inflight_last = quarter_mean(inflight, 3 * q, 4 * q);
  const double queued_first = quarter_mean(queued, 0, q);
  const double queued_last = quarter_mean(queued, 3 * q, 4 * q);
  if (late_p99 > kMaxLatenessP99Ms) {
    out.valid = false;
    out.notes.push_back("INVALID: generator lateness p99 " +
                        std::to_string(late_p99) + " ms");
  }
  if (inflight_last > inflight_first + 16 || queued_last > queued_first + 16) {
    out.valid = false;
    out.notes.push_back("INVALID: backlog grew (in flight " +
                        std::to_string(inflight_first) + " -> " +
                        std::to_string(inflight_last) + ", queued " +
                        std::to_string(queued_first) + " -> " +
                        std::to_string(queued_last) + ")");
  }
  out.notes.push_back(
      "jobs " + std::to_string(plan.size()) + ", verdicts " +
      std::to_string(answered) + " (latency samples), lateness p99 " +
      std::to_string(late_p99) + " ms, in flight " +
      std::to_string(inflight_first) + " -> " + std::to_string(inflight_last));

  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double n = answered ? static_cast<double>(answered) : 1.0;
  out.observed = {{"latency_samples", static_cast<double>(latency.size())},
                  {"lateness_p99_ms", late_p99},
                  {"miss_frac", static_cast<double>(misses) / plan.size()},
                  {"in_flight_first_quarter", inflight_first},
                  {"in_flight_last_quarter", inflight_last},
                  {"queued_first_quarter", queued_first},
                  {"queued_last_quarter", queued_last}};
  if (!opt.trace) {
    out.metrics["p50_ms"] = median(latency);
    out.metrics["p99_ms"] = quantile(latency, 0.99);
    out.metrics["rss_mb"] = peak_rss_mb();
    return out;
  }

  auto& m = out.metrics;
  m["serve.lateness_ms"] = mean(lateness);
  m["serve.lateness_p99_ms"] = late_p99;
  m["serve.ack_ms"] = mean(ack);
  m["serve.exec_ms"] = mean(exec);
  m["serve.wait_ms"] = mean(wait);
  m["serve.latency_ms"] = mean(latency);
  m["serve.miss_frac"] = static_cast<double>(misses) / plan.size();
  m["serve.jobs_per_judge_batch"] =
      after.judge_batches > before.judge_batches
          ? static_cast<double>(after.jobs_done - before.jobs_done) /
                (after.judge_batches - before.judge_batches)
          : 0.0;
  double qmax = 0;
  for (const auto& [t, x] : queued) qmax = std::max(qmax, x);
  m["serve.queued_max"] = qmax;
  m["campaign.snapshot_get_ms"] = sum_build / n;
  m["core.restore_ms"] = sum_restore / n;
  m["cpu.run_ms"] = sum_run / n;
  m["campaign.classify_ms"] = sum_judge / n;
  m["core.restore_dirty_pages"] = sum_dirty / n;
  m["share.restore_of_latency"] = (sum_restore / n) / mean(latency);

  // Engine, COW, OS and store counters are not visible through the socket:
  // replay the schedule's first jobs through the traced job path with the
  // daemon's engine, store and shard count, and read them off the machines.
  campaign::StoreOptions store;
  store.enabled = true;
  campaign::SnapshotCache cache(store);
  std::vector<campaign::Job> jobs;
  for (size_t i = 0; i < plan.size() && i < kReplayJobs; ++i) {
    const Planned& p = plan[i];
    jobs.push_back(p.session ? campaign::make_session_job(
                                   p.session->app, p.session->lines, "",
                                   "paper", cache)
                             : campaign::make_cell_job(p.cell, cache));
  }
  SpanLog spans(opt.process_start);
  const TracedRun tr = run_traced(jobs, kShards, spans, 0);
  for (size_t i = 0; i < tr.results.size(); ++i) {
    const std::string diff = compare_row(row_of(tr.results[i]), *plan[i].want);
    ++out.attempted;
    if (!diff.empty()) {
      ++out.failed;
      out.notes.push_back("replay mismatch " + diff);
    }
  }
  const JobCounters& s = tr.sum;
  const double rn = jobs.empty() ? 1.0 : static_cast<double>(jobs.size());
  const double insts = static_cast<double>(s.instructions);
  const campaign::SnapshotCache::Stats cs = cache.stats();
  m["cpu.guest_insts"] = insts;
  m["cpu.run_mips"] = s.run_ms > 0 ? insts / (s.run_ms * 1e3) : 0.0;
  m["cpu.sb.blocks_translated"] = static_cast<double>(s.sb_translated) / rn;
  m["cpu.sb.step_retired_ratio"] =
      insts > 0 ? static_cast<double>(s.sb_step_retired) / insts : 0.0;
  m["mem.cow_breaks"] = static_cast<double>(s.cow_breaks) / rn;
  m["os.syscalls"] = static_cast<double>(s.syscalls);
  m["campaign.snapshot_builds"] = cs.builds;
  m["campaign.snapshot_hit_ratio"] =
      cs.hits + cs.misses ? static_cast<double>(cs.hits) / (cs.hits + cs.misses)
                          : 0.0;
  m["campaign.hydrate_ms"] = cs.hydrate_ms;
  m["mem.store.rehydrations"] = cs.rehydrations;
  m["mem.store.dedup_ratio"] =
      cs.store.canonical_pages
          ? static_cast<double>(cs.store.interned_refs) / cs.store.canonical_pages
          : 0.0;
  m["trace.job_attributed_frac"] =
      s.job_ms > 0 ? (s.get_snapshot_ms + s.restore_ms + s.run_ms +
                      s.classify_ms) / s.job_ms
                   : 0.0;
  // The live window collects the same observations traced or not.
  m["trace.overhead_frac"] = 0.0;
  const std::string path = opt.work_dir + "/spans-" + opt.workload + ".jsonl";
  spans.write(path);
  out.notes.push_back("replayed " + std::to_string(jobs.size()) +
                      " jobs for engine/COW/OS/store counters; spans -> " + path);
  m["rss_mb"] = peak_rss_mb();
  return out;
}

}  // namespace perfbench
