#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "campaign/campaigns.hpp"
#include "campaign/report.hpp"
#include "campaign/worker.hpp"
#include "serve/json.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- reference ----------------------------------------------------------------

RefRow row_of_json(const ptaint::serve::JsonValue& row) {
  RefRow out;
  out.app = row.get_string("app");
  out.payload = row.get_string("payload");
  out.policy = row.get_string("policy");
  out.verdict = row.get_string("verdict");
  out.stop = row.get_string("stop");
  const std::string alert = row.get_string("alert");
  const size_t colon = alert.find(':');
  out.alert_pc = colon == std::string::npos ? "-" : alert.substr(0, colon);
  out.instructions = row.get_u64("instructions");
  return out;
}

namespace {

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    const size_t tab = line.find('\t', start);
    out.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return out;
    start = tab + 1;
  }
}

}  // namespace

RefRow row_of(const ptaint::campaign::JobResult& r) {
  return row_of_json(ptaint::serve::JsonValue::parse(
      ptaint::campaign::to_json_row(r, ptaint::campaign::ReportOptions{})));
}

std::string compare_row(const RefRow& got, const RefRow& want) {
  auto field = [](const char* name, const std::string& g,
                  const std::string& w) -> std::string {
    return g == w ? "" : std::string(name) + " " + g + " != " + w + "; ";
  };
  std::string diff = field("app", got.app, want.app) +
                     field("payload", got.payload, want.payload) +
                     field("policy", got.policy, want.policy) +
                     field("verdict", got.verdict, want.verdict) +
                     field("stop", got.stop, want.stop) +
                     field("alert_pc", got.alert_pc, want.alert_pc) +
                     field("instructions", std::to_string(got.instructions),
                           std::to_string(want.instructions));
  if (diff.empty()) return diff;
  return want.app + "/" + want.payload + "/" + want.policy + ": " + diff;
}

Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto f = split_tabs(line);
    if (f.size() != 8) throw std::runtime_error("bad reference line: " + line);
    RefRow row{f[1], f[2], f[3], f[4], f[5], f[6],
               std::stoull(f[7])};
    ref[f[0]].push_back(std::move(row));
  }
  return ref;
}

void write_reference(const std::string& path) {
  using namespace ptaint;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write reference " + path);
  out << "# perfbench verdict reference: step-engine serial runs.\n"
         "# table\tapp\tpayload\tpolicy\tverdict\tstop\talert_pc\t"
         "instructions\n";
  auto emit = [&](const char* table, const RefRow& r) {
    out << table << '\t' << r.app << '\t' << r.payload << '\t' << r.policy
        << '\t' << r.verdict << '\t' << r.stop << '\t' << r.alert_pc << '\t'
        << r.instructions << '\n';
  };
  for (const auto& r : campaign::run_serial_reference("ablation", 8)) {
    emit("ablation", row_of(r));
  }
  for (const auto& r : campaign::run_serial_reference("coverage", 1)) {
    emit("coverage", row_of(r));
  }
  for (const auto& r : campaign::run_serial_reference("ablation", 1)) {
    if (r.app == "spec") emit("spec1", row_of(r));
  }
  campaign::SnapshotCache cache{campaign::StoreOptions{}};
  campaign::MachinePool pool;
  campaign::ForkCounters counters;
  size_t index = 0;
  for (const Session& s : session_universe()) {
    const campaign::Job job = campaign::make_session_job(
        s.app, s.lines, "", "paper", cache, false, cpu::Engine::kStep);
    emit("session", row_of(campaign::run_job(job, index++, {}, pool,
                                             counters)));
  }
}

// --- sessions -----------------------------------------------------------------

std::vector<Session> session_universe() {
  // Scripted clients for four registry apps, 16 variants each: benign
  // protocol traffic whose bytes (user names, paths, format text) differ,
  // so every variant boots its own snapshot.  Verdicts are whatever the
  // step engine says; the reference pins them.
  std::vector<Session> out;
  for (int i = 0; i < 16; ++i) {
    const std::string n = std::to_string(i);
    out.push_back({"wu-ftpd",
                   {"user user" + n + "\r\n", "pass pw" + n + "\r\n",
                    "site exec hello %d " + n + "\r\n", "quit\r\n"}});
    out.push_back({"globd", {"LIST *", "LIST readme.txt", "LIST ~u" + n}});
    out.push_back({"ghttpd", {"GET /page" + n + ".html HTTP/1.0\r\n"}});
    out.push_back({"null-httpd",
                   {"GET /" + n + " HTTP/1.0\r\n",
                    "POST /form HTTP/1.0\r\nContent-Length: 16\r\n\r\n",
                    "name=user" + n + "&x=1\r\n"}});
  }
  return out;
}

// --- spans ----------------------------------------------------------------------

void SpanLog::add(const char* name, const char* parent, int64_t pass,
                  int64_t job, Clock::time_point start,
                  Clock::time_point end) {
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, parent, pass, job, ns(start), ns(end)});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"parent\": \"" << s.parent
        << "\", \"pass\": " << s.pass << ", \"job\": " << s.job
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
}

void JobCounters::add(const JobCounters& o) {
  get_snapshot_ms += o.get_snapshot_ms;
  restore_ms += o.restore_ms;
  run_ms += o.run_ms;
  classify_ms += o.classify_ms;
  job_ms += o.job_ms;
  instructions += o.instructions;
  syscalls += o.syscalls;
  dirty_pages += o.dirty_pages;
  cow_breaks += o.cow_breaks;
  sb_translated += o.sb_translated;
  sb_step_retired += o.sb_step_retired;
  jit_compiled += o.jit_compiled;
  jit_host_retired += o.jit_host_retired;
  jit_bailouts += o.jit_bailouts;
}

// --- traced job path --------------------------------------------------------------

namespace {

constexpr uint64_t kSlice = 250'000;  // Executor::Config default

/// One job through the calls run_job makes, each timed as a span.  No
/// retries: the workloads pick jobs that never fail in the harness, and a
/// failure is reported, not hidden.
ptaint::campaign::JobResult traced_job(const ptaint::campaign::Job& job,
                                       size_t index,
                                       ptaint::campaign::MachinePool& pool,
                                       SpanLog& spans, int64_t pass,
                                       JobCounters& c) {
  using namespace ptaint;
  campaign::JobResult result;
  result.index = index;
  result.app = job.app;
  result.payload = job.payload;
  result.policy = job.policy;
  result.attempts = 1;
  const auto job_id = static_cast<int64_t>(index);
  const auto start = Clock::now();
  try {
    const auto snapshot = job.get_snapshot();
    const auto resolved = Clock::now();
    spans.add("campaign.get_snapshot", "job", pass, job_id, start, resolved);
    core::Machine* machine = pool.find(job.machine_key);
    if (machine == nullptr) {
      auto fresh = std::make_unique<core::Machine>(job.make_config());
      machine = fresh.get();
      pool.put(job.machine_key, std::move(fresh));
    }
    machine->restore(*snapshot);
    const auto armed = Clock::now();
    spans.add("core.restore", "job", pass, job_id, resolved, armed);

    const cpu::SuperblockStats sb0 = machine->cpu().superblock_stats();
    const cpu::JitStats jit0 = machine->cpu().jit_stats();
    const uint64_t cow0 = machine->memory().cow_stats().cow_breaks;
    const uint64_t inst0 = machine->cpu().stats().instructions;
    const uint64_t sys0 = machine->os().stats().syscalls;

    const auto deadline = start + job.timeout;
    uint64_t budget = job.max_instructions;
    cpu::StopReason reason = cpu::StopReason::kRunning;
    bool timed_out = false;
    auto slice_start = armed;
    while (budget > 0) {
      const uint64_t slice = budget < kSlice ? budget : kSlice;
      reason = machine->run_for(slice);
      const auto slice_end = Clock::now();
      spans.add("cpu.run_for", "job", pass, job_id, slice_start, slice_end);
      slice_start = slice_end;
      budget -= slice;
      if (reason != cpu::StopReason::kRunning) break;
      if (slice_end >= deadline) {
        timed_out = true;
        break;
      }
    }
    if (!timed_out && reason == cpu::StopReason::kRunning) {
      machine->cpu().mark_inst_limit();
      reason = cpu::StopReason::kInstLimit;
    }
    const auto stopped = Clock::now();
    result.report = machine->report();
    if (timed_out) {
      result.status = campaign::JobStatus::kTimeout;
      result.verdict = "TIMEOUT";
    } else if (reason == cpu::StopReason::kFault) {
      result.status = campaign::JobStatus::kGuestFault;
    } else if (reason == cpu::StopReason::kInstLimit) {
      result.status = campaign::JobStatus::kBudgetExhausted;
    } else {
      result.status = campaign::JobStatus::kOk;
    }
    if (!timed_out && job.classify) job.classify(*machine, result.report, result);
    const auto judged = Clock::now();
    spans.add("campaign.classify", "job", pass, job_id, stopped, judged);

    const cpu::SuperblockStats& sb = machine->cpu().superblock_stats();
    const cpu::JitStats& jit = machine->cpu().jit_stats();
    c.get_snapshot_ms = ms_between(start, resolved);
    c.restore_ms = ms_between(resolved, armed);
    c.run_ms = ms_between(armed, stopped);
    c.classify_ms = ms_between(stopped, judged);
    c.instructions = machine->cpu().stats().instructions - inst0;
    c.syscalls = machine->os().stats().syscalls - sys0;
    c.dirty_pages = machine->memory().dirty_page_count();
    c.cow_breaks = machine->memory().cow_stats().cow_breaks - cow0;
    c.sb_translated = sb.blocks_translated - sb0.blocks_translated;
    c.sb_step_retired = sb.step_retired - sb0.step_retired;
    c.jit_compiled = jit.blocks_compiled - jit0.blocks_compiled;
    c.jit_host_retired = jit.host_retired - jit0.host_retired;
    c.jit_bailouts = (jit.bailout_syscall + jit.bailout_break +
                      jit.bailout_arena_full) -
                     (jit0.bailout_syscall + jit0.bailout_break +
                      jit0.bailout_arena_full);
  } catch (const std::exception& e) {
    result.status = campaign::JobStatus::kHarnessError;
    result.error = e.what();
    pool.drop(job.machine_key);
  }
  const auto end = Clock::now();
  spans.add("job", "campaign.execute", pass, job_id, start, end);
  result.wall_ms = c.job_ms = ms_between(start, end);
  return result;
}

}  // namespace

TracedRun run_traced(const std::vector<ptaint::campaign::Job>& jobs,
                     int workers, SpanLog& spans, int64_t pass) {
  TracedRun out;
  out.results.resize(jobs.size());
  if (jobs.empty()) return out;
  if (workers < 1) workers = 1;
  std::vector<std::deque<size_t>> deques(static_cast<size_t>(workers));
  std::vector<std::mutex> locks(static_cast<size_t>(workers));
  const size_t chunk = (jobs.size() + workers - 1) / workers;
  for (size_t i = 0; i < jobs.size(); ++i) deques[i / chunk].push_back(i);
  std::vector<JobCounters> sums(static_cast<size_t>(workers));
  std::vector<uint64_t> steals(static_cast<size_t>(workers), 0);

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w]() {
      ptaint::campaign::MachinePool pool;
      const auto self = static_cast<size_t>(w);
      for (;;) {
        std::optional<size_t> next;
        {
          std::lock_guard<std::mutex> lock(locks[self]);
          if (!deques[self].empty()) {
            next = deques[self].back();
            deques[self].pop_back();
          }
        }
        for (size_t v = 1; !next && v < deques.size(); ++v) {
          const size_t victim = (self + v) % deques.size();
          std::lock_guard<std::mutex> lock(locks[victim]);
          if (!deques[victim].empty()) {
            next = deques[victim].front();
            deques[victim].pop_front();
            ++steals[self];
          }
        }
        if (!next) return;
        JobCounters c;
        out.results[*next] = traced_job(jobs[*next], *next, pool, spans, pass, c);
        sums[self].add(c);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = Clock::now();
  spans.add("campaign.execute", "pass", pass, -1, start, end);
  out.wall_ms = ms_between(start, end);
  for (int w = 0; w < workers; ++w) {
    out.sum.add(sums[static_cast<size_t>(w)]);
    out.steals += steals[static_cast<size_t>(w)];
  }
  return out;
}

}  // namespace perfbench
