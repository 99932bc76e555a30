// Snapshot restore throughput: COW delta restore vs full deep copy.
//
// Part 1 — restore microbench.  Each SPEC surrogate boots once and is
// snapshotted; a single machine then loops { run a slice (dirtying pages),
// restore } under both memory modes.  Full-copy mode (MachineConfig::
// no_cow) deep-copies every mapped page per restore; COW mode pays only
// for the pages the slice dirtied (a delta restore).  Only the restore
// calls are timed; each cell is the best of three repetitions.
//
// Part 2 — forked-campaign wall time.  The ablation campaign runs on the
// parallel engine under both modes; verdicts must match exactly, and the
// wall-time ratio shows what COW restores buy an end-to-end sweep.
//
// Part 3 — content-addressed store (DESIGN.md §13).  The ablation
// campaign runs store-backed; its key set interns every built snapshot's
// pages, and the columns show what the store buys: page dedup ratio
// across keys, store bytes per snapshot, the disk format's RLE
// compression ratio over the canonical page set, and rehydration rates
// from each tier (hot store pages, and page files read by a restarted
// store).
//
//   bench_snapshot_throughput [scale] [json-path]
//   bench_snapshot_throughput --check
//
// Results go to `json-path` (default BENCH_snapshot.json) for
// EXPERIMENTS.md and CI.  `--check` skips the timing reps and instead
// verifies run-report identity between the modes: interleaved
// restore/run/report cycles per workload, store dehydrate/hydrate
// round-trips (byte-identical pages, identical reports from every tier),
// then the coverage campaign under {step, superblock} x {COW, full-copy}
// plus store-backed legs on all three engines — exit 1 on any divergence
// (made for the sanitizer CI legs, where timing is meaningless anyway;
// the store legs use a self-contained temp-dir disk tier).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/executor.hpp"
#include "campaign/snapshot_cache.hpp"
#include "core/snapshot_io.hpp"
#include "core/spec_workloads.hpp"
#include "mem/page_store.hpp"

using namespace ptaint;
using namespace ptaint::core;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One workload's restore-rate measurement for one memory mode.
struct RestoreCell {
  double restores_per_s = 0.0;
  uint64_t dirty_pages = 0;   // pages the inter-restore slice dirtied
  uint64_t mapped_pages = 0;  // snapshot footprint
};

constexpr int kRestores = 200;        // restores per repetition
constexpr uint64_t kSlice = 50'000;   // guest instructions between restores

RestoreCell measure_restores(const MachineSnapshot& snap, bool no_cow,
                             int reps) {
  RestoreCell cell;
  for (int rep = 0; rep < reps; ++rep) {
    MachineConfig cfg;
    cfg.no_cow = no_cow;
    Machine machine(cfg);
    machine.restore(snap);  // first restore is full under either mode
    double restore_s = 0.0;
    for (int i = 0; i < kRestores; ++i) {
      machine.run_for(kSlice);
      cell.dirty_pages = machine.memory().dirty_page_count();
      const auto t0 = Clock::now();
      machine.restore(snap);
      restore_s += seconds_since(t0);
    }
    cell.restores_per_s =
        std::max(cell.restores_per_s, kRestores / restore_s);
  }
  cell.mapped_pages = snap.memory.mapped_pages();
  return cell;
}

/// Fingerprint of a run's observable outcome; COW and full-copy modes must
/// never disagree on it.
std::string report_fingerprint(const RunReport& r) {
  std::ostringstream ss;
  ss << static_cast<int>(r.stop) << "|" << r.exit_status << "|"
     << r.cpu_stats.instructions << "|" << r.tainted_memory_bytes << "|"
     << (r.alert ? r.alert_line() : "") << "|" << r.alert_function;
  return ss.str();
}

/// --check leg 1: interleaved restore/run/report cycles must produce the
/// same report sequence under COW and full-copy memory.
bool check_restore_identity(const SpecWorkload& w,
                            const MachineSnapshot& snap) {
  std::vector<std::string> prints[2];
  for (int mode = 0; mode < 2; ++mode) {
    MachineConfig cfg;
    cfg.no_cow = mode == 1;
    Machine machine(cfg);
    for (int i = 0; i < 6; ++i) {
      machine.restore(snap);
      machine.run_for(kSlice * (1 + i % 3));  // vary the dirtied set
      prints[mode].push_back(report_fingerprint(machine.report()));
    }
  }
  if (prints[0] == prints[1]) return true;
  std::fprintf(stderr, "%s: COW and full-copy runs diverge\n",
               w.name.c_str());
  return false;
}

/// Runs the named campaign on the parallel engine; returns wall seconds.
/// With `store`, the snapshot cache is store-backed and `store_stats`
/// (when non-null) receives its final statistics.
double run_campaign(const std::string& name, bool no_cow,
                    std::optional<cpu::Engine> engine,
                    std::vector<campaign::JobResult>& out,
                    const campaign::StoreOptions* store = nullptr,
                    campaign::SnapshotCache::Stats* store_stats = nullptr) {
  campaign::SnapshotCache cache(store ? *store
                                      : campaign::StoreOptions::from_env());
  double s = 0.0;
  {
    campaign::Executor::Config config;
    config.workers = 4;
    campaign::Executor executor(config);
    std::vector<campaign::Job> jobs =
        campaign::make_jobs(name, cache, /*spec_scale=*/1, /*elide=*/false,
                            engine);
    // Every forked machine runs the leg's memory mode, whatever
    // PTAINT_NO_COW says.  The cache's snapshot-building machines follow
    // the environment; a fork restores their snapshot in its own mode.
    for (campaign::Job& job : jobs) {
      job.make_config = [make = std::move(job.make_config), no_cow]() {
        core::MachineConfig cfg = make();
        cfg.no_cow = no_cow;
        return cfg;
      };
    }
    const auto t0 = Clock::now();
    out = executor.run(jobs);
    s = seconds_since(t0);
  }
  if (store_stats) *store_stats = cache.stats();
  return s;
}

/// Fresh temp directory for a disk tier; benches/checks stay
/// self-contained (no environment needed, removed afterwards).
std::string make_temp_dir() {
  char tmpl[] = "/tmp/ptaint-bench-store-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  return dir ? dir : "";
}

bool pages_identical(const mem::TaintedMemory& a,
                     const mem::TaintedMemory& b) {
  auto pa = a.page_blocks();
  auto pb = b.page_blocks();
  const auto by_idx = [](const auto& x, const auto& y) {
    return x.first < y.first;
  };
  std::sort(pa.begin(), pa.end(), by_idx);
  std::sort(pb.begin(), pb.end(), by_idx);
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].first != pb[i].first) return false;
    const auto& x = *pa[i].second;
    const auto& y = *pb[i].second;
    if (x.data != y.data || x.taint != y.taint || x.aprov != y.aprov ||
        x.tainted_bytes != y.tainted_bytes || x.addr_bytes != y.addr_bytes) {
      return false;
    }
  }
  return true;
}

constexpr cpu::Engine kAllEngines[] = {
    cpu::Engine::kStep, cpu::Engine::kSuperblock, cpu::Engine::kJit};

/// --check leg 2: a snapshot dehydrated into the store and hydrated back
/// from both tiers (hot pages, then the page files a restarted store
/// reads) must be byte-identical and produce the same reports on all
/// three engines.
bool check_store_identity(const SpecWorkload& w) {
  auto machine = prepare_spec_workload(w, {});
  MachineSnapshot snap = machine->snapshot();

  std::vector<std::string> reference;
  for (const cpu::Engine engine : kAllEngines) {
    MachineConfig cfg;
    cfg.engine = engine;
    Machine m(cfg);
    m.restore(snap);
    m.run_for(kSlice * 2);
    reference.push_back(report_fingerprint(m.report()));
  }

  const std::string dir = make_temp_dir();
  mem::PageStore::Config sc;
  sc.disk_dir = dir;
  auto store = std::make_unique<mem::PageStore>(sc);
  const auto stored = core::dehydrate_snapshot(snap, *store);
  if (!stored) {
    std::fprintf(stderr, "%s: snapshot would not dehydrate\n", w.name.c_str());
    std::filesystem::remove_all(dir);
    return false;
  }
  store->flush();

  bool ok = true;
  for (const char* tier : {"hot", "disk"}) {
    if (std::string(tier) == "disk") {
      store = std::make_unique<mem::PageStore>(sc);  // restart: pages cold
    }
    auto hydrated = core::hydrate_snapshot(*stored, *store);
    if (!hydrated) {
      std::fprintf(stderr, "%s: hydrate from %s tier failed\n",
                   w.name.c_str(), tier);
      ok = false;
      continue;
    }
    if (!pages_identical(snap.memory, hydrated->memory)) {
      std::fprintf(stderr, "%s: %s-tier pages differ from the original\n",
                   w.name.c_str(), tier);
      ok = false;
    }
    for (size_t e = 0; e < std::size(kAllEngines); ++e) {
      MachineConfig cfg;
      cfg.engine = kAllEngines[e];
      Machine m(cfg);
      m.restore(*hydrated);
      m.run_for(kSlice * 2);
      if (report_fingerprint(m.report()) != reference[e]) {
        std::fprintf(stderr, "%s: %s-tier restore diverges on %s\n",
                     w.name.c_str(), tier,
                     cpu::to_string(kAllEngines[e]));
        ok = false;
      }
    }
  }
  if (store->stats().disk_reads == 0) {
    std::fprintf(stderr, "%s: the restarted store read no page files\n",
                 w.name.c_str());
    ok = false;
  }
  store.reset();
  std::filesystem::remove_all(dir);
  return ok;
}

int run_check() {
  bool ok = true;
  for (const auto& w : make_spec_workloads(1)) {
    {
      const auto machine = prepare_spec_workload(w, {});
      const MachineSnapshot snap = machine->snapshot();
      ok = check_restore_identity(w, snap) && ok;
    }
    ok = check_store_identity(w) && ok;
  }
  // Coverage campaign under every engine x memory-mode combination; all
  // four verdict vectors must agree with the first.
  std::vector<campaign::JobResult> reference;
  run_campaign("coverage", /*no_cow=*/false, cpu::Engine::kStep, reference);
  for (const cpu::Engine engine :
       {cpu::Engine::kStep, cpu::Engine::kSuperblock}) {
    for (const bool no_cow : {false, true}) {
      std::vector<campaign::JobResult> results;
      run_campaign("coverage", no_cow, engine, results);
      const std::vector<std::string> diffs =
          campaign::diff_verdicts(results, reference);
      if (!diffs.empty()) {
        std::fprintf(stderr, "coverage (%s, %s) diverges:\n",
                     cpu::to_string(engine),
                     no_cow ? "full-copy" : "cow");
        for (const std::string& d : diffs) {
          std::fprintf(stderr, "  %s\n", d.c_str());
        }
        ok = false;
      }
    }
  }
  // Store-backed coverage legs on all three engines, with an aggressive
  // one-snapshot hot budget (every shared boot rehydrates from store
  // pages) and a self-contained disk tier; verdicts must still match the
  // plain step reference exactly.
  const std::string store_dir = make_temp_dir();
  for (const cpu::Engine engine : kAllEngines) {
    campaign::StoreOptions sopts;
    sopts.enabled = true;
    sopts.hot_snapshots = 1;
    sopts.disk_dir = store_dir;
    std::vector<campaign::JobResult> results;
    campaign::SnapshotCache::Stats cs;
    run_campaign("coverage", /*no_cow=*/false, engine, results, &sopts, &cs);
    const std::vector<std::string> diffs =
        campaign::diff_verdicts(results, reference);
    if (!diffs.empty()) {
      std::fprintf(stderr, "coverage (%s, store-backed) diverges:\n",
                   cpu::to_string(engine));
      for (const std::string& d : diffs) {
        std::fprintf(stderr, "  %s\n", d.c_str());
      }
      ok = false;
    }
    if (!cs.store_enabled) {
      std::fprintf(stderr, "store-backed coverage leg ran without a store\n");
      ok = false;
    }
  }
  std::filesystem::remove_all(store_dir);
  std::printf("check: COW and full-copy memory are observably identical: %s\n",
              ok ? "yes" : "NO");
  std::printf("check: store-backed restores byte- and verdict-identical on "
              "step, superblock and jit: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--check") return run_check();

  const int scale = argc > 1 ? std::atoi(argv[1]) : 1;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_snapshot.json";
  constexpr int kReps = 3;

  std::printf(
      "== Snapshot restore throughput: COW delta vs full copy (scale %d) "
      "==\n\n",
      scale);
  std::printf("%-8s %7s %7s %14s %14s %8s\n", "program", "pages", "dirty",
              "full rest/s", "cow rest/s", "speedup");

  std::string json = "{\n  \"scale\": " + std::to_string(scale) +
                     ",\n  \"workloads\": [\n";
  double geomean = 1.0;
  int rows = 0;

  for (const auto& w : make_spec_workloads(scale)) {
    const auto machine = prepare_spec_workload(w, {});
    const MachineSnapshot snap = machine->snapshot();
    const RestoreCell full = measure_restores(snap, /*no_cow=*/true, kReps);
    const RestoreCell cow = measure_restores(snap, /*no_cow=*/false, kReps);
    const double speedup =
        full.restores_per_s > 0 ? cow.restores_per_s / full.restores_per_s
                                : 0.0;
    geomean *= speedup;
    ++rows;
    std::printf("%-8s %7llu %7llu %14.0f %14.0f %7.2fx\n", w.name.c_str(),
                static_cast<unsigned long long>(cow.mapped_pages),
                static_cast<unsigned long long>(cow.dirty_pages),
                full.restores_per_s, cow.restores_per_s, speedup);

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"mapped_pages\": %llu, "
                  "\"dirty_pages\": %llu, \"full_restores_per_s\": %.0f, "
                  "\"cow_restores_per_s\": %.0f, \"speedup\": %.3f},\n",
                  w.name.c_str(),
                  static_cast<unsigned long long>(cow.mapped_pages),
                  static_cast<unsigned long long>(cow.dirty_pages),
                  full.restores_per_s, cow.restores_per_s, speedup);
    json += buf;
  }

  const double gm = rows > 0 ? std::pow(geomean, 1.0 / rows) : 0.0;
  std::printf("\ngeomean restore speedup: %.2fx\n", gm);
  if (json.size() >= 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);  // trailing comma
  }
  json += "  ],\n  \"geomean_restore_speedup\": " + std::to_string(gm);

  // Part 2: the ablation campaign end to end, both modes, verdicts diffed.
  std::vector<campaign::JobResult> cow_results, full_results;
  double cow_s = 1e300, full_s = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    cow_s = std::min(cow_s, run_campaign("ablation", false, {}, cow_results));
    full_s =
        std::min(full_s, run_campaign("ablation", true, {}, full_results));
  }
  const std::vector<std::string> diffs =
      campaign::diff_verdicts(cow_results, full_results);
  if (!diffs.empty()) {
    std::fprintf(stderr, "ablation verdicts differ between COW and "
                         "full-copy memory:\n");
    for (const std::string& d : diffs) {
      std::fprintf(stderr, "  %s\n", d.c_str());
    }
    return 1;
  }
  const double campaign_speedup = cow_s > 0 ? full_s / cow_s : 0.0;
  std::printf("ablation campaign: full %.2fs vs cow %.2fs (%.2fx), "
              "%zu verdicts identical\n",
              full_s, cow_s, campaign_speedup, cow_results.size());

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\n  \"campaign\": {\"name\": \"ablation\", "
                "\"full_s\": %.3f, \"cow_s\": %.3f, \"speedup\": %.3f}",
                full_s, cow_s, campaign_speedup);
  json += buf;

  // Part 3: the same ablation campaign, store-backed.  One live cache so
  // the store survives the run: the key set (shared boots x policy
  // variants) interns into it, and afterwards the canonical page set is
  // run through the disk codec to measure its compression.
  campaign::StoreOptions sopts;
  sopts.enabled = true;
  campaign::SnapshotCache scache(sopts);
  const std::vector<campaign::Job> store_jobs = campaign::make_jobs(
      "ablation", scache, /*spec_scale=*/1, /*elide=*/false, {});
  std::vector<campaign::JobResult> store_results;
  double store_s = 0.0;
  {
    campaign::Executor::Config config;
    config.workers = 4;
    campaign::Executor executor(config);
    const auto t0 = Clock::now();
    store_results = executor.run(store_jobs);
    store_s = seconds_since(t0);
  }
  const std::vector<std::string> sdiffs =
      campaign::diff_verdicts(store_results, cow_results);
  if (!sdiffs.empty()) {
    std::fprintf(stderr,
                 "ablation verdicts differ between plain and store-backed "
                 "caches:\n");
    for (const std::string& d : sdiffs) {
      std::fprintf(stderr, "  %s\n", d.c_str());
    }
    return 1;
  }
  const campaign::SnapshotCache::Stats cs = scache.stats();
  const double dedup =
      cs.store.canonical_pages > 0
          ? static_cast<double>(cs.store.interned_refs) /
                static_cast<double>(cs.store.canonical_pages)
          : 0.0;
  const double bytes_per_snapshot =
      cs.builds > 0 ? static_cast<double>(cs.store.canonical_pages) *
                          mem::PageStore::kPlaneBytes / cs.builds
                    : 0.0;
  // Every snapshot's blocks are canonical store blocks (interned on build,
  // fetched on rehydration), so the distinct blocks across the campaign's
  // snapshots are the canonical page set.
  std::set<const mem::TaintedMemory::Page*> canonical;
  uint64_t uncompressed_bytes = 0, compressed_bytes = 0;
  for (const campaign::Job& job : store_jobs) {
    for (const auto& [idx, block] : job.get_snapshot()->memory.page_blocks()) {
      if (!canonical.insert(block.get()).second) continue;
      uncompressed_bytes += mem::PageStore::kPlaneBytes;
      compressed_bytes += mem::PageStore::compress_page(*block).size();
    }
  }
  if (canonical.size() != cs.store.canonical_pages) {
    std::fprintf(stderr, "snapshots hold %zu distinct blocks, store has %llu "
                         "canonical pages\n",
                 canonical.size(),
                 static_cast<unsigned long long>(cs.store.canonical_pages));
    return 1;
  }
  const double compression =
      compressed_bytes > 0
          ? static_cast<double>(uncompressed_bytes) / compressed_bytes
          : 0.0;
  std::printf(
      "ablation store-backed: %.2fs, %llu refs -> %llu canonical pages "
      "(%.2fx dedup), %.1f KiB/snapshot, %.2fx RLE compression\n",
      store_s, static_cast<unsigned long long>(cs.store.interned_refs),
      static_cast<unsigned long long>(cs.store.canonical_pages), dedup,
      bytes_per_snapshot / 1024.0, compression);

  // Per-tier rehydration rates on one workload snapshot: hot store pages,
  // then page files, each disk hydrate in a freshly restarted store
  // (self-contained temp dir; only the hydrate itself is timed).
  double tier_rate[2] = {0.0, 0.0};
  {
    const auto workloads = make_spec_workloads(scale);
    MachineSnapshot tsnap =
        prepare_spec_workload(workloads.front(), {})->snapshot();
    const std::string tier_dir = make_temp_dir();
    mem::PageStore::Config pc;
    pc.disk_dir = tier_dir;
    auto tstore = std::make_unique<mem::PageStore>(pc);
    const auto stored = core::dehydrate_snapshot(tsnap, *tstore);
    tstore->flush();
    if (stored) {
      const int kHydrates = 25 * scale;
      for (int tier = 0; tier < 2; ++tier) {
        double s = 0.0;
        for (int i = 0; i < kHydrates; ++i) {
          if (tier == 1) tstore = std::make_unique<mem::PageStore>(pc);
          const auto t0 = Clock::now();
          const auto hydrated = core::hydrate_snapshot(*stored, *tstore);
          s += seconds_since(t0);
          if (!hydrated) {
            std::fprintf(stderr, "tier %d hydrate failed\n", tier);
            return 1;
          }
        }
        tier_rate[tier] = s > 0 ? kHydrates / s : 0.0;
      }
    }
    tstore.reset();
    std::filesystem::remove_all(tier_dir);
  }
  std::printf("store hydrate rates (%s): hot %.0f/s, disk %.0f/s\n",
              make_spec_workloads(scale).front().name.c_str(), tier_rate[0],
              tier_rate[1]);

  char sbuf[768];
  std::snprintf(
      sbuf, sizeof(sbuf),
      ",\n  \"store\": {\"campaign_s\": %.3f, \"canonical_pages\": %llu, "
      "\"interned_refs\": %llu, \"dedup_ratio\": %.3f, "
      "\"bytes_per_snapshot\": %.0f, \"uncompressed_bytes\": %llu, "
      "\"compressed_bytes\": %llu, \"compression_ratio\": %.3f, "
      "\"hydrate_hot_per_s\": %.0f, \"hydrate_disk_per_s\": %.0f}\n}\n",
      store_s, static_cast<unsigned long long>(cs.store.canonical_pages),
      static_cast<unsigned long long>(cs.store.interned_refs), dedup,
      bytes_per_snapshot, static_cast<unsigned long long>(uncompressed_bytes),
      static_cast<unsigned long long>(compressed_bytes), compression,
      tier_rate[0], tier_rate[1]);
  json += sbuf;
  std::ofstream out(json_path, std::ios::binary);
  out << json;
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
