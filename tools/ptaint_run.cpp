// ptaint-run — command-line driver for the simulator.
//
//   ptaint-run [options] program.s [more.s ...]
//
// Assembles the given sources (linked with the guest runtime unless
// --no-runtime), loads them into a Machine, wires up inputs, runs, and
// reports.  Exit codes are distinct per outcome so scripts can branch on
// them without parsing stderr:
//   0  guest ran to completion and exited 0
//   1  guest ran to completion but exited nonzero
//   2  security alert (pointer-taintedness detection fired)
//   3  guest fault or exhausted instruction budget
//   4  usage or assembly error (the guest never ran)
//
// Options: `ptaint-run --help` prints the list, kept next to its parser.
//
// Static check-elision is ON by default: the src/analysis pass proves most
// dereference sites can never carry a tainted address and the interpreter
// skips those checks.  Detection verdicts are identical either way (the
// cli_elide test pins this); --no-elide keeps the dynamic-only
// configuration reproducible.
//
// The execution engine defaults to the superblock translator (DESIGN.md §9),
// which is verdict- and statistics-identical to the reference step
// interpreter; --engine step (or PTAINT_ENGINE=step) pins the reference
// path.  --engine jit (DESIGN.md §12) compiles hot superblocks to host
// x86-64 on top of the same translation cache; on non-x86-64 hosts it
// falls back to superblock with a warning.  Trace/profile/pipeline runs
// use the step path regardless, since they subscribe to per-retire events.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/machine.hpp"
#include "cpu/env.hpp"
#include "guest/runtime.hpp"

using namespace ptaint;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "ptaint-run: cannot open " << path << "\n";
    std::exit(4);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

[[noreturn]] void usage() {
  std::cerr << "usage: ptaint-run [options] program.s [more.s ...]\n"
               "run ptaint-run --help for the option list\n";
  std::exit(4);
}

}  // namespace

int main(int argc, char** argv) {
  if (!cpu::check_env("ptaint-run")) return 4;
  core::MachineConfig cfg;
  cfg.static_elision = true;  // proven-clean sites skip the dynamic check
  std::vector<asmgen::Source> sources;
  std::string stdin_data;
  std::vector<std::pair<std::string, std::string>> vfs_files;
  std::vector<std::vector<std::string>> sessions;
  std::vector<std::pair<std::string, uint32_t>> protects;
  bool with_runtime = true;
  bool quiet = false;
  bool want_profile = false;
  bool listing_only = false;
  bool engine_stats = false;
  size_t trace_n = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    auto number = [&](std::string_view text, uint64_t max) {
      const auto n = cpu::parse_number(text, max);
      if (!n) usage();
      return *n;
    };
    if (arg == "--help") {
      std::printf("%s", R"(ptaint-run: pointer-taintedness detection simulator
usage: ptaint-run [options] program.s [more.s ...]
  --stdin TEXT | --stdin-file PATH
  --vfs GUEST=HOST      install VFS file
  --session CHUNKS      '|'-separated recv chunks (repeatable)
  --arg V               guest argv entry (repeatable)
  --policy MODE         paper | control | off
  --no-compare-untaint  ablation: keep validated data tainted
  --per-word            word-granular taint
  --nx                  NX baseline: fetch outside .text alerts
  --aslr BITS / --aslr-seed S   stack randomization baseline
  --protect SYM:LEN     never-tainted annotation on a data symbol
  --trace N / --profile / --pipeline
  --listing             print the assembled text segment and exit
  --no-elide            disable static check-elision (check every site)
  --engine E            step | superblock (default) | jit; also PTAINT_ENGINE
  --engine-stats        block cache, fusion, JIT and clean-page counters
  --max-instr N / --quiet
exit codes: 0 clean exit, 1 nonzero guest exit, 2 security alert,
            3 fault/instruction budget, 4 usage or assembly error
)");
      return 0;
    } else if (arg == "--stdin") {
      stdin_data = value();
    } else if (arg == "--stdin-file") {
      stdin_data = read_file(value());
    } else if (arg == "--vfs") {
      const std::string spec = value();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) usage();
      vfs_files.emplace_back(spec.substr(0, eq),
                             read_file(spec.substr(eq + 1)));
    } else if (arg == "--session") {
      sessions.push_back(split(value(), '|'));
    } else if (arg == "--arg") {
      cfg.argv.push_back(value());
    } else if (arg == "--policy") {
      const std::string mode = value();
      if (mode == "paper") {
        cfg.policy.mode = cpu::DetectionMode::kPointerTaint;
      } else if (mode == "control") {
        cfg.policy.mode = cpu::DetectionMode::kControlDataOnly;
      } else if (mode == "off") {
        cfg.policy.mode = cpu::DetectionMode::kOff;
      } else {
        usage();
      }
    } else if (arg == "--no-compare-untaint") {
      cfg.policy.compare_untaints = false;
    } else if (arg == "--per-word") {
      cfg.policy.per_word_taint = true;
    } else if (arg == "--nx") {
      cfg.policy.nx_protection = true;
    } else if (arg == "--aslr") {
      cfg.aslr_entropy_bits = static_cast<int>(number(value(), INT_MAX));
    } else if (arg == "--aslr-seed") {
      cfg.aslr_seed = static_cast<uint32_t>(number(value(), UINT32_MAX));
    } else if (arg == "--protect") {
      const std::string spec = value();
      const size_t colon = spec.find(':');
      if (colon == std::string::npos) usage();
      protects.emplace_back(
          spec.substr(0, colon),
          static_cast<uint32_t>(
              number(std::string_view(spec).substr(colon + 1), UINT32_MAX)));
    } else if (arg == "--trace") {
      trace_n = number(value(), SIZE_MAX);
    } else if (arg == "--profile") {
      want_profile = true;
    } else if (arg == "--pipeline") {
      cfg.pipeline_model = true;
    } else if (arg == "--max-instr") {
      cfg.max_instructions = number(value(), UINT64_MAX);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--listing") {
      listing_only = true;
    } else if (arg == "--engine") {
      cfg.engine = cpu::parse_engine(value());
      if (!cfg.engine) usage();
    } else if (arg == "--engine-stats") {
      engine_stats = true;
    } else if (arg == "--no-elide") {
      cfg.static_elision = false;
    } else if (arg == "--no-runtime") {
      with_runtime = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ptaint-run: unknown option " << arg << "\n";
      usage();
    } else {
      sources.push_back({arg, read_file(arg)});
    }
  }
  if (sources.empty()) usage();

  std::vector<asmgen::Source> units;
  if (with_runtime) units = guest::runtime();
  for (auto& s : sources) units.push_back(std::move(s));

  core::Machine machine(cfg);
  try {
    machine.load_sources(units);
  } catch (const asmgen::AssemblyError& e) {
    std::cerr << "assembly failed:\n" << e.what();
    return 4;
  }
  if (listing_only) {
    std::fputs(asmgen::listing(machine.program()).c_str(), stdout);
    return 0;
  }
  if (trace_n > 0) machine.enable_trace(trace_n);
  if (want_profile) machine.enable_profile();
  machine.os().set_stdin(stdin_data);
  for (auto& [guest, contents] : vfs_files) {
    machine.os().vfs().install(guest, contents);
  }
  for (auto& chunks : sessions) machine.os().net().add_session(chunks);
  for (auto& [sym, len] : protects) {
    try {
      machine.protect_symbol(sym, len);
    } catch (const std::out_of_range&) {
      std::cerr << "ptaint-run: unknown symbol '" << sym << "'\n";
      return 4;
    }
  }

  core::RunReport report = machine.run();

  std::fputs(report.stdout_text.c_str(), stdout);
  if (!quiet) {
    std::fprintf(stderr, "---\n");
    switch (report.stop) {
      case cpu::StopReason::kExit:
        std::fprintf(stderr, "exit %d after %llu instructions\n",
                     report.exit_status,
                     static_cast<unsigned long long>(
                         report.cpu_stats.instructions));
        break;
      case cpu::StopReason::kSecurityAlert:
        std::fprintf(stderr, "SECURITY ALERT: %s\n",
                     report.alert_line().c_str());
        break;
      case cpu::StopReason::kFault:
        std::fprintf(stderr, "FAULT: %s\n", report.fault.c_str());
        break;
      default:
        std::fprintf(stderr, "stopped (instruction budget exhausted?)\n");
        break;
    }
    for (size_t i = 0; i < report.net_transcripts.size(); ++i) {
      std::fprintf(stderr, "session %zu transcript:\n%s\n", i,
                   report.net_transcripts[i].c_str());
    }
    if (trace_n > 0) {
      std::fprintf(stderr, "trace tail:\n%s", report.trace_tail.c_str());
    }
    if (want_profile) {
      std::fprintf(stderr, "%s", machine.profiler()->format().c_str());
    }
    if (report.pipeline_stats) {
      const auto& p = *report.pipeline_stats;
      std::fprintf(stderr,
                   "pipeline: %llu cycles, IPC %.3f, load-use stalls %llu, "
                   "flush cycles %llu\n",
                   static_cast<unsigned long long>(p.cycles), p.ipc(),
                   static_cast<unsigned long long>(p.load_use_stalls),
                   static_cast<unsigned long long>(p.branch_flush_cycles));
    }
  }
  if (engine_stats) {
    const cpu::SuperblockStats& sb = machine.cpu().superblock_stats();
    const mem::TaintedMemory::QueryStats& q = machine.memory().query_stats();
    const auto ull = [](uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    const cpu::Engine eng = machine.cpu().engine();
    std::fprintf(stderr, "engine: %s\n", cpu::to_string(eng));
    std::fprintf(stderr,
                 "blocks: %llu cached (%llu translated, %llu invalidated), "
                 "avg %.1f insts/block\n",
                 ull(sb.blocks), ull(sb.blocks_translated),
                 ull(sb.invalidations),
                 sb.blocks ? static_cast<double>(sb.guest_instructions) /
                                 static_cast<double>(sb.blocks)
                           : 0.0);
    std::fprintf(
        stderr, "fusion: %llu fused pairs, %.1f%% of cached instructions\n",
        ull(sb.fused_pairs),
        sb.guest_instructions
            ? 100.0 * 2.0 * static_cast<double>(sb.fused_pairs) /
                  static_cast<double>(sb.guest_instructions)
            : 0.0);
    std::fprintf(stderr,
                 "retired: %llu in superblocks, %llu via step fallback "
                 "(%llu block entries)\n",
                 ull(sb.block_retired), ull(sb.step_retired),
                 ull(sb.blocks_entered));
    if (eng == cpu::Engine::kJit) {
      const cpu::JitStats& js = machine.cpu().jit_stats();
      std::fprintf(stderr,
                   "jit: %llu blocks compiled (%llu code bytes), "
                   "%llu host entries, %llu retired in host code\n",
                   ull(js.blocks_compiled), ull(js.code_bytes),
                   ull(js.host_entries), ull(js.host_retired));
      std::fprintf(stderr,
                   "jit bailouts: %llu syscall, %llu break, %llu arena-full; "
                   "%llu compiled blocks invalidated\n",
                   ull(js.bailout_syscall), ull(js.bailout_break),
                   ull(js.bailout_arena_full), ull(js.invalidations));
    }
    std::fprintf(
        stderr, "clean-page loads: %llu of %llu (%.1f%% hit rate)\n",
        ull(q.clean_page_loads), ull(q.loads),
        q.loads ? 100.0 * static_cast<double>(q.clean_page_loads) /
                      static_cast<double>(q.loads)
                : 0.0);
  }
  if (report.stop == cpu::StopReason::kSecurityAlert) return 2;
  if (report.stop != cpu::StopReason::kExit) return 3;  // fault / budget
  return report.exit_status == 0 ? 0 : 1;
}
