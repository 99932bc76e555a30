// Cross-engine identity: step vs superblock vs jit.
//
// The superblock and jit engines are pure performance substitutions:
// translated blocks (interpreted or compiled to host code) must leave the
// machine in exactly the state the step interpreter would — registers,
// taint bits and address-provenance planes, stop reason, alerts, and every
// CpuStats / TaintUnit counter.  These tests pin that contract three ways
// on the attack corpus, on self-modifying code that rewrites a block while
// it is executing (which for the jit also invalidates compiled host code),
// and across snapshot/restore boundaries that fall between (and inside)
// superblocks.  On hosts that cannot run emitted code the "jit" rows
// silently exercise the superblock fallback, which must be just as
// identical.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/attack.hpp"
#include "core/machine.hpp"
#include "core/spec_workloads.hpp"
#include "cpu/env.hpp"
#include "cpu/jit/jit_engine.hpp"
#include "guest/apps/apps.hpp"
#include "guest/runtime.hpp"
#include "isa/isa.hpp"

namespace ptaint::core {
namespace {

/// A machine config pinned to the named engine.
MachineConfig on(const char* engine) {
  MachineConfig cfg;
  cfg.engine = cpu::parse_engine(engine);
  return cfg;
}

/// Every execution engine, reference interpreter first.
constexpr const char* kAllEngines[] = {"step", "superblock", "jit"};
constexpr int kNumEngines = 3;

/// Full architectural fingerprint: run report, every stats counter, and the
/// complete register file with taint bits.  Two engines agreeing on this
/// string agree on everything a campaign (or a guest) can observe.
std::string fingerprint(Machine& m, const RunReport& r) {
  std::ostringstream ss;
  ss << "stop=" << static_cast<int>(r.stop) << " exit=" << r.exit_status
     << " alert=" << (r.alert ? r.alert_line() : "-")
     << " alert_fn=" << r.alert_function << " fault=" << r.fault
     << " stdout=[" << r.stdout_text << "] stderr=[" << r.stderr_text << "]";
  const cpu::CpuStats& c = r.cpu_stats;
  ss << " inst=" << c.instructions << " alu=" << c.alu_ops
     << " loads=" << c.loads << " stores=" << c.stores
     << " br=" << c.branches << " taken=" << c.taken_branches
     << " jumps=" << c.jumps << " sys=" << c.syscalls
     << " tload=" << c.tainted_loads << " tstore=" << c.tainted_stores
     << " cuntaint=" << c.compare_untaints;
  const cpu::TaintUnit::Stats& t = r.taint_stats;
  ss << " evals=" << t.evaluations << " tevals=" << t.tainted_evaluations
     << " tu_cmp=" << t.compare_untaints << " tu_and=" << t.and_zero_untaints
     << " tu_xor=" << t.xor_self_untaints;
  ss << " tmem=" << r.tainted_memory_bytes;
  ss << " pc=" << std::hex << m.cpu().pc();
  for (int i = 0; i < 32; ++i) {
    const mem::TaintedWord w =
        m.cpu().regs().get(static_cast<uint8_t>(i));
    ss << " r" << std::dec << i << "=" << std::hex << w.value << "/"
       << static_cast<int>(w.taint);
  }
  return ss.str();
}

std::string run_scenario(AttackId id, const char* engine) {
  auto scenario = make_scenario(id);
  auto machine = scenario->prepare_attack({}, cpu::parse_engine(engine));
  RunReport r = machine->run();
  return fingerprint(*machine, r);
}

TEST(Superblock, AttackCorpusIdenticalAcrossAllEngines) {
  // Every scenario in the corpus, detected and escaped alike, must end in
  // the same architectural state under all three engines.
  for (const auto& scenario : make_attack_corpus()) {
    const std::string step = run_scenario(scenario->id(), "step");
    for (int e = 1; e < kNumEngines; ++e) {
      EXPECT_EQ(step, run_scenario(scenario->id(), kAllEngines[e]))
          << kAllEngines[e] << " divergence in " << scenario->name();
    }
  }
}

TEST(Superblock, BenignSpecSurrogateIdenticalAcrossAllEngines) {
  for (const SpecWorkload& w : make_spec_workloads(1)) {
    std::string prints[kNumEngines];
    for (int e = 0; e < kNumEngines; ++e) {
      auto machine =
          prepare_spec_workload(w, {}, cpu::parse_engine(kAllEngines[e]));
      RunReport r = machine->run();
      prints[e] = fingerprint(*machine, r);
    }
    for (int e = 1; e < kNumEngines; ++e) {
      EXPECT_EQ(prints[0], prints[e])
          << kAllEngines[e] << " divergence in spec workload " << w.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Address-provenance parity: the leak->overwrite scenarios exercise the
// second taint direction (stack/heap/text planes seeded at $sp, SYS_BRK and
// jal, checked at kernel output).  Both engines must agree on the planes
// byte-for-byte — in every register, across the guest's address space, and
// in the policy-gated leak alert itself.

/// FNV-1a over the address-plane nibbles of every mapped word in [lo, hi).
uint64_t addr_plane_hash(Machine& m, uint32_t lo, uint32_t hi) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t a = lo; a < hi; a += 4) {
    const mem::TaintBits planes = m.memory().load_word(a).taint & mem::kAddrMask;
    if (!planes) continue;
    h ^= (static_cast<uint64_t>(a) << 16) | planes;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Superblock, LeakScenariosIdenticalUnderLeakDetection) {
  cpu::TaintPolicy leak;  // paper rules + the address-leak direction
  leak.leak_detection = true;
  for (AttackId id : {AttackId::kLeakTelemetry, AttackId::kLeakSession,
                      AttackId::kLeakBanner}) {
    std::string prints[kNumEngines];
    for (int e = 0; e < kNumEngines; ++e) {
      auto machine = make_scenario(id)->prepare_attack(
          leak, cpu::parse_engine(kAllEngines[e]));
      RunReport r = machine->run();
      ASSERT_TRUE(r.detected()) << kAllEngines[e];
      EXPECT_EQ(r.alert->kind, cpu::AlertKind::kAddressLeak) << kAllEngines[e];
      std::ostringstream ss;
      ss << fingerprint(*machine, r) << " aph_data="
         << addr_plane_hash(*machine, 0x10000000u, 0x10020000u)
         << " aph_stack="
         << addr_plane_hash(*machine, 0x7ffe0000u, 0x80000000u);
      prints[e] = ss.str();
    }
    for (int e = 1; e < kNumEngines; ++e) {
      EXPECT_EQ(prints[0], prints[e])
          << kAllEngines[e] << " divergence in leak scenario "
          << static_cast<int>(id);
    }
  }
}

TEST(Superblock, BenignLeakAppSessionsIdenticalWithPlanes) {
  // The benign twins run the same plane propagation without ever reaching
  // the alert; the full plane image must still match across engines.
  struct Row {
    asmgen::Source (*app)();
    std::vector<std::string> session;
  };
  const Row rows[] = {
      {&guest::apps::leak_telemetry, {"STAT", "QUIT"}},
      {&guest::apps::leak_session, {"HELO", "QUIT"}},
      {&guest::apps::leak_banner, {"hello from client", "status check"}},
  };
  for (const Row& row : rows) {
    std::string prints[kNumEngines];
    for (int e = 0; e < kNumEngines; ++e) {
      MachineConfig cfg = on(kAllEngines[e]);
      cfg.policy.leak_detection = true;
      Machine m(cfg);
      m.load_sources(guest::link_with_runtime(row.app()));
      m.os().net().add_session(row.session);
      RunReport r = m.run();
      EXPECT_TRUE(r.exited_cleanly()) << kAllEngines[e] << ": " << r.fault;
      std::ostringstream ss;
      ss << fingerprint(m, r) << " aph_data="
         << addr_plane_hash(m, 0x10000000u, 0x10020000u) << " aph_stack="
         << addr_plane_hash(m, 0x7ffe0000u, 0x80000000u);
      prints[e] = ss.str();
    }
    for (int e = 1; e < kNumEngines; ++e) {
      EXPECT_EQ(prints[0], prints[e])
          << kAllEngines[e] << " divergence in benign session";
    }
  }
}

// ---------------------------------------------------------------------------
// Self-modifying code: a store that rewrites an instruction *later in the
// currently-executing superblock* must retire the block immediately; the
// patched instruction executes with its new semantics, exactly as the step
// interpreter (whose decode-cache invalidation is per-instruction) behaves.

std::string smc_same_block_source() {
  // Patch `site` (li $a0, 0 == addiu $a0, $zero, 0) into addiu $a0, $zero,
  // 42 two instructions before it executes, in the same straight-line run.
  isa::Instruction patched;
  patched.op = isa::Op::kAddiu;
  patched.rt = isa::kA0;
  patched.rs = 0;
  patched.imm = 42;
  return R"(
      .text
  _start:
      la $t0, site
      li $t1, )" + std::to_string(isa::encode(patched)) + R"(
      sw $t1, 0($t0)
  site:
      li $a0, 0
      li $v0, 1
      syscall
)";
}

TEST(Superblock, SmcPatchInsideExecutingBlockTakesEffect) {
  for (const char* engine : kAllEngines) {
    Machine m(on(engine));
    m.load_source(smc_same_block_source());
    RunReport r = m.run();
    EXPECT_EQ(r.stop, cpu::StopReason::kExit) << engine;
    EXPECT_EQ(r.exit_status, 42) << engine;  // stale block would exit 0
  }
}

TEST(Superblock, SmcInvalidatesHotSuperblockMidLoop) {
  // The loop body executes 50 times (hot, cached), then the guest rewrites
  // its own increment from +1 to +2 for the remaining 50 iterations.  A
  // stale cached block would keep adding 1 and exit with 100, not 150.
  isa::Instruction add2;
  add2.op = isa::Op::kAddiu;
  add2.rt = isa::kS0;
  add2.rs = isa::kS0;
  add2.imm = 2;
  const std::string source = R"(
      .text
  _start:
      li $s0, 0          # accumulator
      li $t0, 0          # iteration counter
      li $t4, 50         # patch trigger
      li $t5, 100        # loop bound
      la $t2, site
      li $t3, )" + std::to_string(isa::encode(add2)) + R"(
  loop:
  site:
      addiu $s0, $s0, 1
      addiu $t0, $t0, 1
      bne $t0, $t4, skip
      sw $t3, 0($t2)     # iteration 50: patch the increment
  skip:
      bne $t0, $t5, loop
      addu $a0, $s0, $zero
      li $v0, 1
      syscall
)";
  std::string prints[kNumEngines];
  for (int e = 0; e < kNumEngines; ++e) {
    Machine m(on(kAllEngines[e]));
    m.load_source(source);
    RunReport r = m.run();
    EXPECT_EQ(r.stop, cpu::StopReason::kExit) << kAllEngines[e];
    EXPECT_EQ(r.exit_status, 150) << kAllEngines[e];
    // Under the jit the loop is hot enough to compile before the patch, so
    // the store must also retire the compiled host code.
    prints[e] = fingerprint(m, r);
  }
  for (int e = 1; e < kNumEngines; ++e) EXPECT_EQ(prints[0], prints[e]);
}

// ---------------------------------------------------------------------------
// Snapshot/restore interacting with the block cache: restoring flushes
// translations (the restored image may differ), and a snapshot taken between
// run_for() slices — whose boundaries fall inside superblocks — must resume
// to the same final state as an uninterrupted run and as the step engine.

TEST(Superblock, SnapshotRestoreBetweenSuperblocksMatchesUninterrupted) {
  auto scenario = make_scenario(AttackId::kExp1Stack);

  // Uninterrupted superblock run.
  auto whole = scenario->prepare_attack({}, cpu::Engine::kSuperblock);
  RunReport rw = whole->run();

  // Sliced run: odd run_for() budgets force stops inside superblocks; a
  // snapshot taken at one of those points restores into a fresh machine.
  auto sliced = scenario->prepare_attack({}, cpu::Engine::kSuperblock);
  sliced->run_for(37);
  sliced->run_for(101);
  MachineSnapshot snap = sliced->snapshot();

  Machine resumed(on("superblock"));
  resumed.restore(snap);
  RunReport rr = resumed.run();
  EXPECT_EQ(fingerprint(*whole, rw), fingerprint(resumed, rr));

  // And the step and jit engines agree with all of the above.
  const std::string step = run_scenario(AttackId::kExp1Stack, "step");
  EXPECT_EQ(step, fingerprint(*whole, rw));
  EXPECT_EQ(step, run_scenario(AttackId::kExp1Stack, "jit"));
}

TEST(Superblock, JitSnapshotRestoreBetweenSlicesMatchesUninterrupted) {
  // Same shape as above, but the sliced run executes under the jit: the
  // snapshot boundary falls while compiled host code is resident, and the
  // restore path must flush translations and host code together.
  auto scenario = make_scenario(AttackId::kExp1Stack);

  auto whole = scenario->prepare_attack({}, cpu::Engine::kJit);
  RunReport rw = whole->run();

  auto sliced = scenario->prepare_attack({}, cpu::Engine::kJit);
  sliced->run_for(37);
  sliced->run_for(2000);  // deep enough that hot blocks compiled
  MachineSnapshot snap = sliced->snapshot();

  Machine resumed(on("jit"));
  resumed.restore(snap);
  RunReport rr = resumed.run();
  EXPECT_EQ(fingerprint(*whole, rw), fingerprint(resumed, rr));
}

TEST(Superblock, RunForBudgetIsExactMidBlock) {
  // advance(n) must retire exactly n instructions even when n lands in the
  // middle of a translated block — the campaign executor debits budgets
  // unconditionally, so over-retirement would skew every time slice.
  const std::string source = R"(
      .text
  _start:
      li $t0, 0
  loop:
      addiu $t0, $t0, 1
      addiu $t1, $t0, 7
      xor $t2, $t1, $t0
      j loop
)";
  for (const char* engine : kAllEngines) {
    Machine m(on(engine));
    m.load_source(source);
    m.run_for(1000);
    EXPECT_EQ(m.report().cpu_stats.instructions, 1000u) << engine;
    m.run_for(1);
    EXPECT_EQ(m.report().cpu_stats.instructions, 1001u) << engine;
  }
}

// ---------------------------------------------------------------------------
// Slow exits from compiled code.  Each program runs a loop long enough for
// the jit to compile its body (heat accrues once per trampoline entry, and
// an interpreted slice runs up to 1024 guest instructions), then takes one
// slow exit on the last iteration.  The body sees the iteration's word
// tab[i] in $t1: `fill` leaves the value of every entry but the last in
// $t5, `last` leaves the last entry's.  $s2 points at a scratch cell and the
// guest exits with $s7.

constexpr int kHotIters = 4000;

std::string hot_loop_source(const std::string& fill, const std::string& last,
                            const std::string& body) {
  return R"(
      .data
      .align 2
  tab:  .space )" + std::to_string(4 * kHotIters) + R"(
  cell: .space 16
      .text
  _start:
      la $s1, tab
      la $s2, cell
      li $t9, )" + std::to_string(kHotIters) + "\n" + fill + R"(
      li $t0, 0
      addu $t6, $s1, $zero
  init:
      sw $t5, 0($t6)
      addiu $t6, $t6, 4
      addiu $t0, $t0, 1
      bne $t0, $t9, init
)" + last + R"(
      sw $t5, -4($t6)
      li $t0, 0
  loop:
      lw $t1, 0($s1)
      addiu $s1, $s1, 4
)" + body + R"(
      addiu $t0, $t0, 1
      bne $t0, $t9, loop
      addu $a0, $s7, $zero
      li $v0, 1
      syscall
)";
}

/// Runs `source` on every engine, checks that all three fingerprints agree
/// and that the jit ran compiled host code, and returns the step report.
RunReport run_hot_loop(const std::string& source) {
  RunReport reference;
  std::string prints[kNumEngines];
  for (int e = 0; e < kNumEngines; ++e) {
    Machine m(on(kAllEngines[e]));
    m.load_source(source);
    RunReport r = m.run();
    prints[e] = fingerprint(m, r);
    if (e == 0) reference = r;
    if (std::string(kAllEngines[e]) == "jit" && cpu::JitEngine::supported()) {
      EXPECT_GT(m.cpu().jit_stats().host_entries, 0u);
    }
  }
  for (int e = 1; e < kNumEngines; ++e) {
    EXPECT_EQ(prints[0], prints[e]) << kAllEngines[e] << " divergence";
  }
  return reference;
}

/// Loop whose body faults on a misaligned access on the last iteration:
/// $t2 = cell + tab[i], with tab[last] = `offset`.
RunReport run_misaligned(const std::string& access, int offset) {
  return run_hot_loop(hot_loop_source(
      "      li $t5, 0\n",
      "      li $t5, " + std::to_string(offset) + "\n",
      "      addu $t2, $s2, $t1\n      " + access + "\n"));
}

TEST(Superblock, JitSlowExitMisalignedLw) {
  const RunReport r = run_misaligned("lw $t3, 0($t2)", 2);
  EXPECT_EQ(r.stop, cpu::StopReason::kFault);
  EXPECT_NE(r.fault.find("misaligned lw"), std::string::npos) << r.fault;
}

TEST(Superblock, JitSlowExitMisalignedLh) {
  const RunReport r = run_misaligned("lh $t3, 0($t2)", 1);
  EXPECT_EQ(r.stop, cpu::StopReason::kFault);
  EXPECT_NE(r.fault.find("misaligned lh"), std::string::npos) << r.fault;
}

TEST(Superblock, JitSlowExitMisalignedSw) {
  const RunReport r = run_misaligned("sw $t0, 0($t2)", 2);
  EXPECT_EQ(r.stop, cpu::StopReason::kFault);
  EXPECT_NE(r.fault.find("misaligned sw"), std::string::npos) << r.fault;
}

TEST(Superblock, JitSlowExitMisalignedSh) {
  const RunReport r = run_misaligned("sh $t0, 0($t2)", 1);
  EXPECT_EQ(r.stop, cpu::StopReason::kFault);
  EXPECT_NE(r.fault.find("misaligned sh"), std::string::npos) << r.fault;
}

/// Loop whose fused addiu+`access` pair gets a tainted base on the last
/// iteration: tab[last] is a data-tainted zero added to the cell address.
RunReport run_tainted_fused(const std::string& access) {
  return run_hot_loop(hot_loop_source(
      "      li $t5, 0\n", "      taintset $t5, $zero\n",
      "      addu $t1, $s2, $t1\n"
      "      addiu $t2, $t1, 4\n"
      "      " + access + "\n"));
}

TEST(Superblock, JitSlowExitTaintedBaseInFusedAddiuLw) {
  const RunReport r = run_tainted_fused("lw $t3, 0($t2)");
  ASSERT_TRUE(r.detected());
  EXPECT_EQ(r.alert->kind, cpu::AlertKind::kTaintedLoadAddress);
}

TEST(Superblock, JitSlowExitTaintedBaseInFusedAddiuSw) {
  const RunReport r = run_tainted_fused("sw $t0, 0($t2)");
  ASSERT_TRUE(r.detected());
  EXPECT_EQ(r.alert->kind, cpu::AlertKind::kTaintedStoreAddress);
}

TEST(Superblock, JitSlowExitFusedAddiuSwRetiresOwnBlock) {
  // Every iteration stores the encoding of `addiu $s7, $s7, 2` through a
  // fused addiu+sw: into the scratch cell, except on the last iteration,
  // where it overwrites the block's own next instruction (loop + 16).  The
  // store retires the executing block, execution resumes at pc+8 through
  // fresh translation, and the patched increment runs once.
  isa::Instruction add2;
  add2.op = isa::Op::kAddiu;
  add2.rt = isa::kS7;
  add2.rs = isa::kS7;
  add2.imm = 2;
  const RunReport r = run_hot_loop(hot_loop_source(
      "      la $t5, cell\n      li $s3, " +
          std::to_string(isa::encode(add2)) + "\n",
      "      la $t5, loop\n      addiu $t5, $t5, 16\n",
      "      addiu $t2, $t1, 0\n"
      "      sw $s3, 0($t2)\n"
      "      addiu $s7, $s7, 1\n"));
  EXPECT_EQ(r.stop, cpu::StopReason::kExit);
  EXPECT_EQ(r.exit_status, kHotIters + 1);  // a stale block would add 1
}

TEST(Superblock, JitSlowExitTaintedJr) {
  const RunReport r = run_hot_loop(hot_loop_source(
      "      li $t5, 0\n      la $s4, cont\n", "      taintset $t5, $zero\n",
      "      addu $t2, $s4, $t1\n"
      "      jr $t2\n"
      "  cont:\n"));
  ASSERT_TRUE(r.detected());
  EXPECT_EQ(r.alert->kind, cpu::AlertKind::kTaintedJumpTarget);
}

// ---------------------------------------------------------------------------
// Unsupported-host fallback: requesting the jit on a host that cannot run
// emitted code must silently select the superblock engine (after a one-line
// warning) with identical results.  PTAINT_JIT_FORCE_UNSUPPORTED=1
// simulates such a host anywhere; the environment is read once per
// process, so ctest runs this test in its own process with the variable
// set (tests/CMakeLists.txt).

TEST(Superblock, JitFallsBackToSuperblockWhenUnsupported) {
  if (!cpu::env().jit_force_unsupported) {
    GTEST_SKIP() << "needs PTAINT_JIT_FORCE_UNSUPPORTED=1 (set by ctest)";
  }
  EXPECT_FALSE(cpu::JitEngine::supported());
  std::string forced;
  {
    auto machine = make_scenario(AttackId::kExp1Stack)
                       ->prepare_attack({}, cpu::Engine::kJit);
    EXPECT_EQ(machine->cpu().engine(), cpu::Engine::kSuperblock);
    RunReport r = machine->run();
    EXPECT_EQ(machine->cpu().jit_stats().blocks_compiled, 0u);
    forced = fingerprint(*machine, r);
  }
  EXPECT_EQ(forced, run_scenario(AttackId::kExp1Stack, "superblock"));
}

}  // namespace
}  // namespace ptaint::core
