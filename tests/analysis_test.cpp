// Tests for the static pointer-taintedness prover (src/analysis/):
// lattice algebra, CFG recovery, Table 1 transfer rules under policy
// gates, the golden paper alert sites cross-validated against the dynamic
// detector, and verdict-identity of static check-elision.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/cfg.hpp"
#include "analysis/lattice.hpp"
#include "analysis/vsa.hpp"
#include "campaign/campaigns.hpp"
#include "core/attack.hpp"
#include "core/machine.hpp"
#include "guest/apps/apps.hpp"
#include "guest/runtime.hpp"

namespace ptaint::analysis {
namespace {

using isa::Op;
namespace layout = isa::layout;

// ---- lattice ---------------------------------------------------------------

TEST(Lattice, JoinIsMax) {
  EXPECT_EQ(join(Taint::kUntainted, Taint::kUntainted), Taint::kUntainted);
  EXPECT_EQ(join(Taint::kUntainted, Taint::kMaybeTainted),
            Taint::kMaybeTainted);
  EXPECT_EQ(join(Taint::kMaybeTainted, Taint::kTop), Taint::kTop);
  EXPECT_EQ(join(Taint::kTop, Taint::kUntainted), Taint::kTop);
}

TEST(Lattice, MayBeTaintedOnlyExcludesUntainted) {
  EXPECT_FALSE(may_be_tainted(Taint::kUntainted));
  EXPECT_TRUE(may_be_tainted(Taint::kMaybeTainted));
  EXPECT_TRUE(may_be_tainted(Taint::kTop));
}

TEST(Lattice, RegStateZeroIsPinnedUntainted) {
  RegState s;
  s.set(isa::kZero, Taint::kTop);
  EXPECT_EQ(s.get(isa::kZero), Taint::kUntainted);
  s.set(isa::kT0, Taint::kMaybeTainted);
  EXPECT_EQ(s.get(isa::kT0), Taint::kMaybeTainted);
}

TEST(Lattice, JoinWithReportsChange) {
  RegState a, b;
  b.set(isa::kA0, Taint::kMaybeTainted);
  EXPECT_TRUE(a.join_with(b));
  EXPECT_EQ(a.get(isa::kA0), Taint::kMaybeTainted);
  EXPECT_FALSE(a.join_with(b));  // already above b
}

// ---- CFG recovery ----------------------------------------------------------

asmgen::Program small_program() {
  return asmgen::assemble(R"(
    .text
    _start:
      jal work
      li $v0, 1
      li $a0, 0
      syscall
    work:
      beq $a0, $zero, skip
      addiu $a0, $a0, -1
    skip:
      jr $ra
  )");
}

TEST(CfgRecovery, BlocksFunctionsAndEdges) {
  const asmgen::Program program = small_program();
  const Cfg cfg(program);
  // Two functions: _start (entry) and the jal target `work`.
  ASSERT_EQ(cfg.functions().size(), 2u);
  EXPECT_EQ(cfg.functions()[0].entry, layout::kTextBase);
  EXPECT_EQ(cfg.functions()[1].name, "work");

  // jal creates a call edge and registers the return site.
  const int b0 = cfg.block_at(layout::kTextBase);
  ASSERT_GE(b0, 0);
  ASSERT_EQ(cfg.blocks()[static_cast<size_t>(b0)].call_succs.size(), 1u);
  ASSERT_EQ(cfg.functions()[1].return_sites.size(), 1u);
  EXPECT_EQ(cfg.functions()[1].return_sites[0], layout::kTextBase + 4);
}

TEST(CfgRecovery, JrRaResolvesToReturnSites) {
  const asmgen::Program program = small_program();
  const Cfg cfg(program);
  // The `jr $ra` block must flow back to the instruction after the jal.
  const uint32_t jr_pc = cfg.functions()[1].end - 4;
  const int jr_block = cfg.block_at(jr_pc);
  ASSERT_GE(jr_block, 0);
  const BasicBlock& bb = cfg.blocks()[static_cast<size_t>(jr_block)];
  EXPECT_TRUE(bb.returns);
  const int ret_block = cfg.block_at(layout::kTextBase + 4);
  EXPECT_NE(std::find(bb.succs.begin(), bb.succs.end(), ret_block),
            bb.succs.end());
}

TEST(CfgRecovery, EverythingReachableInStraightLineProgram) {
  const asmgen::Program program = small_program();
  const Cfg cfg(program);
  const std::vector<bool> reach = cfg.reachable_blocks();
  for (size_t b = 0; b < cfg.blocks().size(); ++b) {
    EXPECT_TRUE(reach[b]) << "block " << b << " at "
                          << std::hex << cfg.blocks()[b].begin;
  }
}

// ---- transfer rules --------------------------------------------------------

/// Analyzes a snippet that reads input into `cell`, loads it into $t0,
/// applies `body`, then dereferences $t1.  Returns the abstract taint at
/// the load site that dereferences $t1.
Taint taint_after(const std::string& body, const cpu::TaintPolicy& policy) {
  const asmgen::Program p = asmgen::assemble(
      ".data\ncell: .word 0\n.text\n_start:\n"
      "  li $v0, 3\n  li $a0, 0\n  la $a1, cell\n  li $a2, 4\n  syscall\n"
      "  lw $t0, cell\n" +
      body + "\n  lw $v0, 0($t1)\n  li $v0, 1\n  li $a0, 0\n  syscall\n");
  const VsaAnalysis va = analyze_vsa(Cfg(p), policy);
  for (const DerefSite& s : va.sites) {
    if (s.inst.op == Op::kLw && s.addr_reg == isa::kT1) return s.may_taint;
  }
  ADD_FAILURE() << "no $t1 dereference site found";
  return Taint::kTop;
}

// `cell` holds input bytes, so the word loaded from it may be tainted.
TEST(TransferRules, LoadsProduceMaybeTainted) {
  EXPECT_EQ(taint_after("  move $t1, $t0", {}), Taint::kMaybeTainted);
}

TEST(TransferRules, LuiAndConstantsAreUntainted) {
  EXPECT_EQ(taint_after("  lui $t1, 0x1000", {}), Taint::kUntainted);
  EXPECT_EQ(taint_after("  li $t1, 64", {}), Taint::kUntainted);
}

TEST(TransferRules, CompareUntaintsItsOperands) {
  // slt validates $t0 (Table 1 compare rule): afterwards a dereference
  // through it is statically clean.
  EXPECT_EQ(taint_after("  slt $t2, $t0, $t3\n  move $t1, $t0", {}),
            Taint::kUntainted);
  cpu::TaintPolicy ablated;
  ablated.compare_untaints = false;
  EXPECT_EQ(taint_after("  slt $t2, $t0, $t3\n  move $t1, $t0", ablated),
            Taint::kMaybeTainted);
}

TEST(TransferRules, SltiUntaintsOnlyRs) {
  EXPECT_EQ(taint_after("  slti $t2, $t0, 10\n  move $t1, $t0", {}),
            Taint::kUntainted);
}

TEST(TransferRules, AndWithZeroUntaints) {
  EXPECT_EQ(taint_after("  and $t1, $t0, $zero", {}), Taint::kUntainted);
  cpu::TaintPolicy ablated;
  ablated.and_zero_untaints = false;
  EXPECT_EQ(taint_after("  and $t1, $t0, $zero", ablated),
            Taint::kMaybeTainted);
}

TEST(TransferRules, XorSelfUntaints) {
  EXPECT_EQ(taint_after("  xor $t1, $t0, $t0", {}), Taint::kUntainted);
  cpu::TaintPolicy ablated;
  ablated.xor_self_untaints = false;
  EXPECT_EQ(taint_after("  xor $t1, $t0, $t0", ablated),
            Taint::kMaybeTainted);
}

TEST(TransferRules, AluMergesOperandTaint) {
  EXPECT_EQ(taint_after("  addu $t1, $t0, $t3", {}), Taint::kMaybeTainted);
  EXPECT_EQ(taint_after("  addu $t1, $t3, $t4", {}), Taint::kUntainted);
}

TEST(TransferRules, VariableShiftJoinsShiftAmountTaint) {
  // $t3 starts untainted but the shift amount $t0 may be tainted.
  EXPECT_EQ(taint_after("  sllv $t1, $t3, $t0", {}), Taint::kMaybeTainted);
}

TEST(TransferRules, SyscallResultIsUntainted) {
  EXPECT_EQ(taint_after("  li $v0, 9\n  syscall\n  move $t1, $v0", {}),
            Taint::kUntainted);
}

// ---- golden paper sites ----------------------------------------------------

/// Runs the scenario's dynamic attack, then analyzes the same program and
/// checks the dynamic alert PC is a statically-predicted site.
void expect_statically_predicted(core::AttackId id, bool expect_jump) {
  auto scenario = core::make_scenario(id);
  core::ScenarioResult r =
      scenario->run_attack(cpu::DetectionMode::kPointerTaint);
  ASSERT_EQ(r.outcome, core::Outcome::kDetected) << r.detail;
  ASSERT_TRUE(r.report.alert.has_value());
  const uint32_t alert_pc = r.report.alert->pc;

  const asmgen::Program program = scenario->prepare_attack({})->program();
  const VsaAnalysis va = analyze_vsa(Cfg(program), {});
  EXPECT_TRUE(va.predicts_alert(alert_pc))
      << "dynamic alert at " << std::hex << alert_pc
      << " not statically predicted";
  const DerefSite* site = va.site_at(alert_pc);
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->is_jump, expect_jump);
  EXPECT_TRUE(site->reachable);
}

TEST(GoldenPaperSites, Exp1StackJrRaIsFlagged) {
  expect_statically_predicted(core::AttackId::kExp1Stack, /*jump=*/true);
}

TEST(GoldenPaperSites, Exp2HeapFreeStoreIsFlagged) {
  expect_statically_predicted(core::AttackId::kExp2Heap, /*jump=*/false);
}

TEST(GoldenPaperSites, Exp3FormatVfprintfStoreIsFlagged) {
  expect_statically_predicted(core::AttackId::kExp3Format, /*jump=*/false);
}

TEST(GoldenPaperSites, FalsenegMatrixHasEmptyStaticDynamicDiff) {
  // The campaign-level cross-check: run the Table 4 matrix and require
  // every dynamic pointer-taint alert to be statically predicted.
  const std::vector<campaign::JobResult> results =
      campaign::run_serial_reference("falseneg");
  const campaign::StaticCheckReport sc =
      campaign::static_check("falseneg", results);
  EXPECT_TRUE(sc.missed.empty())
      << (sc.missed.empty() ? std::string() : sc.missed.front());
  EXPECT_GE(sc.alerts_checked, 1u);  // the %n WRITE contrast case
}

// ---- check elision ---------------------------------------------------------

TEST(CheckElision, BitmapCoversOnlyProvenCleanSites) {
  auto scenario = core::make_scenario(core::AttackId::kExp1Stack);
  const asmgen::Program program = scenario->prepare_attack({})->program();
  const Cfg cfg(program);
  const VsaAnalysis va = analyze_vsa(cfg, {});
  ASSERT_EQ(va.elision.size(), cfg.instructions().size());

  // A bit is set exactly at reachable clean sites and, the fixpoint having
  // completed, at sites the abstract execution never reaches (dead code).
  size_t elided = 0;
  size_t dead = 0;
  for (const DerefSite& s : va.sites) {
    const uint8_t bit = va.elision[cfg.index_of(s.pc)];
    if (!s.reachable) {
      EXPECT_EQ(bit, 1) << std::hex << s.pc;
      ++dead;
    } else {
      EXPECT_EQ(bit, may_be_tainted(s.may_taint) ? 0 : 1) << std::hex << s.pc;
    }
    elided += bit;
  }
  EXPECT_EQ(elided, va.proven_clean + dead);
  EXPECT_GT(va.proven_clean, 0u);    // most sites are provably clean
  EXPECT_GT(va.possible_sites, 0u);  // the attack sites are not
  // Non-dereference instructions never carry an elision bit.
  for (size_t i = 0; i < va.elision.size(); ++i) {
    if (!va.elision[i]) continue;
    const uint32_t pc = cfg.text_begin() + 4 * static_cast<uint32_t>(i);
    EXPECT_NE(va.site_at(pc), nullptr);
  }
}

TEST(CheckElision, AttackVerdictIdenticalWithAndWithoutElision) {
  for (const bool elide : {false, true}) {
    core::MachineConfig cfg;
    cfg.static_elision = elide;
    core::Machine m(cfg);
    m.load_sources(guest::link_with_runtime(guest::apps::exp1_stack()));
    m.os().set_stdin(std::string(24, 'a'));
    const core::RunReport rep = m.run();
    ASSERT_TRUE(rep.detected()) << "elide=" << elide;
    EXPECT_EQ(rep.alert->disasm, "jr $31");
    EXPECT_EQ(rep.alert->reg_value, 0x61616161u);
  }
}

TEST(CheckElision, BenignRunIdenticalWithAndWithoutElision) {
  std::string out[2];
  for (const bool elide : {false, true}) {
    core::MachineConfig cfg;
    cfg.static_elision = elide;
    core::Machine m(cfg);
    m.load_sources(guest::link_with_runtime(guest::apps::exp1_stack()));
    m.os().set_stdin("hi");
    const core::RunReport rep = m.run();
    EXPECT_EQ(rep.stop, cpu::StopReason::kExit) << "elide=" << elide;
    EXPECT_EQ(rep.exit_status, 0);
    out[elide ? 1 : 0] = rep.stdout_text;
  }
  EXPECT_EQ(out[0], out[1]);
}

TEST(CheckElision, EnableReportsProvenCleanCountAndSurvivesRestore) {
  core::MachineConfig cfg;
  core::Machine m(cfg);
  m.load_sources(guest::link_with_runtime(guest::apps::exp1_stack()));
  const size_t clean = m.enable_static_elision();
  EXPECT_GT(clean, 0u);

  // restore() drops the decode cache; the elision map must be re-applied.
  const core::MachineSnapshot snap = m.snapshot();
  core::MachineConfig cfg2;
  cfg2.static_elision = true;
  core::Machine fork(cfg2);
  fork.restore(snap);
  fork.os().set_stdin(std::string(24, 'a'));
  const core::RunReport rep = fork.run();
  ASSERT_TRUE(rep.detected());
  EXPECT_EQ(rep.alert->reg_value, 0x61616161u);
}

}  // namespace
}  // namespace ptaint::analysis
