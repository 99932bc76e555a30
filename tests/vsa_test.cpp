// Tests for the memory-aware value-set taint prover (src/analysis/vsa.cpp):
// frame-cell precision, syscall buffer modeling, witness traces, the
// golden elision tables Machine installs, static/dynamic Table 1 rule
// parity per policy column, and byte-identical determinism across repeat
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/vsa.hpp"
#include "campaign/campaigns.hpp"
#include "core/attack.hpp"
#include "core/machine.hpp"
#include "cpu/taint_unit.hpp"
#include "guest/apps/apps.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"

namespace ptaint::analysis {
namespace {

using isa::Op;

VsaAnalysis analyze_source(const std::string& text, cpu::TaintPolicy policy = {},
                           bool witnesses = false) {
  const asmgen::Program p = asmgen::assemble(text);
  VsaOptions o;
  o.witnesses = witnesses;
  return analyze_vsa(Cfg(p), policy, o);
}

/// First dereference site in `va` whose base register is `reg` (and, when
/// `op` is given, whose opcode matches); null when absent.
const DerefSite* site_with_base(const VsaAnalysis& va, int reg,
                                std::optional<Op> op = std::nullopt) {
  for (const DerefSite& s : va.sites) {
    if (s.addr_reg == reg && (!op || s.inst.op == *op)) return &s;
  }
  return nullptr;
}

// ---- frame-cell precision --------------------------------------------------

// A $ra spill/reload around a call: the reload reads back the precise frame
// cell the prologue wrote, so the return is provably clean.
constexpr const char* kSpillReload = R"(
  .text
  _start:
    jal work
    li $v0, 1
    li $a0, 0
    syscall
  work:
    addiu $sp, $sp, -8
    sw $ra, 4($sp)
    jal leaf
    lw $ra, 4($sp)
    addiu $sp, $sp, 8
    jr $ra
  leaf:
    jr $ra
)";

/// work's `jr $ra` (the one preceded by the reload).
const DerefSite* work_return(const Cfg& cfg, const VsaAnalysis& va) {
  const DerefSite* found = nullptr;
  for (const DerefSite& s : va.sites) {
    const int f = cfg.function_at(s.pc);
    if (s.is_jump && f >= 0 &&
        cfg.functions()[static_cast<size_t>(f)].name == "work") {
      found = &s;
    }
  }
  return found;
}

TEST(VsaProver, FrameSpillReloadProvesReturnClean) {
  const asmgen::Program p = asmgen::assemble(kSpillReload);
  const Cfg cfg(p);
  const VsaAnalysis va = analyze_vsa(cfg, {});
  const DerefSite* ret = work_return(cfg, va);
  ASSERT_NE(ret, nullptr);
  EXPECT_TRUE(ret->reachable);
  EXPECT_FALSE(may_be_tainted(ret->may_taint))
      << "the prover should clear the precise frame cell";
}

TEST(VsaProver, SpillReloadSiteEntersElisionTable) {
  const asmgen::Program p = asmgen::assemble(kSpillReload);
  const Cfg cfg(p);
  const VsaAnalysis va = analyze_vsa(cfg, {});
  const DerefSite* ret = work_return(cfg, va);
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(va.elision[cfg.index_of(ret->pc)], 1)
      << "memory-transiting cleanliness should elide the check";
}

// ---- syscall buffer modeling -----------------------------------------------

// SYS_READ with a precise frame buffer taints exactly the buffer cells: a
// word loaded from inside the buffer poisons its dereference, a frame cell
// outside the buffer stays provably clean.
constexpr const char* kReadBuffer = R"(
  .text
  _start:
    addiu $sp, $sp, -32
    sw $zero, 28($sp)
    li $v0, 3        # SYS_READ
    li $a0, 0
    addiu $a1, $sp, 8
    li $a2, 16       # buffer = [sp+8, sp+24)
    syscall
    lw $t1, 8($sp)   # inside the buffer
    lw $v0, 0($t1)
    lw $t2, 28($sp)  # outside the buffer
    lw $v0, 0($t2)
    li $v0, 1
    li $a0, 0
    syscall
)";

TEST(VsaProver, SyscallTaintsPreciseBufferCellsOnly) {
  const VsaAnalysis va = analyze_source(kReadBuffer);
  const DerefSite* in_buf = site_with_base(va, isa::kT1, Op::kLw);
  const DerefSite* out_buf = site_with_base(va, isa::kT2, Op::kLw);
  ASSERT_NE(in_buf, nullptr);
  ASSERT_NE(out_buf, nullptr);
  EXPECT_TRUE(may_be_tainted(in_buf->may_taint));
  EXPECT_FALSE(may_be_tainted(out_buf->may_taint));
}

TEST(VsaProver, WitnessTracesInputToDereference) {
  const VsaAnalysis va =
      analyze_source(kReadBuffer, {}, /*witnesses=*/true);
  const DerefSite* in_buf = site_with_base(va, isa::kT1, Op::kLw);
  ASSERT_NE(in_buf, nullptr);
  const Witness* w = va.witness_at(in_buf->pc);
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->complete) << "path must start at a taint source";
  ASSERT_GE(w->steps.size(), 2u);
  EXPECT_NE(w->steps.front().event.find("input"), std::string::npos)
      << "root should be the SYS_READ, got: " << w->steps.front().event;
  EXPECT_EQ(w->steps.back().pc, in_buf->pc);
  EXPECT_NE(w->steps.back().event.find("dereference"), std::string::npos);
}

// ---- installed tables ------------------------------------------------------

// Over every registry app under every ablation policy column (140
// programs), the check- and leak-elision bitmaps Machine installs on the
// CPU are exactly the prover's, and the totals are pinned: a change in what
// the engines skip shows up here first.
TEST(ElisionGolden, MachineInstallsProverTablesForEveryAppAndPolicy) {
  size_t programs = 0;
  size_t elided = 0;
  size_t leak_elided = 0;
  for (const auto& app : guest::apps::registry()) {
    const asmgen::Program p =
        asmgen::assemble(guest::link_with_runtime(app.make()));
    const Cfg cfg(p);
    for (const auto& v : campaign::ablation_variants()) {
      const VsaAnalysis va = analyze_vsa(cfg, v.policy);
      core::MachineConfig mc;
      mc.policy = v.policy;
      core::Machine m(mc);
      m.load_program(p);
      const size_t installed = m.enable_static_elision();
      const std::string where = std::string(app.name) + " / " + v.name;
      EXPECT_EQ(m.cpu().check_elision(), va.elision) << where;
      EXPECT_EQ(m.cpu().leak_elision(), va.leak_elision) << where;
      const auto bits = static_cast<size_t>(
          std::count(va.elision.begin(), va.elision.end(), 1));
      EXPECT_EQ(installed, bits) << where;
      elided += bits;
      leak_elided += static_cast<size_t>(
          std::count(va.leak_elision.begin(), va.leak_elision.end(), 1));
      ++programs;
    }
  }
  EXPECT_EQ(programs, 140u);
  EXPECT_EQ(elided, 31873u);
  EXPECT_EQ(leak_elided, 2373u);
}

// ---- static/dynamic Table 1 parity -----------------------------------------

// Per policy column, the prover's verdict on each special-case rule must
// match what the dynamic TaintUnit computes for the same instruction on a
// fully tainted operand: statically-clean iff dynamically-untainted.

/// Static side: abstract taint of a $t1 dereference after `body` runs on a
/// tainted $t0 (loaded from a SYS_READ buffer).
Taint vsa_taint_after(const std::string& body, const cpu::TaintPolicy& policy) {
  const VsaAnalysis va = analyze_source(
      ".text\n_start:\n  addiu $sp, $sp, -16\n"
      "  li $v0, 3\n  li $a0, 0\n  addiu $a1, $sp, 0\n  li $a2, 8\n"
      "  syscall\n  lw $t0, 0($sp)\n" +
          body +
          "\n  lw $v0, 0($t1)\n  li $v0, 1\n  li $a0, 0\n  syscall\n",
      policy);
  const DerefSite* s = site_with_base(va, isa::kT1, Op::kLw);
  if (s == nullptr) {
    ADD_FAILURE() << "no $t1 dereference site";
    return Taint::kTop;
  }
  return s->may_taint;
}

/// Dynamic side: does the TaintUnit leave the result untainted?
bool unit_clears(const cpu::TaintPolicy& policy, Op op, uint8_t rs, uint8_t rt,
                 mem::TaintedWord a, mem::TaintedWord b) {
  cpu::TaintUnit unit(policy);
  cpu::TaintOpInputs in;
  in.inst.op = op;
  in.inst.rs = rs;
  in.inst.rt = rt;
  in.inst.rd = 10;
  in.a = a;
  in.b = b;
  return unit.propagate(in).result_taint == mem::kUntainted;
}

TEST(PolicyParity, CompareRuleMatchesTaintUnitPerColumn) {
  for (const auto& v : campaign::ablation_variants()) {
    // Dynamic: slt on a tainted operand requests operand untainting.
    cpu::TaintUnit unit(v.policy);
    cpu::TaintOpInputs in;
    in.inst.op = Op::kSlt;
    in.inst.rs = 8;
    in.inst.rt = 11;
    in.inst.rd = 10;
    in.a = {100, mem::kAllTainted};
    in.b = {200};
    const bool dyn_clean = unit.propagate(in).untaint_sources;
    const Taint st =
        vsa_taint_after("  slt $t2, $t0, $t3\n  move $t1, $t0", v.policy);
    EXPECT_EQ(!may_be_tainted(st), dyn_clean) << "policy " << v.name;
  }
}

TEST(PolicyParity, AndZeroRuleMatchesTaintUnitPerColumn) {
  for (const auto& v : campaign::ablation_variants()) {
    const bool dyn_clean =
        unit_clears(v.policy, Op::kAnd, 8, 0, {0x61626364, mem::kAllTainted},
                    {0, mem::kUntainted});
    const Taint st = vsa_taint_after("  and $t1, $t0, $zero", v.policy);
    EXPECT_EQ(!may_be_tainted(st), dyn_clean) << "policy " << v.name;
  }
}

TEST(PolicyParity, XorSelfRuleMatchesTaintUnitPerColumn) {
  for (const auto& v : campaign::ablation_variants()) {
    const bool dyn_clean =
        unit_clears(v.policy, Op::kXor, 8, 8, {0x61616161, mem::kAllTainted},
                    {0x61616161, mem::kAllTainted});
    const Taint st = vsa_taint_after("  xor $t1, $t0, $t0", v.policy);
    EXPECT_EQ(!may_be_tainted(st), dyn_clean) << "policy " << v.name;
  }
}

TEST(PolicyParity, ShiftRuleMatchesTaintUnitPerColumn) {
  for (const auto& v : campaign::ablation_variants()) {
    // A tainted shift amount taints the result under every column (the
    // shift_smear ablation only changes byte-level smearing, not this).
    const bool dyn_clean =
        unit_clears(v.policy, Op::kSllv, 8, 11, {4, mem::kAllTainted},
                    {0x61, mem::kUntainted});
    const Taint st = vsa_taint_after("  sllv $t1, $t3, $t0", v.policy);
    EXPECT_EQ(!may_be_tainted(st), dyn_clean) << "policy " << v.name;
  }
}

// ---- determinism -----------------------------------------------------------

TEST(Determinism, RepeatRunsAreByteIdentical) {
  const asmgen::Program p =
      asmgen::assemble(guest::link_with_runtime(guest::apps::ghttpd()));
  const Cfg cfg(p);
  VsaOptions o;
  o.witnesses = true;
  const VsaAnalysis a = analyze_vsa(cfg, {}, o);
  const VsaAnalysis b = analyze_vsa(cfg, {}, o);
  EXPECT_EQ(a.report(cfg), b.report(cfg));
  EXPECT_EQ(a.elision, b.elision);
  ASSERT_EQ(a.witnesses.size(), b.witnesses.size());
  for (size_t i = 0; i < a.witnesses.size(); ++i) {
    EXPECT_EQ(a.witnesses[i].site_pc, b.witnesses[i].site_pc);
    EXPECT_EQ(a.witnesses[i].complete, b.witnesses[i].complete);
    ASSERT_EQ(a.witnesses[i].steps.size(), b.witnesses[i].steps.size());
    for (size_t j = 0; j < a.witnesses[i].steps.size(); ++j) {
      EXPECT_EQ(a.witnesses[i].steps[j].pc, b.witnesses[i].steps[j].pc);
      EXPECT_EQ(a.witnesses[i].steps[j].event, b.witnesses[i].steps[j].event);
      EXPECT_EQ(a.witnesses[i].steps[j].loc, b.witnesses[i].steps[j].loc);
    }
  }
}

// ---- golden paper sites as prover witnesses --------------------------------

/// Runs the scenario's attack with check elision installed on `engine`,
/// checks the dynamic alert matches the paper's site, and requires the
/// prover to hold a complete witness trace for exactly that PC.
void expect_golden_witness(core::AttackId id, cpu::Engine engine,
                           const std::string& function,
                           const std::string& disasm_contains) {
  auto scenario = core::make_scenario(id);
  const cpu::TaintPolicy policy;  // paper defaults (pointer taintedness)
  auto machine = scenario->prepare_attack(policy, engine);
  machine->enable_static_elision();
  core::RunReport report = machine->run();
  const core::ScenarioResult r =
      scenario->classify_attack(*machine, std::move(report));
  ASSERT_EQ(r.outcome, core::Outcome::kDetected) << r.detail;
  ASSERT_TRUE(r.report.alert.has_value());
  EXPECT_EQ(r.report.alert_function, function);
  EXPECT_NE(r.report.alert->disasm.find(disasm_contains), std::string::npos)
      << r.report.alert->disasm;

  const Cfg cfg(machine->program());
  VsaOptions o;
  o.witnesses = true;
  const VsaAnalysis va = analyze_vsa(cfg, policy, o);
  const Witness* w = va.witness_at(r.report.alert->pc);
  ASSERT_NE(w, nullptr) << "no prover witness for the paper alert site";
  EXPECT_TRUE(w->complete);
  ASSERT_GE(w->steps.size(), 2u);
  EXPECT_NE(w->steps.back().event.find("dereference"), std::string::npos);
}

TEST(GoldenWitness, Exp1StackJrRaBothEngines) {
  expect_golden_witness(core::AttackId::kExp1Stack, cpu::Engine::kStep, "exp1",
                        "jr $31");
  expect_golden_witness(core::AttackId::kExp1Stack, cpu::Engine::kSuperblock,
                        "exp1", "jr $31");
}

TEST(GoldenWitness, Exp2HeapFreeBothEngines) {
  expect_golden_witness(core::AttackId::kExp2Heap, cpu::Engine::kStep, "free",
                        "($");
  expect_golden_witness(core::AttackId::kExp2Heap, cpu::Engine::kSuperblock,
                        "free", "($");
}

TEST(GoldenWitness, Exp3FormatVfprintfBothEngines) {
  expect_golden_witness(core::AttackId::kExp3Format, cpu::Engine::kStep,
                        "vfprintf", "sw $21,0($3)");
  expect_golden_witness(core::AttackId::kExp3Format, cpu::Engine::kSuperblock,
                        "vfprintf", "sw $21,0($3)");
}

// ---- may-publish annotations (leak direction, §5.3 escape hatch) -----------

TEST(MayPublishProver, AnnotatedSitesAreExplainedNotPossible) {
  const asmgen::Program p = asmgen::assemble(
      guest::link_with_runtime(guest::apps::leak_telemetry()));
  const Cfg cfg(p);
  cpu::TaintPolicy policy;
  policy.leak_detection = true;

  VsaOptions plain;
  plain.witnesses = true;
  const VsaAnalysis before = analyze_vsa(cfg, policy, plain);
  ASSERT_GT(before.leak_possible, 0u)
      << "the telemetry app's send must be a possible leak site";
  EXPECT_EQ(before.leak_annotated, 0u);

  VsaOptions annotated = plain;
  annotated.may_publish = resolve_publish_ranges(p, {"send"}, true);
  const VsaAnalysis after = analyze_vsa(cfg, policy, annotated);
  EXPECT_GT(after.leak_annotated, 0u);
  EXPECT_LT(after.leak_possible, before.leak_possible)
      << "annotated sites leave the possible-leak bucket";
  // The waiver is not a proof: annotated sites never join the leak-check
  // elision bitmap (identical bitmaps with and without the annotation).
  EXPECT_EQ(after.leak_elision, before.leak_elision);
  EXPECT_EQ(after.leak_clean, before.leak_clean);
  // Annotated sites carry no witness (nothing to explain to the user).
  for (const Witness& w : after.leak_witnesses) {
    const LeakSite* site = after.leak_site_at(w.site_pc);
    ASSERT_NE(site, nullptr);
    EXPECT_FALSE(site->annotated);
  }
}

TEST(MayPublishProver, ResolveRangesMirrorsProtectSymbolContract) {
  const asmgen::Program p = asmgen::assemble(
      guest::link_with_runtime(guest::apps::leak_telemetry()));
  const auto ranges = resolve_publish_ranges(p, {"send"}, true);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_LT(ranges[0].first, ranges[0].second);
  EXPECT_THROW(resolve_publish_ranges(p, {"no_such_fn"}, true),
               std::out_of_range);
  // Non-strict (the restore path) skips unknown names instead.
  EXPECT_TRUE(resolve_publish_ranges(p, {"no_such_fn"}, false).empty());
}

}  // namespace
}  // namespace ptaint::analysis
