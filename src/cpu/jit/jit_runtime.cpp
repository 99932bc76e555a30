#include "cpu/jit/jit_runtime.hpp"

#include "cpu/cpu.hpp"
#include "cpu/jit/jit_engine.hpp"  // completes JitEngine for superblock.hpp
#include "cpu/superblock_handlers.hpp"

namespace ptaint::cpu {

using isa::Instruction;
using mem::TaintedWord;

namespace {
using SB = SuperblockEngine;
}  // namespace

// ---------------------------------------------------------------------------
// Mid-block ALU (one helper for every non-memory ALU kind)
// ---------------------------------------------------------------------------

void JitRuntime::alu_slow(Cpu* c, const MicroOp* u, uint32_t v) {
  mem::RegisterFile& regs = c->regs_;
  TaintUnit::Stats& tu = c->taint_unit_.stats_ref();
  const TaintPolicy& policy = c->policy_;
  const Instruction& in = u->inst;

  // Cancel this micro-op's fast-path constants (see jit_runtime.hpp); the
  // propagate() call below re-bumps the true amounts.  alu_ops/instructions
  // stay with the block flush — neither path below touches them.
  --tu.evaluations;

  TaintedWord a;
  TaintedWord b;
  bool b_imm = false;
  uint8_t dest = in.rd;
  switch (u->kind) {
    case SB::kAddRR: case SB::kSubRR: case SB::kOrRR: case SB::kNorRR:
      a = regs.get(in.rs);
      b = regs.get(in.rt);
      break;
    case SB::kXorRR:
      if (in.rs == in.rt && policy.xor_self_untaints) --tu.xor_self_untaints;
      a = regs.get(in.rs);
      b = regs.get(in.rt);
      break;
    case SB::kAndRR:
      if (policy.and_zero_untaints) --tu.and_zero_untaints;
      a = regs.get(in.rs);
      b = regs.get(in.rt);
      break;
    case SB::kSltRR: case SB::kSltuRR:
      if (policy.compare_untaints) {
        --tu.compare_untaints;
        --c->stats_.compare_untaints;
      }
      a = regs.get(in.rs);
      b = regs.get(in.rt);
      break;
    case SB::kSllI: case SB::kSrlI: case SB::kSraI:
      a = regs.get(in.rt);
      b = TaintedWord{in.shamt};
      b_imm = true;
      break;
    case SB::kSllvRR: case SB::kSrlvRR: case SB::kSravRR:
      a = regs.get(in.rt);
      b = regs.get(in.rs);
      break;
    case SB::kAddI:
      a = regs.get(in.rs);
      b = TaintedWord{static_cast<uint32_t>(in.imm)};
      b_imm = true;
      dest = in.rt;
      break;
    case SB::kOrI: case SB::kXorI:
      a = regs.get(in.rs);
      b = TaintedWord{static_cast<uint32_t>(in.imm & 0xffff)};
      b_imm = true;
      dest = in.rt;
      break;
    case SB::kAndI:
      if (policy.and_zero_untaints) --tu.and_zero_untaints;
      a = regs.get(in.rs);
      b = TaintedWord{static_cast<uint32_t>(in.imm & 0xffff)};
      b_imm = true;
      dest = in.rt;
      break;
    default:  // kSltI / kSltuI
      if (policy.compare_untaints) {
        --tu.compare_untaints;
        --c->stats_.compare_untaints;
      }
      a = regs.get(in.rs);
      b = TaintedWord{static_cast<uint32_t>(in.imm)};
      b_imm = true;
      dest = in.rt;
      break;
  }
  c->alu_write(in, dest, v, a, b, b_imm);
}

// ---------------------------------------------------------------------------
// Mid-block loads, stores and fused pairs: pre-subtract, then the shared body
// ---------------------------------------------------------------------------

uint64_t JitRuntime::lw_slow(Cpu* c, const MicroOp* u) {
  --c->stats_.loads;
  --c->stats_.instructions;
  return SB::op_lw(*c, *u);
}

uint64_t JitRuntime::load_other_slow(Cpu* c, const MicroOp* u) {
  --c->stats_.loads;
  --c->stats_.instructions;
  return SB::op_load_other(*c, *u);
}

uint64_t JitRuntime::sw_slow(Cpu* c, const MicroOp* u, const Block* blk) {
  --c->stats_.stores;
  --c->stats_.instructions;
  return SB::op_sw(*c, *u, *blk);
}

uint64_t JitRuntime::store_small_slow(Cpu* c, const MicroOp* u,
                                      const Block* blk) {
  --c->stats_.stores;
  --c->stats_.instructions;
  return SB::op_store_small(*c, *u, *blk);
}

uint64_t JitRuntime::addr_lw_slow(Cpu* c, const MicroOp* u) {
  --c->taint_unit_.stats_ref().evaluations;
  --c->stats_.alu_ops;
  --c->stats_.loads;
  c->stats_.instructions -= 2;
  return SB::op_addr_lw(*c, *u);
}

uint64_t JitRuntime::addr_sw_slow(Cpu* c, const MicroOp* u, const Block* blk) {
  --c->taint_unit_.stats_ref().evaluations;
  --c->stats_.alu_ops;
  --c->stats_.stores;
  c->stats_.instructions -= 2;
  return SB::op_addr_sw(*c, *u, *blk);
}

}  // namespace ptaint::cpu
