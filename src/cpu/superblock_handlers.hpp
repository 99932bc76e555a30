// Micro-op handler bodies shared by the superblock dispatch loop
// (superblock.cpp) and the JIT's slow paths (jit/jit_runtime.cpp) — the one
// definition of every load/store address check and jump-target check the
// two translated engines run.  Private to the two engines: superblock.cpp
// and the slow-path helpers in jit/jit_runtime.cpp call the bodies, and
// jit/jit_engine.cpp emits direct calls to the ones that need no helper.
//
// Each body replicates Cpu::execute() bit-for-bit (see superblock.hpp) and
// returns true when the caller must leave the block: the machine stopped
// (alert, fault), or a store retired the block it is executing.  pc_ is
// final either way.  The terminators always set pc_ to the next block (or
// leave it at the instruction on an alert).
#pragma once

#include "cpu/superblock.hpp"

namespace ptaint::cpu {

// -- loads ------------------------------------------------------------------
// The caller sets pc_ to the access's own PC (for alerts and faults) before
// the base is checked.  detect_pointer() is a pure predicate when the base
// is untainted, so gating the call on base.tainted() is
// observation-equivalent.

/// The word load of kLw and of the fused kAddrLw: `in` is the lw itself,
/// `base` the value of its base register.
inline bool SuperblockEngine::lw_access(Cpu& c, const MicroOp& u,
                                        const isa::Instruction& in,
                                        mem::TaintedWord base) {
  CpuStats& st = c.stats_;
  const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
  ++st.loads;
  if (u.elide == 0 && base.tainted() &&
      c.detect_pointer(in, in.rs, base, AlertKind::kTaintedLoadAddress)) {
    return true;
  }
  if (ea % 4 != 0) {
    c.fault("misaligned lw");
    return true;
  }
  mem::TaintedWord result = c.memory_.load_word(ea);
  if (c.policy_.per_word_taint) {
    result.taint = mem::widen_planes(result.taint);
  }
  if (result.tainted()) ++st.tainted_loads;
  c.regs_.set(in.rt, result);
  ++st.instructions;
  return false;
}

inline bool SuperblockEngine::op_lw(Cpu& c, const MicroOp& u) {
  c.pc_ = u.pc;
  return lw_access(c, u, u.inst, c.regs_.get(u.inst.rs));
}

inline bool SuperblockEngine::op_load_other(Cpu& c, const MicroOp& u) {
  CpuStats& st = c.stats_;
  const isa::Instruction& in = u.inst;
  c.pc_ = u.pc;
  const mem::TaintedWord base = c.regs_.get(in.rs);
  const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
  ++st.loads;
  if (u.elide == 0 && base.tainted() &&
      c.detect_pointer(in, in.rs, base, AlertKind::kTaintedLoadAddress)) {
    return true;
  }
  mem::TaintedWord result;
  if (in.op == isa::Op::kLh || in.op == isa::Op::kLhu) {
    if (ea % 2 != 0) {
      c.fault("misaligned lh");
      return true;
    }
    const mem::TaintedWord half = c.memory_.load_half(ea);
    if (in.op == isa::Op::kLh) {
      result.value =
          static_cast<uint32_t>(static_cast<int16_t>(half.value & 0xffff));
      result.taint = mem::widen_planes(half.taint);
    } else {
      result = half;
    }
  } else {
    const mem::TaintedByte b = c.memory_.load_byte(ea);
    if (in.op == isa::Op::kLb) {
      result.value = static_cast<uint32_t>(static_cast<int8_t>(b.value));
      result.taint = mem::widen_planes(mem::planes_to_word(b.planes, 0));
    } else {
      result.value = b.value;
      result.taint = mem::planes_to_word(b.planes, 0);
    }
  }
  if (c.policy_.per_word_taint) {
    result.taint = mem::widen_planes(result.taint);
  }
  if (result.tainted()) ++st.tainted_loads;
  c.regs_.set(in.rt, result);
  ++st.instructions;
  return false;
}

// -- stores -----------------------------------------------------------------
// A store into text retires every overlapping block, possibly `blk` itself;
// the storage stays alive in the graveyard, so after retiring the guest
// instruction the body leaves the block with the next PC and execution
// re-enters through fresh translation (self-modifying code executes its
// current bytes).

/// The word store of kSw and of the fused kAddrSw: `in` is the sw itself,
/// `base` the value of its base register, `next_pc` the PC after it.
inline bool SuperblockEngine::sw_access(Cpu& c, const MicroOp& u,
                                        const isa::Instruction& in,
                                        mem::TaintedWord base,
                                        const Block& blk, uint32_t next_pc) {
  CpuStats& st = c.stats_;
  const mem::TaintedWord val = c.regs_.get(in.rt);
  const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
  ++st.stores;
  if (u.elide == 0 && base.tainted() &&
      c.detect_pointer(in, in.rs, base, AlertKind::kTaintedStoreAddress)) {
    return true;
  }
  const mem::TaintedWord stored{val.value, val.taint};
  if (c.detect_annotation(in, ea, 4, stored)) return true;
  if (val.tainted()) ++st.tainted_stores;
  if (ea < c.text_end_ && ea + 4 > c.text_begin_) {
    c.invalidate_decode_range(ea, 4);
  }
  if (ea % 4 != 0) {
    c.fault("misaligned sw");
    return true;
  }
  c.memory_.store_word(ea, val);
  ++st.instructions;
  if (blk.retired) {
    c.pc_ = next_pc;
    return true;
  }
  return false;
}

inline bool SuperblockEngine::op_sw(Cpu& c, const MicroOp& u,
                                    const Block& blk) {
  c.pc_ = u.pc;
  return sw_access(c, u, u.inst, c.regs_.get(u.inst.rs), blk, u.pc + 4);
}

inline bool SuperblockEngine::op_store_small(Cpu& c, const MicroOp& u,
                                             const Block& blk) {
  CpuStats& st = c.stats_;
  const isa::Instruction& in = u.inst;
  c.pc_ = u.pc;
  const mem::TaintedWord base = c.regs_.get(in.rs);
  const mem::TaintedWord val = c.regs_.get(in.rt);
  const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
  ++st.stores;
  if (u.elide == 0 && base.tainted() &&
      c.detect_pointer(in, in.rs, base, AlertKind::kTaintedStoreAddress)) {
    return true;
  }
  const uint32_t len = in.op == isa::Op::kSh ? 2 : 1;
  const mem::TaintedWord stored{
      val.value, static_cast<mem::TaintBits>(
                     val.taint & (((1u << len) - 1) * 0x1111u))};
  if (c.detect_annotation(in, ea, len, stored)) return true;
  if (val.tainted()) ++st.tainted_stores;
  if (ea < c.text_end_ && ea + len > c.text_begin_) {
    c.invalidate_decode_range(ea, len);
  }
  if (in.op == isa::Op::kSh) {
    if (ea % 2 != 0) {
      c.fault("misaligned sh");
      return true;
    }
    c.memory_.store_half(ea, val);
  } else {
    c.memory_.store_byte(ea, {static_cast<uint8_t>(val.value),
                              mem::byte_planes(val.taint, 0)});
  }
  ++st.instructions;
  if (blk.retired) {
    c.pc_ = u.pc + 4;
    return true;
  }
  return false;
}

// -- fused address generation + word access ---------------------------------
// The addiu half: the untainted fast path reproduces propagate()'s single
// evaluation bump; a tainted input goes through alu_write.  Returns the
// access's base (re-read: granularity may have widened the taint) with pc_
// at the access's own PC.

inline mem::TaintedWord SuperblockEngine::addr_gen(Cpu& c, const MicroOp& u) {
  mem::RegisterFile& regs = c.regs_;
  const isa::Instruction& ai = u.inst;
  const mem::TaintedWord a = regs.get(ai.rs);
  const uint32_t av = a.value + static_cast<uint32_t>(ai.imm);
  mem::TaintedWord base;
  if (a.taint == 0) {
    ++c.taint_unit_.stats_ref().evaluations;
    base = mem::TaintedWord{av};
    regs.set(ai.rt, base);
  } else {
    c.alu_write(ai, ai.rt, av, a,
                mem::TaintedWord{static_cast<uint32_t>(ai.imm)}, true);
    base = regs.get(ai.rt);
  }
  ++c.stats_.alu_ops;
  ++c.stats_.instructions;
  c.pc_ = u.pc + 4;
  return base;
}

inline bool SuperblockEngine::op_addr_lw(Cpu& c, const MicroOp& u) {
  return lw_access(c, u, u.inst2, addr_gen(c, u));
}

inline bool SuperblockEngine::op_addr_sw(Cpu& c, const MicroOp& u,
                                         const Block& blk) {
  return sw_access(c, u, u.inst2, addr_gen(c, u), blk, u.pc + 8);
}

// -- multiply/divide/hi-lo/taint primitives (no propagate in execute) --------

inline void SuperblockEngine::op_muldiv(Cpu& c, const MicroOp& u) {
  using mem::TaintedWord;
  mem::RegisterFile& regs = c.regs_;
  const isa::Instruction& in = u.inst;
  const TaintedWord a = regs.get(in.rs);
  const TaintedWord b2 = regs.get(in.rt);
  const auto t = static_cast<mem::TaintBits>(a.taint | b2.taint);
  switch (in.op) {
    case isa::Op::kMult: {
      const int64_t p = static_cast<int64_t>(static_cast<int32_t>(a.value)) *
                        static_cast<int64_t>(static_cast<int32_t>(b2.value));
      regs.set_lo(TaintedWord{static_cast<uint32_t>(p), t});
      regs.set_hi(TaintedWord{static_cast<uint32_t>(p >> 32), t});
      break;
    }
    case isa::Op::kMultu: {
      const uint64_t p =
          static_cast<uint64_t>(a.value) * static_cast<uint64_t>(b2.value);
      regs.set_lo(TaintedWord{static_cast<uint32_t>(p), t});
      regs.set_hi(TaintedWord{static_cast<uint32_t>(p >> 32), t});
      break;
    }
    case isa::Op::kDiv: {
      const auto da = static_cast<int32_t>(a.value);
      const auto db = static_cast<int32_t>(b2.value);
      if (db == 0) {
        regs.set_lo(TaintedWord{0, t});
        regs.set_hi(TaintedWord{0, t});
      } else {
        regs.set_lo(TaintedWord{static_cast<uint32_t>(da / db), t});
        regs.set_hi(TaintedWord{static_cast<uint32_t>(da % db), t});
      }
      break;
    }
    case isa::Op::kDivu:
      if (b2.value == 0) {
        regs.set_lo(TaintedWord{0, t});
        regs.set_hi(TaintedWord{0, t});
      } else {
        regs.set_lo(TaintedWord{a.value / b2.value, t});
        regs.set_hi(TaintedWord{a.value % b2.value, t});
      }
      break;
    case isa::Op::kMfhi: regs.set(in.rd, regs.hi()); break;
    case isa::Op::kMflo: regs.set(in.rd, regs.lo()); break;
    case isa::Op::kMthi: regs.set_hi(a); break;
    case isa::Op::kMtlo: regs.set_lo(a); break;
    case isa::Op::kTaintSet:
      regs.set(in.rd, TaintedWord{a.value, static_cast<mem::TaintBits>(
                                               mem::kAllTainted |
                                               (a.taint & mem::kAddrMask))});
      break;
    default:  // kTaintClr
      regs.set(in.rd, TaintedWord{a.value, mem::kUntainted});
      break;
  }
  ++c.stats_.alu_ops;
  ++c.stats_.instructions;
}

// -- terminators ------------------------------------------------------------

inline void SuperblockEngine::op_branch(Cpu& c, const MicroOp& u) {
  mem::RegisterFile& regs = c.regs_;
  CpuStats& st = c.stats_;
  const isa::Instruction& in = u.inst;
  const mem::TaintedWord a = regs.get(in.rs);
  const mem::TaintedWord b2 = regs.get(in.rt);
  ++st.branches;
  const auto sval = static_cast<int32_t>(a.value);
  bool taken = false;
  switch (in.op) {
    case isa::Op::kBeq: taken = a.value == b2.value; break;
    case isa::Op::kBne: taken = a.value != b2.value; break;
    case isa::Op::kBlez: taken = sval <= 0; break;
    case isa::Op::kBgtz: taken = sval > 0; break;
    case isa::Op::kBltz: case isa::Op::kBltzal: taken = sval < 0; break;
    default: taken = sval >= 0; break;
  }
  if (in.op == isa::Op::kBltzal || in.op == isa::Op::kBgezal) {
    regs.set(isa::kRa, mem::TaintedWord{u.pc + 4, mem::kTextAddrMask});
  }
  if (c.policy_.compare_untaints &&
      (a.tainted() || regs.get(in.rt).tainted())) {
    regs.untaint(in.rs);
    if (in.op == isa::Op::kBeq || in.op == isa::Op::kBne) regs.untaint(in.rt);
    ++st.compare_untaints;
  }
  if (taken) {
    c.pc_ = u.pc + 4 + (static_cast<uint32_t>(in.imm) << 2);
    ++st.taken_branches;
  } else {
    c.pc_ = u.pc + 4;
  }
  ++st.instructions;
}

inline void SuperblockEngine::op_cmp_branch(Cpu& c, const MicroOp& u) {
  mem::RegisterFile& regs = c.regs_;
  CpuStats& st = c.stats_;
  TaintUnit::Stats& tu = c.taint_unit_.stats_ref();
  const isa::Instruction& ci = u.inst;
  const isa::Instruction& bi = u.inst2;
  const mem::TaintedWord a = regs.get(ci.rs);
  mem::TaintedWord b2;
  bool b_imm = false;
  uint8_t dest = 0;
  uint32_t v = 0;
  switch (ci.op) {
    case isa::Op::kSlt:
      b2 = regs.get(ci.rt);
      dest = ci.rd;
      v = static_cast<int32_t>(a.value) < static_cast<int32_t>(b2.value) ? 1
                                                                         : 0;
      break;
    case isa::Op::kSltu:
      b2 = regs.get(ci.rt);
      dest = ci.rd;
      v = a.value < b2.value ? 1 : 0;
      break;
    case isa::Op::kSlti:
      b2 = mem::TaintedWord{static_cast<uint32_t>(ci.imm)};
      b_imm = true;
      dest = ci.rt;
      v = static_cast<int32_t>(a.value) < ci.imm ? 1 : 0;
      break;
    default:  // kSltiu
      b2 = mem::TaintedWord{static_cast<uint32_t>(ci.imm)};
      b_imm = true;
      dest = ci.rt;
      v = a.value < static_cast<uint32_t>(ci.imm) ? 1 : 0;
      break;
  }
  if ((a.taint | b2.taint) == 0) {
    ++tu.evaluations;
    if (c.policy_.compare_untaints) {
      ++tu.compare_untaints;
      ++st.compare_untaints;
    }
    regs.set(dest, mem::TaintedWord{v});
  } else {
    c.alu_write(ci, dest, v, a, b2, b_imm);
  }
  ++st.alu_ops;
  ++st.instructions;
  // Branch half: beq/bne dest, $zero.  The branch-side compare-untaint rule
  // can never fire here — with the policy on the compare just left `dest`
  // untainted, with it off the rule is gated — so only the condition and
  // the counters remain.
  ++st.branches;
  const uint32_t cv = regs.get(bi.rs).value;
  const bool taken = u.aux ? cv != 0 : cv == 0;
  if (taken) {
    c.pc_ = u.pc + 8 + (static_cast<uint32_t>(bi.imm) << 2);
    ++st.taken_branches;
  } else {
    c.pc_ = u.pc + 8;
  }
  ++st.instructions;
}

inline bool SuperblockEngine::op_jr(Cpu& c, const MicroOp& u) {
  const isa::Instruction& in = u.inst;
  c.pc_ = u.pc;
  const mem::TaintedWord a = c.regs_.get(in.rs);
  ++c.stats_.jumps;
  if (u.elide == 0 && a.tainted() &&
      c.detect_pointer(in, in.rs, a, AlertKind::kTaintedJumpTarget)) {
    return true;
  }
  ++c.stats_.instructions;
  c.pc_ = a.value;
  return false;
}

inline bool SuperblockEngine::op_jalr(Cpu& c, const MicroOp& u) {
  const isa::Instruction& in = u.inst;
  c.pc_ = u.pc;
  const mem::TaintedWord a = c.regs_.get(in.rs);
  ++c.stats_.jumps;
  if (u.elide == 0 && a.tainted() &&
      c.detect_pointer(in, in.rs, a, AlertKind::kTaintedJumpTarget)) {
    return true;
  }
  c.regs_.set(in.rd, mem::TaintedWord{u.pc + 4, mem::kTextAddrMask});
  ++c.stats_.instructions;
  c.pc_ = a.value;
  return false;
}

}  // namespace ptaint::cpu
