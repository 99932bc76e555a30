// Out-of-line slow paths called from JIT-emitted code (DESIGN.md §12).
//
// A micro-op whose emitted fast path bails out — tainted operand, memo
// miss, misalignment, store near text, detector site — calls a helper that
// runs the superblock engine's own handler body for it
// (superblock_handlers.hpp): the interpreted and the compiled engine share
// one definition of every micro-op's semantics, detector sites included.
// alu_slow is the exception: it finishes an ALU op whose value the emitted
// code already computed, through the same Cpu::alu_write call the
// superblock's ALU handlers make.
//
// Calls that need no compensation go to the handler body directly, with no
// helper: kMulDiv (no fast path, so no flush constants) and the terminator
// slow paths (the block flushes the preceding micro-ops first, and the body
// bumps the terminator's own counters and sets pc_).
//
// Counter contract: the emitted block defers all fast-path counter bumps to
// its exit flushes, which add each retired micro-op's compile-time constant
// contribution.  A mid-block helper therefore *pre-subtracts* its own
// micro-op's constants before calling the handler body (which re-bumps the
// true amounts): if the block later exits normally, the final flush
// re-adds the constants and the net effect equals the reference; if the
// helper stops the machine, the emitted stop stub flushes the inclusive
// prefix — constants for every micro-op up to and including this one — and
// the pre-subtract cancels against it, leaving exactly the reference's
// partial bumps.
//
// Status returns: 0 = continue in the block, 1 = leave host code (machine
// stopped, or a store retired this block — pc_ is final either way).
#pragma once

#include <cstdint>

#include "cpu/superblock.hpp"

namespace ptaint::cpu {

struct JitRuntime {
  using MicroOp = SuperblockEngine::MicroOp;
  using Block = SuperblockEngine::Block;

  // Mid-block, compensated.
  static void alu_slow(Cpu* c, const MicroOp* u, uint32_t v);
  static uint64_t lw_slow(Cpu* c, const MicroOp* u);
  static uint64_t load_other_slow(Cpu* c, const MicroOp* u);
  static uint64_t sw_slow(Cpu* c, const MicroOp* u, const Block* blk);
  static uint64_t store_small_slow(Cpu* c, const MicroOp* u, const Block* blk);
  static uint64_t addr_lw_slow(Cpu* c, const MicroOp* u);
  static uint64_t addr_sw_slow(Cpu* c, const MicroOp* u, const Block* blk);
};

}  // namespace ptaint::cpu
