// JIT execution tier: hot superblocks compiled to host x86-64 with the
// taint propagation rules, address-provenance merging and policy checks
// inlined into the emitted code (DESIGN.md §12).
//
// The tier sits on top of the superblock engine and reuses its machinery
// end to end: translation produces the same micro-op arrays, heat counts
// trampoline entries, SMC and snapshot invalidation ride the existing
// graveyard path, and cold or non-JITable blocks (syscalls, breaks) run
// through the interpreted dispatch loop unchanged.  The step interpreter
// remains the differential oracle — emitted code obeys the same identity
// contract as the superblock handlers: byte-identical architectural state,
// stop reasons, alerts, CpuStats and TaintUnit::Stats, including counter
// ordering around early stops.
//
// Fast/slow split: each micro-op's emitted body handles the untainted,
// memo-hit, aligned case inline and, for everything else, calls the
// superblock engine's handler body for that micro-op (through a JitRuntime
// helper where counters need compensating).  Counter bumps are deferred:
// the fast paths bump nothing, each exit path adds the exact compile-time
// counter sums for the micro-ops it retired, and mid-block helpers
// pre-subtract their own fast-path constants before calling the handler
// body, so the net effect equals the reference interpreter on every path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "cpu/superblock.hpp"

namespace ptaint::cpu {

class JitEngine {
 public:
  JitEngine(SuperblockEngine& sb, Cpu& cpu);
  ~JitEngine();
  JitEngine(const JitEngine&) = delete;
  JitEngine& operator=(const JitEngine&) = delete;

  /// True when this host can run emitted code (x86-64 unix).  On other
  /// hosts Cpu::set_engine(kJit) falls back to the superblock engine with a
  /// one-line warning.  PTAINT_JIT_FORCE_UNSUPPORTED=1 forces the fallback
  /// for testing.
  static bool supported();

  /// The trampoline: same budget semantics as SuperblockEngine::advance.
  /// Compiled blocks run as host code; cold or non-JITable blocks run
  /// through the interpreted dispatch loop in bounded slices so hot code
  /// keeps returning here to accrue heat.
  StopReason advance(uint64_t n);

  /// Rewinds the code arena.  Only legal when every translation is gone
  /// (SuperblockEngine::reset), since a retired block's host code may be
  /// the caller's own frame otherwise.
  void on_reset();

  /// A compiled block was retired into the graveyard (SMC / snapshot
  /// delta).  Its host code stays in the arena until on_reset(), but every
  /// cross-block chain is unpatched so no live block can jump into it.
  void note_block_dropped(const SuperblockEngine::Block& blk);

  const JitStats& stats() const { return stats_; }

 private:
  using Block = SuperblockEngine::Block;
  using MicroOp = SuperblockEngine::MicroOp;

  /// Per-call state handed to emitted code (standard layout; emitted code
  /// addresses fields by offsetof).
  struct Context {
    Cpu* cpu = nullptr;
    mem::TaintedWord* regs = nullptr;  // register file flat slots
    mem::TaintedMemory* mem = nullptr;
    // Guest instructions the block may retire *beyond* the current pass:
    // the trampoline stores remaining - guest_len before the call, and the
    // self-loop back edge re-debits guest_len per iteration, so tight loops
    // spin entirely in host code without overshooting the budget.
    uint64_t budget = 0;
  };

  /// Byte offsets of the Cpu/TaintedMemory fields the emitted code touches,
  /// measured from live objects (the owning classes are not standard
  /// layout).
  struct HotOffsets {
    int32_t pc;
    int32_t st_instructions;
    int32_t st_alu_ops;
    int32_t st_loads;
    int32_t st_stores;
    int32_t st_branches;
    int32_t st_taken_branches;
    int32_t st_jumps;
    int32_t st_compare_untaints;
    int32_t tu_evaluations;
    int32_t tu_tainted_evaluations;
    int32_t tu_compare_untaints;
    int32_t tu_and_zero_untaints;
    int32_t tu_xor_self_untaints;
    int32_t mem_memo_index;
    int32_t mem_memo_page;
    int32_t mem_wmemo_index;
    int32_t mem_wmemo_page;
    int32_t page_data;
    int32_t page_summary;
  };

  /// Compiles `blk` into the code arena; on success sets blk.host.  On a
  /// bailout (syscall/break block, arena full) latches blk.no_jit so the
  /// block stays interpreted.
  void compile(Block& blk);

  // --- cross-block chaining ------------------------------------------------
  // Every compile-time-known exit (J/JAL, both branch sides, block fall-off)
  // ends in `mov pc, imm; jmp epilogue` with the jmp's rel32 recorded as a
  // chain site.  When both source and target blocks are compiled, the site
  // is patched to a budget-check thunk that jumps straight into the target's
  // body (past its prologue — the pinned registers are identical), so hot
  // multi-block loops never leave host code.  Invalidating any compiled
  // block unpatches every site back to the source epilogue; surviving sites
  // re-link on the next compile().

  /// One patchable exit jmp in the arena.
  struct ChainExit {
    uint32_t source_entry;   // entry pc of the block owning the site
    uint32_t target_pc;      // guest pc the exit transfers to
    uint8_t* site;           // the jmp's rel32 operand in the arena
    const uint8_t* epilogue; // unpatched destination (source epilogue)
    bool patched = false;
  };
  /// Entry point of a compiled block's body (after the prologue).
  struct CompiledBody {
    const uint8_t* top;
    uint32_t guest_len;
  };

  /// Indirect-target cache: a direct-mapped guest-pc → compiled-body table
  /// probed inline by emitted JR/JALR exits, so returns and computed jumps
  /// chain host-to-host too.  The sentinel pc ~0u is misaligned and the
  /// probe rejects misaligned targets first, so empty slots never match.
  struct IndirectEntry {
    uint32_t pc = ~0u;
    uint32_t guest_len = 0;
    const uint8_t* top = nullptr;
  };
  static constexpr uint32_t kIndirectSlots = 1024;  // power of two
  static constexpr uint32_t kIndirectMask = kIndirectSlots - 1;

  /// Patches every unpatched chain site whose target is compiled and
  /// refreshes the indirect-target cache from compiled_.
  void link_chains();
  /// Reverts every patched site, empties the indirect-target cache, and
  /// drops state owned by `dead_entry`.
  void unlink_chains(uint32_t dead_entry);

  SuperblockEngine& sb_;
  Cpu& cpu_;
  Context ctx_;
  HotOffsets off_;
  uint8_t* arena_ = nullptr;  // RWX mapping; bump-allocated, rewound on reset
  size_t arena_cap_ = 0;
  size_t arena_used_ = 0;
  JitStats stats_;
  std::unordered_map<uint32_t, CompiledBody> compiled_;  // by entry pc
  std::vector<ChainExit> chain_exits_;
  std::vector<IndirectEntry> itable_;  // fixed size; data() baked into code
};

}  // namespace ptaint::cpu
