// Abstract taint lattice for the static pointer-taintedness prover.
//
// The dynamic detector (src/cpu) tracks one taint bit per byte.  The static
// prover abstracts a whole 32-bit value into a three-point lattice:
//
//     Untainted  <  MaybeTainted  <  Top
//
//   * Untainted     — no byte of the register can be tainted on any
//                     execution reaching this point (a *must* claim; only
//                     these sites are eligible for check elision);
//   * MaybeTainted  — some execution may leave a tainted byte here (input
//                     bytes, and memory the prover cannot name precisely);
//   * Top           — no information (states merged across unresolved
//                     indirect control flow).
//
// Join is max; the transfer function is monotone, so the worklist iteration
// in vsa.cpp terminates.  Soundness direction: the static value
// must always be >= the dynamic taintedness, never below it.
#pragma once

#include <array>
#include <cstdint>

#include "isa/isa.hpp"
#include "mem/taint.hpp"

namespace ptaint::analysis {

enum class Taint : uint8_t {
  kUntainted = 0,
  kMaybeTainted = 1,
  kTop = 2,
};

constexpr Taint join(Taint a, Taint b) { return a < b ? b : a; }

/// True when the abstract value admits a tainted byte — i.e. the dynamic
/// detector could fire on a dereference of this register.
constexpr bool may_be_tainted(Taint t) { return t != Taint::kUntainted; }

constexpr const char* to_string(Taint t) {
  switch (t) {
    case Taint::kUntainted: return "untainted";
    case Taint::kMaybeTainted: return "maybe-tainted";
    case Taint::kTop: return "top";
  }
  return "?";
}

// ---- value sets ------------------------------------------------------------
//
// The memory-aware prover (vsa.cpp) needs to know *where* a register points,
// not just whether it is tainted.  A ValueSet is a coarse abstraction of the
// set of concrete values a register may hold:
//
//        kConst(v)      exactly the constant v
//        kStackRel(c)   exactly (function-entry $sp) + c
//          |    |
//        kDataRegion    some address in [kDataBase, kStackLimit)
//        kStackRegion   some address in [kStackLimit, kStackTop)
//          |    |
//             kAny      anything
//
// Joins of unequal precise values degrade to the region containing both, or
// to kAny across regions.  Region kinds are closed under pointer arithmetic:
// "region + unknown offset" stays in the region.  This is the standard VSA
// in-region assumption — a computed address is assumed not to wander out of
// the allocation area its base came from.  It is *weaker* than full
// soundness (a wild offset can physically reach another region); the
// bidirectional `ptaint-campaign --static-check` leg revalidates it
// empirically against every dynamic alert, like the recovered-CFG caveat
// (docs/ANALYSIS.md).
enum class VsKind : uint8_t {
  kConst = 0,       // exactly `value`
  kStackRel = 1,    // function-entry $sp plus `value` (byte offset)
  kStackRegion = 2, // somewhere in the stack
  kDataRegion = 3,  // somewhere in globals/heap (brk-grown)
  kAny = 4,         // no information
};

/// Coarse address-space classification used when constants collide in a join
/// and when deciding which memory cells a load/store can touch.
enum class Region : uint8_t { kText, kData, kStack, kArgv, kOther };

constexpr Region region_of_addr(uint32_t addr) {
  if (addr >= isa::layout::kStackTop) return Region::kArgv;
  if (addr >= isa::layout::kStackLimit) return Region::kStack;
  if (addr >= isa::layout::kDataBase) return Region::kData;
  if (addr >= isa::layout::kTextBase) return Region::kText;
  return Region::kOther;
}

struct ValueSet {
  VsKind kind = VsKind::kAny;
  int32_t value = 0;  // kConst: the constant; kStackRel: frame byte offset

  static constexpr ValueSet constant(int32_t v) {
    return {VsKind::kConst, v};
  }
  static constexpr ValueSet stack_rel(int32_t off) {
    return {VsKind::kStackRel, off};
  }
  static constexpr ValueSet any() { return {VsKind::kAny, 0}; }
  static constexpr ValueSet stack_region() {
    return {VsKind::kStackRegion, 0};
  }
  static constexpr ValueSet data_region() { return {VsKind::kDataRegion, 0}; }

  bool is_const() const { return kind == VsKind::kConst; }
  bool is_stack_rel() const { return kind == VsKind::kStackRel; }

  bool operator==(const ValueSet&) const = default;
};

constexpr ValueSet join(ValueSet a, ValueSet b) {
  if (a == b) return a;
  if (a.kind == VsKind::kAny || b.kind == VsKind::kAny) {
    return ValueSet::any();
  }
  // Normalize each side to its region class, then join region classes.
  auto region_kind = [](ValueSet v) -> VsKind {
    switch (v.kind) {
      case VsKind::kConst:
        switch (region_of_addr(static_cast<uint32_t>(v.value))) {
          case Region::kData: return VsKind::kDataRegion;
          case Region::kStack: return VsKind::kStackRegion;
          default: return VsKind::kAny;
        }
      case VsKind::kStackRel: return VsKind::kStackRegion;
      default: return v.kind;
    }
  };
  const VsKind ra = region_kind(a);
  const VsKind rb = region_kind(b);
  if (ra == rb && ra != VsKind::kAny) return {ra, 0};
  return ValueSet::any();
}

/// Abstract value of a register or memory cell: taintedness plus value set
/// plus address provenance.
///
/// `aprov` is the static mirror of the dynamic address-provenance planes
/// (mem/taint.hpp): the same 16-bit layout — bit i of the stack/heap/text
/// nibble means "byte i MAY carry that provenance class"; the data nibble is
/// unused here (data taintedness is `taint`).  Unlike `taint`, whose
/// kUntainted is a must-claim, aprov is a pure may-set: join is bitwise OR,
/// 0 means "provably carries no address bytes" and only those values are
/// eligible for leak-check elision.  Byte granularity matters: a formatted
/// output scratch byte must stay provably clean even when the surrounding
/// word once held a saved pointer.
struct AbsVal {
  Taint taint = Taint::kUntainted;
  ValueSet vs = ValueSet::any();
  mem::TaintBits aprov = 0;

  static constexpr AbsVal untainted_any() {
    return {Taint::kUntainted, ValueSet::any(), 0};
  }
  static constexpr AbsVal maybe_any() {
    // An unknown value may be any address: all provenance planes set.
    return {Taint::kMaybeTainted, ValueSet::any(), mem::kAddrMask};
  }
  static constexpr AbsVal untainted_const(int32_t v) {
    return {Taint::kUntainted, ValueSet::constant(v), 0};
  }
  /// Fresh external input (SYS_READ / SYS_RECV bytes): data-tainted but
  /// provenance-free — the kernel overwrote whatever pointer was there.
  static constexpr AbsVal tainted_input() {
    return {Taint::kMaybeTainted, ValueSet::any(), 0};
  }

  bool operator==(const AbsVal&) const = default;
};

constexpr AbsVal join(AbsVal a, AbsVal b) {
  return {join(a.taint, b.taint), join(a.vs, b.vs),
          static_cast<mem::TaintBits>(a.aprov | b.aprov)};
}

/// Abstract register state: the 32 general registers plus HI and LO.
/// $zero is pinned to Untainted by every mutator.
struct RegState {
  static constexpr int kHi = 32;
  static constexpr int kLo = 33;
  static constexpr int kCount = 34;

  std::array<Taint, kCount> regs{};  // value-initialized: all Untainted

  Taint get(int r) const { return regs[static_cast<size_t>(r)]; }
  void set(int r, Taint t) {
    if (r == isa::kZero) return;  // hardwired zero stays untainted
    regs[static_cast<size_t>(r)] = t;
  }

  /// In-place join; returns true when this state changed (worklist driver).
  bool join_with(const RegState& other) {
    bool changed = false;
    for (int i = 0; i < kCount; ++i) {
      const Taint j = join(regs[static_cast<size_t>(i)],
                           other.regs[static_cast<size_t>(i)]);
      if (j != regs[static_cast<size_t>(i)]) {
        regs[static_cast<size_t>(i)] = j;
        changed = true;
      }
    }
    return changed;
  }

  bool operator==(const RegState&) const = default;
};

}  // namespace ptaint::analysis
