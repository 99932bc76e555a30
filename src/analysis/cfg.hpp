// Control-flow graph recovery for assembled PTA-32 programs.
//
// Lifts an asmgen::Program text segment into basic blocks, functions and a
// call graph, ready for the value-set prover (vsa.cpp) and the linter.
//
// Block leaders: the program entry, every function label, every branch /
// jump target, and every instruction following a terminator.  Terminators
// and their successor resolution:
//
//   beq/bne/b..     two edges (target, fallthrough)
//   j               one edge (target)
//   jal             call edge to the callee entry; the instruction after
//                   the jal is registered as a *return site* of the callee
//   jr $ra          function return: edges to every recorded return site
//                   of the enclosing function (the $ra convention)
//   jr $other       unresolved indirect jump: edges to every labeled block
//                   (jump tables target labels) — conservative
//   jalr            unresolved indirect call: call edges to every known
//                   function entry, return flowing back to the site
//   break, invalid  no successors
//   syscall         fallthrough (SYS_EXIT simply never returns)
//
// Functions are the program entry plus every `function_label` the
// assembler identified (jal targets, _start, main); each text address
// belongs to the nearest preceding function entry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "asmgen/assembler.hpp"
#include "isa/isa.hpp"

namespace ptaint::analysis {

struct BasicBlock {
  uint32_t begin = 0;  // first instruction PC
  uint32_t end = 0;    // one past the last instruction PC
  int function = -1;   // index into Cfg::functions

  std::vector<int> succs;       // intra-procedural + return-resolved edges
  std::vector<int> call_succs;  // callee entry blocks (jal/jalr)
  bool returns = false;         // ends in `jr $ra`
  bool indirect_jump = false;   // ends in `jr $other` (not $ra)

  size_t size() const { return (end - begin) / 4; }
};

struct Function {
  std::string name;
  uint32_t entry = 0;
  uint32_t end = 0;                    // one past the last owned PC
  std::vector<int> blocks;             // block indices, ascending by PC
  std::vector<uint32_t> return_sites;  // PCs following calls to this function
};

class Cfg {
 public:
  explicit Cfg(const asmgen::Program& program);
  // The Cfg borrows `program` for its whole lifetime; a temporary would
  // leave program() dangling as soon as the full expression ends.
  explicit Cfg(asmgen::Program&&) = delete;

  const asmgen::Program& program() const { return *program_; }
  const std::vector<isa::Instruction>& instructions() const { return insts_; }
  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  const std::vector<Function>& functions() const { return functions_; }

  /// Instruction at `pc`; pc must lie inside the text segment.
  const isa::Instruction& inst_at(uint32_t pc) const {
    return insts_[index_of(pc)];
  }
  /// Block containing `pc`, or -1 when pc is outside the text segment.
  int block_at(uint32_t pc) const;
  /// Function containing `pc`, or -1.
  int function_at(uint32_t pc) const;

  uint32_t text_begin() const { return text_begin_; }
  uint32_t text_end() const { return text_end_; }
  bool in_text(uint32_t pc) const {
    return pc >= text_begin_ && pc < text_end_;
  }
  size_t index_of(uint32_t pc) const { return (pc - text_begin_) / 4; }

  /// Block indices reachable from the program entry, following both
  /// ordinary and call edges (used by the analyzer and the
  /// unreachable-block lint).
  std::vector<bool> reachable_blocks() const;

 private:
  void decode();
  void find_leaders();
  void build_blocks();
  void wire_edges();

  const asmgen::Program* program_;
  uint32_t text_begin_ = 0;
  uint32_t text_end_ = 0;
  std::vector<isa::Instruction> insts_;
  std::vector<bool> leader_;
  std::vector<BasicBlock> blocks_;
  std::vector<int> block_of_;  // per instruction index
  std::vector<Function> functions_;
  std::map<uint32_t, int> function_by_entry_;
};

}  // namespace ptaint::analysis
