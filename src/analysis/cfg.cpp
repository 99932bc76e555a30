#include "analysis/cfg.hpp"

#include <algorithm>

namespace ptaint::analysis {

using isa::Instruction;
using isa::Op;
using isa::OpClass;
namespace layout = isa::layout;

namespace {

bool is_branch(Op op) { return isa::op_class(op) == OpClass::kBranch; }

uint32_t branch_target(const Instruction& inst, uint32_t pc) {
  return pc + 4 + (static_cast<uint32_t>(inst.imm) << 2);
}

/// True when the instruction ends a basic block.
bool is_terminator(const Instruction& inst) {
  switch (isa::op_class(inst.op)) {
    case OpClass::kBranch:
    case OpClass::kJump:
    case OpClass::kJumpReg:
      return true;
    default:
      return inst.op == Op::kBreak || inst.op == Op::kInvalid;
  }
}

}  // namespace

Cfg::Cfg(const asmgen::Program& program) : program_(&program) {
  text_begin_ = layout::kTextBase;
  text_end_ = layout::kTextBase +
              4 * static_cast<uint32_t>(program.text.size());
  decode();
  find_leaders();
  build_blocks();
  wire_edges();
}

void Cfg::decode() {
  insts_.reserve(program_->text.size());
  for (uint32_t word : program_->text) insts_.push_back(isa::decode(word));
}

void Cfg::find_leaders() {
  leader_.assign(insts_.size(), false);
  if (insts_.empty()) return;
  auto mark = [&](uint32_t pc) {
    if (in_text(pc)) leader_[index_of(pc)] = true;
  };
  mark(program_->entry);
  mark(text_begin_);
  // Function entries (jal targets plus _start/main) are leaders; they also
  // seed the function list.
  for (const auto& [addr, name] : program_->function_labels) mark(addr);
  for (size_t i = 0; i < insts_.size(); ++i) {
    const Instruction& inst = insts_[i];
    const uint32_t pc = text_begin_ + 4 * static_cast<uint32_t>(i);
    if (is_branch(inst.op)) mark(branch_target(inst, pc));
    if (inst.op == Op::kJ || inst.op == Op::kJal) mark(inst.target);
    if (is_terminator(inst)) mark(pc + 4);
  }
  // Every label is a leader too: indirect jumps can only target labels, and
  // the linter wants label-granular blocks.
  for (const auto& [addr, name] : program_->text_labels) mark(addr);
}

void Cfg::build_blocks() {
  // Functions first, so blocks can be attributed as they are built.
  // Ownership runs from each function entry to the next one.
  std::vector<std::pair<uint32_t, std::string>> entries(
      program_->function_labels);
  if (!std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
        return e.first == program_->entry;
      })) {
    entries.emplace_back(program_->entry, "<entry>");
  }
  std::sort(entries.begin(), entries.end());
  functions_.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    Function f;
    f.entry = entries[i].first;
    f.name = entries[i].second;
    f.end = i + 1 < entries.size() ? entries[i + 1].first : text_end_;
    function_by_entry_[f.entry] = static_cast<int>(functions_.size());
    functions_.push_back(std::move(f));
  }

  // Every terminator marks the following instruction as a leader, so the
  // block count is exactly the leader count.
  blocks_.reserve(static_cast<size_t>(
      std::count(leader_.begin(), leader_.end(), true)));
  block_of_.assign(insts_.size(), -1);
  // Blocks are built in ascending address order and functions_ is sorted by
  // entry, so a running index replaces the per-block binary search.
  size_t fi = 0;
  size_t i = 0;
  while (i < insts_.size()) {
    BasicBlock bb;
    bb.begin = text_begin_ + 4 * static_cast<uint32_t>(i);
    while (fi + 1 < functions_.size() && functions_[fi + 1].entry <= bb.begin) {
      ++fi;
    }
    bb.function = (fi < functions_.size() &&
                   functions_[fi].entry <= bb.begin && bb.begin < functions_[fi].end)
                      ? static_cast<int>(fi)
                      : -1;
    size_t j = i;
    for (;;) {
      block_of_[j] = static_cast<int>(blocks_.size());
      const bool terminates = is_terminator(insts_[j]);
      ++j;
      if (terminates || j >= insts_.size() || leader_[j]) break;
    }
    bb.end = text_begin_ + 4 * static_cast<uint32_t>(j);
    if (bb.function >= 0) {
      functions_[static_cast<size_t>(bb.function)].blocks.push_back(
          static_cast<int>(blocks_.size()));
    }
    blocks_.push_back(std::move(bb));
    i = j;
  }
}

void Cfg::wire_edges() {
  // First pass: record calls and return sites so `jr $ra` edges can be
  // resolved in the second pass.
  for (BasicBlock& bb : blocks_) {
    const Instruction& last = insts_[index_of(bb.end - 4)];
    const uint32_t last_pc = bb.end - 4;
    auto add_call = [&](uint32_t callee_entry) {
      auto it = function_by_entry_.find(callee_entry);
      const int callee =
          it != function_by_entry_.end() ? it->second : function_at(callee_entry);
      const int callee_block = block_at(callee_entry);
      if (callee < 0 || callee_block < 0) return;
      bb.call_succs.push_back(callee_block);
      functions_[static_cast<size_t>(callee)].return_sites.push_back(last_pc + 4);
    };
    if (last.op == Op::kJal) {
      add_call(last.target);
    } else if (last.op == Op::kJalr) {
      // Unresolved indirect call: any known function entry.
      for (const Function& f : functions_) add_call(f.entry);
    }
  }
  for (BasicBlock& bb : blocks_) {
    const uint32_t last_pc = bb.end - 4;
    const Instruction& last = insts_[index_of(last_pc)];
    auto add_succ = [&](uint32_t pc) {
      const int b = block_at(pc);
      if (b >= 0) bb.succs.push_back(b);
    };
    switch (isa::op_class(last.op)) {
      case OpClass::kBranch:
        add_succ(branch_target(last, last_pc));
        if (last.rs != last.rt || last.op != Op::kBeq) add_succ(last_pc + 4);
        break;
      case OpClass::kJump:
        if (last.op == Op::kJal) {
          // Control continues in the callee (call_succs); execution resumes
          // at last_pc + 4 via the callee's return edges.
        } else {
          add_succ(last.target);
        }
        break;
      case OpClass::kJumpReg:
        if (last.op == Op::kJr && last.rs == isa::kRa) {
          bb.returns = true;
          if (bb.function >= 0) {
            for (uint32_t site :
                 functions_[static_cast<size_t>(bb.function)].return_sites) {
              add_succ(site);
            }
          }
        } else if (last.op == Op::kJr) {
          // Indirect jump: conservatively, any labeled block.
          bb.indirect_jump = true;
          for (const auto& [addr, name] : program_->text_labels) {
            add_succ(addr);
          }
        }
        // jalr: call edges recorded above; return flows to last_pc + 4,
        // which each callee's `jr $ra` reaches through its return sites.
        break;
      default:
        if (last.op != Op::kBreak && last.op != Op::kInvalid) {
          add_succ(last_pc + 4);
        }
        break;
    }
    std::sort(bb.succs.begin(), bb.succs.end());
    bb.succs.erase(std::unique(bb.succs.begin(), bb.succs.end()),
                   bb.succs.end());
  }
  for (Function& f : functions_) {
    std::sort(f.return_sites.begin(), f.return_sites.end());
    f.return_sites.erase(
        std::unique(f.return_sites.begin(), f.return_sites.end()),
        f.return_sites.end());
  }
}

int Cfg::block_at(uint32_t pc) const {
  if (!in_text(pc)) return -1;
  return block_of_[index_of(pc)];
}

int Cfg::function_at(uint32_t pc) const {
  if (functions_.empty() || !in_text(pc)) return -1;
  // functions_ is sorted by entry; find the last entry <= pc.
  int lo = 0, hi = static_cast<int>(functions_.size()) - 1, best = -1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (functions_[static_cast<size_t>(mid)].entry <= pc) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

std::vector<bool> Cfg::reachable_blocks() const {
  std::vector<bool> seen(blocks_.size(), false);
  std::vector<int> stack;
  const int entry = block_at(program_->entry);
  if (entry >= 0) {
    seen[static_cast<size_t>(entry)] = true;
    stack.push_back(entry);
  }
  while (!stack.empty()) {
    const int b = stack.back();
    stack.pop_back();
    const BasicBlock& bb = blocks_[static_cast<size_t>(b)];
    auto visit = [&](int s) {
      if (s >= 0 && !seen[static_cast<size_t>(s)]) {
        seen[static_cast<size_t>(s)] = true;
        stack.push_back(s);
      }
    };
    for (int s : bb.succs) visit(s);
    for (int s : bb.call_succs) visit(s);
  }
  return seen;
}

}  // namespace ptaint::analysis
