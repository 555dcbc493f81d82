/**
 * @file
 * Machine-level IR: basic blocks and functions. The NOREBA branch
 * dependent code detection pass (Section 3 of the paper) operates on
 * this representation, mirroring the paper's machine-level LLVM pass.
 */

#ifndef NOREBA_IR_FUNCTION_H
#define NOREBA_IR_FUNCTION_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.h"

namespace noreba {

/**
 * A basic block: a maximal straight-line instruction sequence with a
 * single entry (the first instruction) and a single exit (the last).
 *
 * Control flow out of a block is given by its final instruction:
 *  - conditional branch: Instruction::target taken, fallthrough()
 *    otherwise;
 *  - JAL: Instruction::target;
 *  - JALR: a computed jump whose possible targets are indirectTargets
 *    (the source operand selects the index — a jump-table idiom);
 *  - HALT: program exit;
 *  - anything else: implicit fallthrough.
 */
struct BasicBlock
{
    int id = -1;
    std::string label;
    std::vector<Instruction> insts;

    /** Fallthrough successor block id (-1 if none, e.g. after JAL). */
    int fallthrough = -1;

    /** Possible targets of a JALR jump-table terminator. */
    std::vector<int> indirectTargets;

    /** @name CFG edges, filled by Function::computeCFG() @{ */
    std::vector<int> succs;
    std::vector<int> preds;
    /** @} */

    bool
    endsInControl() const
    {
        return !insts.empty() && (isControl(insts.back().op) ||
                                  insts.back().op == Opcode::HALT);
    }

    const Instruction *
    terminator() const
    {
        return insts.empty() ? nullptr : &insts.back();
    }

    /** Successor ids the terminator implies, without duplicates: the
     *  edges computeCFG() caches in succs. */
    std::vector<int> impliedSuccs() const;
};

/**
 * A function: an entry block plus a set of basic blocks laid out in id
 * order. verifyStructure() (ir/verifier.h) enforces the invariants
 * the analyses rely on (terminators last, targets in range, a HALT).
 */
class Function
{
  public:
    explicit Function(std::string name = "main") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Append a new empty block; returns its id. */
    int addBlock(std::string label = "");

    BasicBlock &block(int id) { return blocks_[id]; }
    const BasicBlock &block(int id) const { return blocks_[id]; }
    size_t numBlocks() const { return blocks_.size(); }

    std::vector<BasicBlock> &blocks() { return blocks_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }

    int entry() const { return entry_; }

    /** (Re)compute successor/predecessor edges from terminators. */
    void computeCFG();

    /** Total static instruction count. */
    size_t numInsts() const;

    /** Pretty-print the function with annotations, for tests/examples. */
    std::string toString() const;

  private:
    std::string name_;
    std::vector<BasicBlock> blocks_;
    int entry_ = 0;
};

} // namespace noreba

#endif // NOREBA_IR_FUNCTION_H
