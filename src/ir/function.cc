#include "ir/function.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "isa/setup_encoding.h"

namespace noreba {

int
Function::addBlock(std::string label)
{
    BasicBlock bb;
    bb.id = static_cast<int>(blocks_.size());
    bb.label = label.empty() ? ("bb" + std::to_string(bb.id))
                             : std::move(label);
    blocks_.push_back(std::move(bb));
    return blocks_.back().id;
}

void
Function::computeCFG()
{
    for (auto &bb : blocks_) {
        bb.succs.clear();
        bb.preds.clear();
    }
    for (auto &bb : blocks_) {
        const Instruction *term = bb.terminator();
        auto addSucc = [&](int tgt) {
            if (tgt >= 0 &&
                std::find(bb.succs.begin(), bb.succs.end(), tgt) ==
                    bb.succs.end()) {
                bb.succs.push_back(tgt);
            }
        };
        if (term && term->op == Opcode::HALT) {
            // no successors
        } else if (term && isCondBranch(term->op)) {
            addSucc(term->target);
            addSucc(bb.fallthrough);
        } else if (term && term->op == Opcode::JAL) {
            addSucc(term->target);
        } else if (term && term->op == Opcode::JALR) {
            for (int tgt : bb.indirectTargets)
                addSucc(tgt);
        } else {
            addSucc(bb.fallthrough);
        }
    }
    for (auto &bb : blocks_)
        for (int s : bb.succs)
            blocks_[s].preds.push_back(bb.id);
}

std::string
Function::verify() const
{
    const int n = static_cast<int>(blocks_.size());
    if (n == 0)
        return "function has no blocks";
    if (entry_ < 0 || entry_ >= n)
        return "entry block out of range";

    bool sawHalt = false;
    for (const auto &bb : blocks_) {
        // Control instructions may only terminate a block.
        for (size_t i = 0; i + 1 < bb.insts.size(); ++i) {
            const auto &inst = bb.insts[i];
            if (isControl(inst.op) || inst.op == Opcode::HALT) {
                return "block " + bb.label +
                       ": control instruction not at block end";
            }
        }
        const Instruction *term = bb.terminator();
        if (term) {
            if (isCondBranch(term->op)) {
                if (term->target < 0 || term->target >= n)
                    return "block " + bb.label + ": branch target invalid";
                if (bb.fallthrough < 0 || bb.fallthrough >= n)
                    return "block " + bb.label + ": missing fallthrough";
            } else if (term->op == Opcode::JAL) {
                if (term->target < 0 || term->target >= n)
                    return "block " + bb.label + ": jump target invalid";
            } else if (term->op == Opcode::JALR) {
                if (bb.indirectTargets.empty())
                    return "block " + bb.label + ": jalr with no targets";
                for (int tgt : bb.indirectTargets)
                    if (tgt < 0 || tgt >= n)
                        return "block " + bb.label +
                               ": indirect target invalid";
            } else if (term->op == Opcode::HALT) {
                sawHalt = true;
            } else if (bb.fallthrough < 0 || bb.fallthrough >= n) {
                return "block " + bb.label +
                       ": no terminator and no fallthrough";
            }
        } else if (bb.fallthrough < 0 || bb.fallthrough >= n) {
            return "block " + bb.label + ": empty block without fallthrough";
        }
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const auto &inst = bb.insts[i];
            // The pass and the interpreter index arrays by register.
            for (Reg r : {inst.rd, inst.rs1, inst.rs2, inst.rs3})
                if (r < REG_NONE || r >= NUM_ARCH_REGS)
                    return "block " + bb.label + ": register " +
                           std::to_string(r) + " out of range";
            // setDependency regions must not extend past the block end.
            if (inst.op == Opcode::SET_DEPENDENCY) {
                int num = setDependencyNum(inst);
                if (num <= 0)
                    return "block " + bb.label + ": empty dependency region";
                if (i + 1 + static_cast<size_t>(num) > bb.insts.size())
                    return "block " + bb.label +
                           ": dependency region crosses block boundary";
            }
        }
    }
    if (!sawHalt)
        return "function has no HALT (program must terminate)";
    return "";
}

size_t
Function::numInsts() const
{
    size_t n = 0;
    for (const auto &bb : blocks_)
        n += bb.insts.size();
    return n;
}

std::string
Function::toString() const
{
    std::ostringstream os;
    os << "function " << name_ << " (entry " << blocks_[entry_].label
       << ")\n";
    for (const auto &bb : blocks_) {
        os << bb.label << ":";
        if (!bb.succs.empty()) {
            os << "    ; succs:";
            for (int s : bb.succs)
                os << ' ' << blocks_[s].label;
        }
        os << '\n';
        for (const auto &inst : bb.insts) {
            std::string text = inst.toString();
            // Replace the raw "-> bbN" block-id suffix with the label.
            if (inst.target >= 0) {
                auto pos = text.rfind(" -> ");
                if (pos != std::string::npos)
                    text = text.substr(0, pos) + " -> " +
                           blocks_[inst.target].label;
            }
            os << "    " << text << '\n';
        }
    }
    return os.str();
}

} // namespace noreba
