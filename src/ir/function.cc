#include "ir/function.h"

#include <algorithm>
#include <sstream>

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

std::vector<int>
BasicBlock::impliedSuccs() const
{
    std::vector<int> out;
    auto add = [&out](int tgt) {
        if (tgt >= 0 &&
            std::find(out.begin(), out.end(), tgt) == out.end())
            out.push_back(tgt);
    };
    const Instruction *term = terminator();
    if (term && term->op == Opcode::HALT) {
        // no successors
    } else if (term && isCondBranch(term->op)) {
        add(term->target);
        add(fallthrough);
    } else if (term && term->op == Opcode::JAL) {
        add(term->target);
    } else if (term && term->op == Opcode::JALR) {
        for (int tgt : indirectTargets)
            add(tgt);
    } else {
        add(fallthrough);
    }
    return out;
}

void
Function::computeCFG()
{
    for (auto &bb : blocks_) {
        bb.succs = bb.impliedSuccs();
        bb.preds.clear();
    }
    // Out-of-range targets stay in succs for the verifier to report.
    for (auto &bb : blocks_)
        for (int s : bb.succs)
            if (s < static_cast<int>(blocks_.size()))
                blocks_[s].preds.push_back(bb.id);
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
