#include "ir/verifier.h"

#include <algorithm>

#include "isa/setup_encoding.h"

namespace noreba {

namespace {

SourceLoc
locOf(const Function &fn, int bb, int idx = -1)
{
    SourceLoc loc;
    loc.block = bb;
    if (bb >= 0 && bb < static_cast<int>(fn.numBlocks()))
        loc.blockLabel = fn.block(bb).label;
    loc.instIdx = idx;
    return loc;
}

bool
validBlockId(int id, int n)
{
    return id >= 0 && id < n;
}

/** Rule: the entry names a block. False: no other rule can run. */
bool
checkEntry(const Function &fn, Diagnostics &diag)
{
    const int n = static_cast<int>(fn.numBlocks());
    if (validBlockId(fn.entry(), n))
        return true;
    diag.error("cfg-entry", SourceLoc{},
               "entry block " + std::to_string(fn.entry()) +
                   " out of range (" + std::to_string(n) + " blocks)");
    return false;
}

/** Rule group: terminator placement and target validity. */
void
checkTerminators(const Function &fn, Diagnostics &diag)
{
    const int n = static_cast<int>(fn.numBlocks());
    for (const auto &bb : fn.blocks()) {
        for (size_t i = 0; i + 1 < bb.insts.size(); ++i) {
            const auto &inst = bb.insts[i];
            if (isControl(inst.op) || inst.op == Opcode::HALT) {
                diag.error("cfg-terminator",
                           locOf(fn, bb.id, static_cast<int>(i)),
                           std::string(opcodeName(inst.op)) +
                               " not at block end");
            }
        }
        const Instruction *term = bb.terminator();
        int termIdx = static_cast<int>(bb.insts.size()) - 1;
        if (!term) {
            if (!validBlockId(bb.fallthrough, n))
                diag.error("cfg-terminator", locOf(fn, bb.id),
                           "empty block without fallthrough");
            continue;
        }
        if (isCondBranch(term->op)) {
            if (!validBlockId(term->target, n))
                diag.error("cfg-terminator", locOf(fn, bb.id, termIdx),
                           "branch target " +
                               std::to_string(term->target) +
                               " out of range");
            if (!validBlockId(bb.fallthrough, n))
                diag.error("cfg-terminator", locOf(fn, bb.id, termIdx),
                           "conditional branch without fallthrough");
        } else if (term->op == Opcode::JAL) {
            if (!validBlockId(term->target, n))
                diag.error("cfg-terminator", locOf(fn, bb.id, termIdx),
                           "jump target " +
                               std::to_string(term->target) +
                               " out of range");
        } else if (term->op == Opcode::JALR) {
            if (bb.indirectTargets.empty())
                diag.error("cfg-terminator", locOf(fn, bb.id, termIdx),
                           "jalr with no indirect targets");
            for (int tgt : bb.indirectTargets)
                if (!validBlockId(tgt, n))
                    diag.error("cfg-terminator",
                               locOf(fn, bb.id, termIdx),
                               "indirect target " +
                                   std::to_string(tgt) +
                                   " out of range");
        } else if (term->op != Opcode::HALT &&
                   !validBlockId(bb.fallthrough, n)) {
            diag.error("cfg-terminator", locOf(fn, bb.id, termIdx),
                       "no terminator and no fallthrough");
        }
    }
}

bool
isHalt(const BasicBlock &bb)
{
    const Instruction *term = bb.terminator();
    return term && term->op == Opcode::HALT;
}

/**
 * Rule group: a HALT exists; with `all`, also edge caches vs.
 * terminators, reachability and exits.
 */
void
checkCfgShape(const Function &fn, Diagnostics &diag, bool all)
{
    const int n = static_cast<int>(fn.numBlocks());
    if (std::none_of(fn.blocks().begin(), fn.blocks().end(), isHalt)) {
        diag.error("cfg-no-exit", locOf(fn, -1),
                   "function has no HALT (program cannot terminate)");
        return;
    }
    if (!all)
        return;

    // Edge caches must match what the terminators imply (a mutation
    // after the last computeCFG would desynchronize every analysis).
    for (const auto &bb : fn.blocks()) {
        std::vector<int> want = bb.impliedSuccs();
        std::vector<int> have = bb.succs;
        std::sort(want.begin(), want.end());
        std::sort(have.begin(), have.end());
        if (want != have)
            diag.error("cfg-stale-edges", locOf(fn, bb.id),
                       "cached successor edges do not match the "
                       "terminator (computeCFG not re-run?)");
    }

    // Forward reachability from the entry (checkEntry() vouched for
    // it), over implied edges so the result holds even when the caches
    // are stale.
    std::vector<bool> reachable(n, false);
    std::vector<int> stack{fn.entry()};
    reachable[fn.entry()] = true;
    while (!stack.empty()) {
        int b = stack.back();
        stack.pop_back();
        for (int s : fn.block(b).impliedSuccs()) {
            if (validBlockId(s, n) && !reachable[s]) {
                reachable[s] = true;
                stack.push_back(s);
            }
        }
    }
    for (int b = 0; b < n; ++b)
        if (!reachable[b])
            diag.warning("cfg-unreachable", locOf(fn, b),
                         "block unreachable from the entry");

    // Backward reachability from HALT blocks.
    std::vector<std::vector<int>> preds(n);
    for (int b = 0; b < n; ++b)
        for (int s : fn.block(b).impliedSuccs())
            if (validBlockId(s, n))
                preds[s].push_back(b);
    std::vector<bool> exits(n, false);
    bool sawHalt = false;
    for (int b = 0; b < n; ++b) {
        if (isHalt(fn.block(b))) {
            sawHalt = sawHalt || reachable[b];
            exits[b] = true;
            stack.push_back(b);
        }
    }
    if (!sawHalt) {
        diag.error("cfg-no-exit", locOf(fn, -1),
                   "no HALT reachable from the entry (program cannot "
                   "terminate)");
        return;
    }
    while (!stack.empty()) {
        int b = stack.back();
        stack.pop_back();
        for (int p : preds[b]) {
            if (!exits[p]) {
                exits[p] = true;
                stack.push_back(p);
            }
        }
    }
    for (int b = 0; b < n; ++b)
        if (reachable[b] && !exits[b])
            diag.warning("cfg-no-exit-path", locOf(fn, b),
                         "block cannot reach any HALT (infinite loop)");
}

/**
 * Rule group: register fields in range; with `all`, also operand
 * shapes per opcode class.
 */
void
checkEncoding(const Function &fn, Diagnostics &diag, bool all)
{
    auto regOk = [](Reg r) {
        return r >= REG_NONE && r < static_cast<Reg>(NUM_ARCH_REGS);
    };
    for (const auto &bb : fn.blocks()) {
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            SourceLoc loc = locOf(fn, bb.id, static_cast<int>(i));
            for (Reg r : {inst.rd, inst.rs1, inst.rs2, inst.rs3}) {
                if (!regOk(r)) {
                    diag.error("encode-register", loc,
                               std::string(opcodeName(inst.op)) +
                                   ": register field " +
                                   std::to_string(r) +
                                   " out of range");
                }
            }
            if (!all)
                continue;
            if (isCondBranch(inst.op) &&
                (inst.rs1 == REG_NONE || inst.rs2 == REG_NONE))
                diag.error("encode-operands", loc,
                           "conditional branch missing a source "
                           "register");
            if (isMem(inst.op) && inst.rs1 == REG_NONE)
                diag.error("encode-operands", loc,
                           "memory access without a base register");
            if (isStore(inst.op) && inst.rs2 == REG_NONE)
                diag.error("encode-operands", loc,
                           "store without a data register");
            if (isLoad(inst.op) && inst.rd == REG_NONE)
                diag.warning("encode-operands", loc,
                             "load discards its result (rd none)");
            if (isSetup(inst.op) &&
                (inst.rd != REG_NONE || inst.rs1 != REG_NONE ||
                 inst.rs2 != REG_NONE || inst.rs3 != REG_NONE))
                diag.warning("encode-operands", loc,
                             "setup instruction carries register "
                             "fields");
        }
    }
}

/**
 * Rule group: dependency regions non-empty and inside their block;
 * with `all`, also BranchID limits and setup-instruction placement.
 * Regions count real instructions, exactly like the decode stage.
 */
void
checkSetupRecords(const Function &fn, Diagnostics &diag, bool all)
{
    for (const auto &bb : fn.blocks()) {
        int pendingIdIdx = -1;   // index of an unconsumed setBranchId
        int regionLeft = 0;      // real instructions left in a region
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            SourceLoc loc = locOf(fn, bb.id, static_cast<int>(i));
            if (inst.op == Opcode::SET_BRANCH_ID) {
                int id = setBranchIdId(inst);
                if (all && (id < 1 || id >= NUM_BRANCH_IDS))
                    diag.error("setup-id-range", loc,
                               "setBranchId ID " + std::to_string(id) +
                                   " outside [1, " +
                                   std::to_string(NUM_BRANCH_IDS) +
                                   ")");
                if (all && pendingIdIdx >= 0)
                    diag.error("setup-misplaced-branch-id",
                               locOf(fn, bb.id, pendingIdIdx),
                               "setBranchId overwritten before any "
                               "branch consumed it");
                pendingIdIdx = static_cast<int>(i);
                continue;
            }
            if (inst.op == Opcode::SET_DEPENDENCY) {
                int num = setDependencyNum(inst);
                int id = setDependencyId(inst);
                if (num <= 0)
                    diag.error("setup-dep-empty", loc,
                               "setDependency with NUM " +
                                   std::to_string(num));
                if (all && (id < 0 || id >= NUM_BRANCH_IDS))
                    diag.error("setup-id-range", loc,
                               "setDependency ID " +
                                   std::to_string(id) +
                                   " outside [0, " +
                                   std::to_string(NUM_BRANCH_IDS) +
                                   ")");
                if (all && id == 0 && !setDependencyStrict(inst))
                    diag.warning("setup-dep-id0-lax", loc,
                                 "region with ID 0 (no guard) not "
                                 "flagged strict tracks nothing");
                if (all && regionLeft > 0)
                    diag.error("setup-dep-overlap", loc,
                               "setDependency while " +
                                   std::to_string(regionLeft) +
                                   " instruction(s) of the previous "
                                   "region remain");
                regionLeft = std::max(num, 0);
                continue;
            }
            // A real instruction: consumes the pending setBranchId and
            // one region slot, exactly like the decode stage.
            if (pendingIdIdx >= 0) {
                if (all && !isCondBranch(inst.op) &&
                    inst.op != Opcode::JALR)
                    diag.error("setup-misplaced-branch-id",
                               locOf(fn, bb.id, pendingIdIdx),
                               "setBranchId arms a non-branch "
                               "instruction (" +
                                   std::string(opcodeName(inst.op)) +
                                   ")");
                pendingIdIdx = -1;
            }
            if (regionLeft > 0)
                --regionLeft;
        }
        if (all && pendingIdIdx >= 0)
            diag.error("setup-misplaced-branch-id",
                       locOf(fn, bb.id, pendingIdIdx),
                       "setBranchId not consumed before the block "
                       "end");
        if (regionLeft > 0)
            diag.error("setup-dep-extent", locOf(fn, bb.id),
                       "dependency region extends " +
                           std::to_string(regionLeft) +
                           " instruction(s) past the block end");
    }
}

/** The (S) rules, plus every report-only rule when `all` is set. */
bool
verify(const Program &prog, Diagnostics &diag, bool all)
{
    const Function &fn = prog.function();
    const int before = diag.errorCount();
    if (!checkEntry(fn, diag))
        return false;
    checkTerminators(fn, diag);
    checkCfgShape(fn, diag, all);
    checkEncoding(fn, diag, all);
    checkSetupRecords(fn, diag, all);
    return diag.errorCount() == before;
}

} // namespace

bool
verifyStructure(const Program &prog, Diagnostics &diag)
{
    return verify(prog, diag, false);
}

bool
verifyProgram(const Program &prog, Diagnostics &diag)
{
    return verify(prog, diag, true);
}

} // namespace noreba
