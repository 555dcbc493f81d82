/**
 * @file
 * The IR/Program verifier: each structural lint rule implemented once
 * and reported as a rule-id Finding (see diagnostics.h). The (S) rules
 * are verifyStructure(): what a Program must pass before anything
 * indexes it. Program::finalize() fatal()s on its first finding and
 * assemble() hands its findings back. verifyProgram() adds the
 * report-only rules, for noreba-verify and the tests.
 *
 *  CFG well-formedness
 *   - cfg-entry           (S) no blocks, or entry block id out of range
 *   - cfg-terminator      (S) control/HALT instruction not at block
 *                             end, invalid branch/jump/indirect
 *                             targets, missing fallthrough
 *   - cfg-stale-edges         succ/pred edges inconsistent with the
 *                             terminators (computeCFG not re-run)
 *   - cfg-unreachable         block unreachable from the entry (warning)
 *   - cfg-no-exit         (S) no HALT anywhere; report-only: a HALT
 *                             exists but none is reachable
 *   - cfg-no-exit-path        block cannot reach any HALT (warning;
 *                             infinite loop)
 *
 *  Encoding invariants
 *   - encode-register     (S) register field outside [REG_NONE,
 *                             NUM_ARCH_REGS)
 *   - encode-operands         operand shape wrong for the opcode class
 *                             (branch without sources, load without a
 *                             destination, ...)
 *
 *  Setup-instruction placement and BranchID-field limits
 *   - setup-id-range          setBranchId ID outside [1, NUM_BRANCH_IDS)
 *                             or setDependency ID outside
 *                             [0, NUM_BRANCH_IDS)
 *   - setup-misplaced-branch-id  setBranchId not immediately followed
 *                             (modulo other setup instructions) by a
 *                             branch site in the same block
 *   - setup-dep-extent    (S) setDependency region covering fewer real
 *                             instructions than NUM before the block end
 *   - setup-dep-overlap       setDependency while an earlier region is
 *                             still active
 *   - setup-dep-empty     (S) setDependency with NUM <= 0
 *   - setup-dep-id0-lax       region with ID 0 (no guard) that is not
 *                             flagged strict — it would silently track
 *                             nothing
 *
 * A reachable HALT is report-only: generated CFGs carry unreachable
 * ones (randomCfg in tests/reaching_defs_test.cc).
 *
 * Neither entry point mutates the Program. Both return true when no
 * Error-severity findings were added (warnings/notes allowed).
 */

#ifndef NOREBA_IR_VERIFIER_H
#define NOREBA_IR_VERIFIER_H

#include "ir/diagnostics.h"
#include "ir/program.h"

namespace noreba {

/** Run the (S) rules over `prog`; append findings to `diag`. */
bool verifyStructure(const Program &prog, Diagnostics &diag);

/** Run every rule over `prog`; append findings to `diag`. */
bool verifyProgram(const Program &prog, Diagnostics &diag);

} // namespace noreba

#endif // NOREBA_IR_VERIFIER_H
