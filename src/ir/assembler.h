/**
 * @file
 * Textual assembler for the IR: parses the same RISC-V-flavoured
 * syntax that Function::toString() prints, so programs can be written
 * as strings in tests, examples and experiments and round-tripped
 * through the printer.
 *
 * Syntax:
 *
 * @code
 *   ; comments run to end of line
 *   .data buf 4096            ; allocate a named global (bytes)
 *   .word buf+8 0x1122        ; poke a 64-bit value (also .word32)
 *   .region buf 1             ; alias region for buf-based accesses
 *
 *   entry:
 *       li   x5, 0
 *       li   x6, 10
 *   loop:
 *       addi x5, x5, 1
 *       lw   x7, 0(x18)       ; region comes from the base's .region
 *       blt  x5, x6, loop, exit
 *   exit:
 *       halt
 * @endcode
 *
 * Conventions:
 *  - labels define basic blocks; a block falls through to the next
 *    label unless it ends in a control instruction;
 *  - registers are xN / fN or the ABI names (t0.., s0.., a0.., sp, fp);
 *  - conditional branches take "taken, fallthrough" label pairs (the
 *    printer's "-> label" form is also accepted, with the fallthrough
 *    defaulting to the next block);
 *  - `la xN, name` loads a .data symbol's address;
 *  - setBranchId / setDependency parse the paper's syntax.
 */

#ifndef NOREBA_IR_ASSEMBLER_H
#define NOREBA_IR_ASSEMBLER_H

#include <string>

#include "ir/diagnostics.h"
#include "ir/program.h"

namespace noreba {

/**
 * What assemble() hands back; it never throws or exits. A source
 * that does not parse leaves `error` set; one that parses into a
 * malformed program leaves verifyStructure()'s findings in
 * `diagnostics`, with `program` holding the CFG but no layout.
 */
struct AssembleResult
{
    Program program;
    std::string error;       //!< "line N: message"; empty once parsed
    Diagnostics diagnostics; //!< structural findings of a parsed program

    bool ok() const { return error.empty() && !diagnostics.errorCount(); }
};

/**
 * Assemble a textual program. On success the returned Program is
 * finalized (CFG computed, verified, laid out).
 *
 * @param source  assembly text
 * @param name    program name
 */
AssembleResult assemble(const std::string &source,
                        const std::string &name = "asm");

} // namespace noreba

#endif // NOREBA_IR_ASSEMBLER_H
