/**
 * @file
 * Encoding helpers for the NOREBA setup instructions (Table 1).
 *
 * setBranchId ID        — imm = ID
 * setDependency NUM ID  — imm packs NUM (bits 0..31), ID (bits 32..47),
 *                         the strict flag (bit 61) and the
 *                         order-sensitive flag (bit 62)
 *
 * The compiler-defined branch ID is a small integer; the hardware's
 * BranchID field in the ROB is 3 bits (Section 4.1), so compiler IDs are
 * assigned modulo the table size (ID 0 is reserved for "no dependency").
 */

#ifndef NOREBA_ISA_SETUP_ENCODING_H
#define NOREBA_ISA_SETUP_ENCODING_H

#include <cstdint>

#include "isa/isa.h"

namespace noreba {

/** Number of usable compiler-assigned branch IDs: 3-bit field, 0 reserved. */
constexpr int NUM_BRANCH_IDS = 8;
constexpr int INVALID_BRANCH_ID = 0;

/** Build a setBranchId instruction. */
inline Instruction
makeSetBranchId(int id)
{
    Instruction inst;
    inst.op = Opcode::SET_BRANCH_ID;
    inst.imm = id;
    return inst;
}

/**
 * Build a setDependency instruction covering `num` instructions.
 *
 * @param orderSensitive  the covered instructions consume values that
 *                        flow through the guard branch's region (data
 *                        dependence), so instances of the guard's
 *                        static site must retire in order before they
 *                        may commit (see CoreConfig enforceInstanceOrder)
 */
inline Instruction
makeSetDependency(int num, int id, bool orderSensitive = true,
                  bool orderStrict = false)
{
    Instruction inst;
    inst.op = Opcode::SET_DEPENDENCY;
    inst.imm = (orderSensitive ? (int64_t{1} << 62) : int64_t{0}) |
               (orderStrict ? (int64_t{1} << 61) : int64_t{0}) |
               (static_cast<int64_t>(id) << 32) |
               static_cast<int64_t>(static_cast<uint32_t>(num));
    return inst;
}

/**
 * @name Decoding
 * Each field has a form on the raw immediate (Instruction::imm, or a
 * trace record's addrOrImm) and one on the instruction.
 * @{
 */

/** The branch ID of a setBranchId immediate. */
inline int
setBranchIdId(int64_t imm)
{
    return static_cast<int>(imm);
}

/** NUM of a setDependency immediate. */
inline int
setDependencyNum(int64_t imm)
{
    return static_cast<int>(imm & 0xffffffff);
}

/** The branch ID of a setDependency immediate. */
inline int
setDependencyId(int64_t imm)
{
    return static_cast<int>((imm >> 32) & 0xffff);
}

/** The order-sensitive flag of a setDependency immediate. */
inline bool
setDependencySensitive(int64_t imm)
{
    return ((imm >> 62) & 1) != 0;
}

/**
 * The strict flag of a setDependency immediate: the covered
 * instructions carry a dependence the marking chain cannot express
 * (e.g. on a conditionally-executed branch whose BIT entry may be
 * stale), so they may only retire when no older branch is unresolved
 * at all (full Condition 5).
 */
inline bool
setDependencyStrict(int64_t imm)
{
    return ((imm >> 61) & 1) != 0;
}

inline int
setBranchIdId(const Instruction &inst)
{
    return setBranchIdId(inst.imm);
}

inline int
setDependencyNum(const Instruction &inst)
{
    return setDependencyNum(inst.imm);
}

inline int
setDependencyId(const Instruction &inst)
{
    return setDependencyId(inst.imm);
}

inline bool
setDependencySensitive(const Instruction &inst)
{
    return setDependencySensitive(inst.imm);
}

inline bool
setDependencyStrict(const Instruction &inst)
{
    return setDependencyStrict(inst.imm);
}
/** @} */

} // namespace noreba

#endif // NOREBA_ISA_SETUP_ENCODING_H
