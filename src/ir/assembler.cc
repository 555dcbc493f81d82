#include "ir/assembler.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "ir/verifier.h"
#include "isa/setup_encoding.h"

namespace noreba {

namespace {

/** One tokenized source line, keeping the raw text for diagnostics. */
struct Line
{
    int number = 0;
    std::vector<std::string> tokens;
    std::string text;
};

/** Split a line into tokens; commas and parentheses separate. */
std::vector<std::string>
tokenize(const std::string &text)
{
    std::vector<std::string> tokens;
    std::string cur;
    for (char c : text) {
        if (c == ';' || c == '#')
            break; // comment
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
            c == '(' || c == ')') {
            if (!cur.empty()) {
                tokens.push_back(cur);
                cur.clear();
            }
            if (c == '(' || c == ')')
                tokens.push_back(std::string(1, c));
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        tokens.push_back(cur);
    return tokens;
}

const std::map<std::string, Reg> &
regNames()
{
    static const std::map<std::string, Reg> names = [] {
        // "x" + i, built with append: GCC 12 warns (-Wrestrict) on the
        // inlined literal-plus-string operator.
        auto numbered = [](char prefix, int i) {
            std::string s(1, prefix);
            s += std::to_string(i);
            return s;
        };
        std::map<std::string, Reg> m;
        for (int i = 0; i < NUM_INT_REGS; ++i)
            m[numbered('x', i)] = static_cast<Reg>(i);
        for (int i = 0; i < NUM_FP_REGS; ++i)
            m[numbered('f', i)] = freg(i);
        m["zero"] = 0;
        m["ra"] = 1;
        m["sp"] = REG_SP;
        m["gp"] = 3;
        m["tp"] = 4;
        m["t0"] = 5;
        m["t1"] = 6;
        m["t2"] = 7;
        m["fp"] = REG_FP;
        m["s0"] = REG_FP;
        m["s1"] = 9;
        for (int i = 0; i <= 7; ++i)
            m[numbered('a', i)] = static_cast<Reg>(10 + i);
        for (int i = 2; i <= 11; ++i)
            m[numbered('s', i)] = static_cast<Reg>(16 + i);
        for (int i = 3; i <= 6; ++i)
            m[numbered('t', i)] = static_cast<Reg>(25 + i);
        return m;
    }();
    return names;
}

const std::map<std::string, Opcode> &
mnemonics()
{
    static const std::map<std::string, Opcode> m = [] {
        std::map<std::string, Opcode> out;
        for (int i = 0; i < static_cast<int>(Opcode::NUM_OPCODES); ++i) {
            Opcode op = static_cast<Opcode>(i);
            out[opcodeName(op)] = op;
        }
        // Immediate aliases (all map to the reg/imm dual-form opcodes).
        out["addi"] = Opcode::ADD;
        out["andi"] = Opcode::AND;
        out["ori"] = Opcode::OR;
        out["xori"] = Opcode::XOR;
        out["slli"] = Opcode::SLL;
        out["srli"] = Opcode::SRL;
        out["srai"] = Opcode::SRA;
        out["slti"] = Opcode::SLT;
        out["li"] = Opcode::LUI;
        out["la"] = Opcode::LUI;
        out["mv"] = Opcode::ADD;
        return out;
    }();
    return m;
}

/** Assembler state while walking the source. */
class Assembler
{
  public:
    explicit Assembler(const std::string &name) : prog_(name) {}

    AssembleResult
    runOn(const std::string &source)
    {
        std::istringstream in(source);
        std::string text;
        int number = 0;
        std::vector<Line> body;
        while (std::getline(in, text)) {
            ++number;
            Line line{number, tokenize(text), text};
            if (line.tokens.empty())
                continue;
            if (line.tokens[0][0] == '.') {
                if (!directive(line))
                    return fail();
            } else {
                body.push_back(std::move(line));
            }
        }
        if (!collectLabels(body))
            return fail();
        for (const Line &line : body) {
            if (!emit(line))
                return fail();
        }
        finishBlocks();

        AssembleResult result;
        result.program = std::move(prog_);
        result.diagnostics = Diagnostics(result.program.name());
        result.program.function().computeCFG();
        if (verifyStructure(result.program, result.diagnostics))
            result.program.finalize();
        return result;
    }

  private:
    AssembleResult
    fail()
    {
        AssembleResult result;
        result.error = error_;
        return result;
    }

    bool
    errorAt(int line, const std::string &msg)
    {
        error_ = "line " + std::to_string(line);
        if (!curLabel_.empty()) {
            error_ += " (in '";
            error_ += curLabel_;
            error_ += "')";
        }
        error_ += ": " + msg;
        if (curLine_ && curLine_->number == line &&
            !curLine_->text.empty()) {
            error_ += "\n  ";
            error_ += curLine_->text;
        }
        return false;
    }

    bool
    parseInt(const std::string &tok, int64_t &out)
    {
        // symbol, symbol+offset, decimal, or 0x hex.
        std::string sym = tok;
        int64_t offset = 0;
        auto plus = tok.find('+');
        if (plus != std::string::npos) {
            sym = tok.substr(0, plus);
            if (!parseInt(tok.substr(plus + 1), offset))
                return false;
        }
        auto it = symbols_.find(sym);
        if (it != symbols_.end()) {
            out = static_cast<int64_t>(it->second) + offset;
            return true;
        }
        try {
            size_t pos = 0;
            out = std::stoll(tok, &pos, 0);
            return pos == tok.size();
        } catch (...) {
            return false;
        }
    }

    bool
    parseReg(const std::string &tok, Reg &out)
    {
        auto it = regNames().find(tok);
        if (it == regNames().end())
            return false;
        out = it->second;
        return true;
    }

    bool
    directive(const Line &line)
    {
        curLine_ = &line;
        const auto &t = line.tokens;
        if (t[0] == ".data") {
            if (t.size() != 3)
                return errorAt(line.number, ".data name bytes");
            int64_t bytes;
            if (!parseInt(t[2], bytes) || bytes <= 0)
                return errorAt(line.number, "bad .data size");
            symbols_[t[1]] =
                prog_.allocGlobal(static_cast<uint64_t>(bytes));
            return true;
        }
        if (t[0] == ".word" || t[0] == ".word32") {
            if (t.size() != 3)
                return errorAt(line.number, ".word addr value");
            int64_t addr, value;
            if (!parseInt(t[1], addr) || !parseInt(t[2], value))
                return errorAt(line.number, "bad .word operands");
            if (t[0] == ".word")
                prog_.poke64(static_cast<uint64_t>(addr),
                             static_cast<uint64_t>(value));
            else
                prog_.poke32(static_cast<uint64_t>(addr),
                             static_cast<uint32_t>(value));
            return true;
        }
        if (t[0] == ".region") {
            if (t.size() != 3)
                return errorAt(line.number, ".region name id");
            int64_t id;
            if (!parseInt(t[2], id))
                return errorAt(line.number, "bad region id");
            if (!symbols_.count(t[1]))
                return errorAt(line.number, "unknown symbol " + t[1]);
            regionOfSymbol_[symbols_[t[1]]] =
                static_cast<AliasRegion>(id);
            return true;
        }
        return errorAt(line.number, "unknown directive " + t[0]);
    }

    bool
    collectLabels(const std::vector<Line> &body)
    {
        curLine_ = nullptr;
        for (const Line &line : body) {
            curLine_ = &line;
            const std::string &tok = line.tokens[0];
            if (tok.back() == ':') {
                std::string label = tok.substr(0, tok.size() - 1);
                if (blockOf_.count(label))
                    return errorAt(line.number,
                                   "duplicate label " + label);
                blockOf_[label] =
                    prog_.function().addBlock(label);
            }
        }
        curLine_ = nullptr;
        if (prog_.function().numBlocks() == 0)
            return errorAt(1, "no labels in program");
        return true;
    }

    void
    finishBlocks()
    {
        // Implicit fallthrough to the next block.
        Function &fn = prog_.function();
        for (size_t bb = 0; bb < fn.numBlocks(); ++bb) {
            BasicBlock &blk = fn.block(static_cast<int>(bb));
            if (!blk.endsInControl() && blk.fallthrough < 0 &&
                bb + 1 < fn.numBlocks()) {
                blk.fallthrough = static_cast<int>(bb + 1);
            }
        }
    }

    bool
    emit(const Line &line)
    {
        curLine_ = &line;
        const auto &t = line.tokens;
        if (t[0].back() == ':') {
            curLabel_ = t[0].substr(0, t[0].size() - 1);
            cur_ = blockOf_[curLabel_];
            return true;
        }
        if (cur_ < 0)
            return errorAt(line.number, "instruction before any label");

        auto opIt = mnemonics().find(t[0]);
        if (opIt == mnemonics().end())
            return errorAt(line.number, "unknown mnemonic " + t[0]);
        Opcode op = opIt->second;
        const std::string &mn = t[0];

        Instruction inst;
        inst.op = op;

        auto block = [&]() -> BasicBlock & {
            return prog_.function().block(cur_);
        };
        auto labelOf = [&](const std::string &name, int &out) {
            // Accept the printer's "-> label" arrow form upstream.
            auto it = blockOf_.find(name);
            if (it == blockOf_.end())
                return false;
            out = it->second;
            return true;
        };

        // Strip the printer's arrow token if present.
        std::vector<std::string> a(t.begin() + 1, t.end());
        a.erase(std::remove(a.begin(), a.end(), "->"), a.end());

        if (op == Opcode::HALT || op == Opcode::NOP ||
            op == Opcode::FENCE) {
            block().insts.push_back(inst);
            return true;
        }
        if (op == Opcode::SET_BRANCH_ID) {
            int64_t id;
            if (a.size() != 1 || !parseInt(a[0], id))
                return errorAt(line.number, "setBranchId ID");
            block().insts.push_back(
                makeSetBranchId(static_cast<int>(id)));
            return true;
        }
        if (op == Opcode::SET_DEPENDENCY) {
            int64_t num, id;
            if (a.size() != 2 || !parseInt(a[0], num) ||
                !parseInt(a[1], id))
                return errorAt(line.number, "setDependency NUM ID");
            block().insts.push_back(makeSetDependency(
                static_cast<int>(num), static_cast<int>(id)));
            return true;
        }
        if (op == Opcode::JAL) {
            int target;
            if (a.size() != 1 || !labelOf(a[0], target))
                return errorAt(line.number, "jal label");
            inst.target = target;
            block().insts.push_back(inst);
            return true;
        }
        if (isCondBranch(op)) {
            // rs1, rs2, taken [, fallthrough]
            if (a.size() < 3 || !parseReg(a[0], inst.rs1) ||
                !parseReg(a[1], inst.rs2))
                return errorAt(line.number,
                               mn + " rs1, rs2, taken[, fallthrough]");
            int taken;
            if (!labelOf(a[2], taken))
                return errorAt(line.number, "unknown label " + a[2]);
            inst.target = taken;
            if (a.size() >= 4) {
                int ft;
                if (!labelOf(a[3], ft))
                    return errorAt(line.number,
                                   "unknown label " + a[3]);
                block().fallthrough = ft;
            } else if (cur_ + 1 <
                       static_cast<int>(prog_.function().numBlocks())) {
                block().fallthrough = cur_ + 1;
            } else {
                return errorAt(line.number,
                               "branch needs a fallthrough");
            }
            block().insts.push_back(inst);
            return true;
        }
        if (isMem(op)) {
            // data, off(base)   tokenized as: data off ( base )
            if (a.size() != 5 || a[2] != "(" || a[4] != ")")
                return errorAt(line.number, mn + " rd, off(base)");
            Reg data, base;
            int64_t off;
            if (!parseReg(a[0], data) || !parseInt(a[1], off) ||
                !parseReg(a[3], base))
                return errorAt(line.number, "bad memory operands");
            inst.rs1 = base;
            inst.imm = off;
            if (isLoad(op))
                inst.rd = data;
            else
                inst.rs2 = data;
            auto region = regionOfBase_.find(base);
            inst.aliasRegion = region == regionOfBase_.end()
                                   ? ALIAS_UNKNOWN
                                   : region->second;
            block().insts.push_back(inst);
            return true;
        }
        if (mn == "la") {
            // la rd, symbol — also records the symbol's region for
            // subsequent accesses through rd.
            Reg rd;
            int64_t addr;
            if (a.size() != 2 || !parseReg(a[0], rd) ||
                !parseInt(a[1], addr))
                return errorAt(line.number, "la rd, symbol");
            inst.op = Opcode::LUI;
            inst.rd = rd;
            inst.imm = addr;
            auto reg = regionOfSymbol_.find(
                static_cast<uint64_t>(addr));
            if (reg != regionOfSymbol_.end())
                regionOfBase_[rd] = reg->second;
            block().insts.push_back(inst);
            return true;
        }
        if (mn == "li" || mn == "lui") {
            Reg rd;
            int64_t imm;
            if (a.size() != 2 || !parseReg(a[0], rd) ||
                !parseInt(a[1], imm))
                return errorAt(line.number, "li rd, imm");
            inst.op = Opcode::LUI;
            inst.rd = rd;
            inst.imm = imm;
            // `la` semantics when the operand is a known symbol.
            auto reg = regionOfSymbol_.find(static_cast<uint64_t>(imm));
            if (reg != regionOfSymbol_.end())
                regionOfBase_[rd] = reg->second;
            block().insts.push_back(inst);
            return true;
        }
        if (mn == "mv") {
            if (a.size() != 2 || !parseReg(a[0], inst.rd) ||
                !parseReg(a[1], inst.rs1))
                return errorAt(line.number, "mv rd, rs");
            block().insts.push_back(inst);
            return true;
        }

        // Generic 2/3-operand ALU/FP forms; a trailing integer makes
        // it the immediate form.
        if (a.size() == 3) {
            if (!parseReg(a[0], inst.rd) || !parseReg(a[1], inst.rs1))
                return errorAt(line.number, "bad operands for " + mn);
            Reg rs2;
            int64_t imm;
            if (parseReg(a[2], rs2)) {
                inst.rs2 = rs2;
            } else if (parseInt(a[2], imm)) {
                inst.imm = imm;
            } else {
                return errorAt(line.number, "bad operand " + a[2]);
            }
            block().insts.push_back(inst);
            return true;
        }
        if (a.size() == 2) { // unary FP forms (fsqrt, fmv, fcvt...)
            if (!parseReg(a[0], inst.rd) || !parseReg(a[1], inst.rs1))
                return errorAt(line.number, "bad operands for " + mn);
            block().insts.push_back(inst);
            return true;
        }
        if (a.size() == 4 && op == Opcode::FMADD) {
            if (!parseReg(a[0], inst.rd) ||
                !parseReg(a[1], inst.rs1) ||
                !parseReg(a[2], inst.rs2) || !parseReg(a[3], inst.rs3))
                return errorAt(line.number, "fmadd rd, a, b, c");
            block().insts.push_back(inst);
            return true;
        }
        return errorAt(line.number,
                       "cannot parse operands for " + mn);
    }

    Program prog_;
    std::string error_;
    const Line *curLine_ = nullptr; //!< line being processed, for errors
    std::string curLabel_;          //!< enclosing block label, for errors
    std::map<std::string, uint64_t> symbols_;
    std::map<uint64_t, AliasRegion> regionOfSymbol_;
    std::map<Reg, AliasRegion> regionOfBase_;
    std::map<std::string, int> blockOf_;
    int cur_ = -1;
};

} // namespace

AssembleResult
assemble(const std::string &source, const std::string &name)
{
    Assembler assembler(name);
    return assembler.runOn(source);
}

} // namespace noreba
