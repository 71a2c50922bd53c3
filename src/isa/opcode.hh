/**
 * @file
 * MISA opcode definitions and static per-opcode properties.
 *
 * MISA is a 32-bit fixed-width RISC ISA in the MIPS mould: 32 GPRs
 * (r0 hard-wired to zero), 32 FPRs holding 64-bit doubles, base+offset
 * addressing. Memory instructions carry a 15-bit signed byte offset and
 * a one-bit compiler annotation ("local") marking accesses to stack
 * frame variables — the classification bit of Section 2.2.3 of the
 * paper. The short offset field deliberately reproduces the paper's
 * footnote 6: frames bigger than 4 K words overflow the offset and
 * force the compiler to use a secondary base register.
 */

#ifndef DDSIM_ISA_OPCODE_HH_
#define DDSIM_ISA_OPCODE_HH_

#include <cstdint>

namespace ddsim::isa {

/** All MISA opcodes. Values are the 6-bit primary opcode field. */
enum class OpCode : std::uint8_t
{
    NOP = 0,
    HALT,
    PRINT,      ///< Debug: print GPR rs (no architectural effect).

    // Integer register-register ALU (R3 format: rd, rs, rt).
    ADD, SUB, MUL, DIV,
    AND, OR, XOR, NOR,
    SLLV, SRLV, SRAV,   ///< Variable shifts: amount in rt[4:0].
    SLT, SLTU,

    // Immediate shifts (RShift format: rd, rs, shamt).
    SLL, SRL, SRA,

    // Integer immediate ALU (I format: rt, rs, imm).
    ADDI, ANDI, ORI, XORI, SLTI,
    LUI,        ///< rt = imm << 16 (I1 format: rt, imm).

    // Memory (M format: rt, offset(rs), local-hint bit).
    LW,         ///< Load 32-bit word into GPR rt.
    LB,         ///< Load signed byte.
    LBU,        ///< Load unsigned byte.
    SW,         ///< Store word from GPR rt.
    SB,         ///< Store low byte of GPR rt.
    LD,         ///< Load 64-bit double into FPR rt.
    SD,         ///< Store 64-bit double from FPR rt.

    // Conditional branches (B2: rs, rt, offset / B1: rs, offset).
    BEQ, BNE,
    BLEZ, BGTZ, BLTZ, BGEZ,

    // Unconditional jumps.
    J,          ///< J format: 26-bit word target.
    JAL,        ///< Like J; writes return address into r31 (ra).
    JR,         ///< Jump to GPR rs (function return when rs == ra).
    JALR,       ///< rd = return address; jump to rs.

    // Floating point (R3 on the FPR file unless noted).
    ADD_D, SUB_D, MUL_D, DIV_D,
    MOV_D, NEG_D,               ///< R2: rd, rs (FPR).
    CVT_D_W,    ///< FPR rd = (double)(int32)GPR rs.
    CVT_W_D,    ///< GPR rd = (int32)FPR rs (truncate).
    C_LT_D, C_LE_D, C_EQ_D,     ///< GPR rd = FPR rs <op> FPR rt.

    NumOpcodes
};

inline constexpr int NumOpcodesInt = static_cast<int>(OpCode::NumOpcodes);

/** Instruction encoding format. */
enum class Format : std::uint8_t
{
    None,       ///< NOP, HALT.
    R3,         ///< rd, rs, rt.
    R2,         ///< rd, rs.
    RShift,     ///< rd, rs, shamt (imm holds shamt 0..31).
    I2,         ///< rt, rs, imm16.
    I1,         ///< rt, imm16 (LUI).
    Mem,        ///< rt, imm15(rs), local bit.
    B2,         ///< rs, rt, imm16 branch offset (words).
    B1,         ///< rs, imm16 branch offset (words).
    Jmp,        ///< 26-bit absolute word target.
    JmpR,       ///< rs.
    JmpLinkR,   ///< rd, rs.
    Print,      ///< rs.
};

/** Functional unit class an instruction executes on. */
enum class FuClass : std::uint8_t
{
    IntAlu,     ///< 1-cycle integer ops, branches, address generation.
    IntMult,    ///< Pipelined integer multiply.
    IntDiv,     ///< Unpipelined integer divide.
    FpAlu,      ///< FP add/sub/convert/compare/move.
    FpMult,     ///< Pipelined FP multiply.
    FpDiv,      ///< Unpipelined FP divide.
    MemPort,    ///< Loads/stores: scheduled by the memory queues.
    NumClasses
};

inline constexpr int NumFuClasses =
    static_cast<int>(FuClass::NumClasses);

/** Which register file a register reference names. */
enum class RegFile : std::uint8_t { None, Gpr, Fpr };

/** Static properties of one opcode. */
struct OpInfo
{
    const char *mnemonic;
    Format fmt;
    FuClass fu;
    std::uint8_t latency;       ///< Execution latency in cycles.
    bool pipelined;             ///< False for the divide units.
    bool load;
    bool store;
    bool condBranch;
    bool uncondJump;
    bool call;                  ///< JAL / JALR.
    bool fp;                    ///< Touches the FPR file.
    std::uint8_t accessSize;    ///< Memory bytes (0 for non-memory).
};

namespace detail {

// Latencies follow the MIPS R10000 (Table 1 of the paper): integer
// ALU 1, integer multiply 5, integer divide 34 (unpipelined), FP
// add/compare/convert 2, FP multiply 2, FP divide 19 (unpipelined).
inline constexpr std::uint8_t LatIntAlu = 1;
inline constexpr std::uint8_t LatIntMult = 5;
inline constexpr std::uint8_t LatIntDiv = 34;
inline constexpr std::uint8_t LatFpAlu = 2;
inline constexpr std::uint8_t LatFpMult = 2;
inline constexpr std::uint8_t LatFpDiv = 19;

struct OpEntry
{
    OpCode op;
    OpInfo info;
};

// One row per opcode:        mnem      fmt              fu             lat        pipe  ld     st     br     jmp    call   fp     sz
inline constexpr OpEntry kOpTable[] = {
    {OpCode::NOP,     {"nop",     Format::None,     FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::HALT,    {"halt",    Format::None,     FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::PRINT,   {"print",   Format::Print,    FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},

    {OpCode::ADD,     {"add",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SUB,     {"sub",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::MUL,     {"mul",     Format::R3,       FuClass::IntMult, LatIntMult, true, false, false, false, false, false, false, 0}},
    {OpCode::DIV,     {"div",     Format::R3,       FuClass::IntDiv,  LatIntDiv,  false, false, false, false, false, false, false, 0}},
    {OpCode::AND,     {"and",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::OR,      {"or",      Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::XOR,     {"xor",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::NOR,     {"nor",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SLLV,    {"sllv",    Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SRLV,    {"srlv",    Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SRAV,    {"srav",    Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SLT,     {"slt",     Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SLTU,    {"sltu",    Format::R3,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},

    {OpCode::SLL,     {"sll",     Format::RShift,   FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SRL,     {"srl",     Format::RShift,   FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SRA,     {"sra",     Format::RShift,   FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},

    {OpCode::ADDI,    {"addi",    Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::ANDI,    {"andi",    Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::ORI,     {"ori",     Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::XORI,    {"xori",    Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::SLTI,    {"slti",    Format::I2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},
    {OpCode::LUI,     {"lui",     Format::I1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, false, false, false, false, 0}},

    {OpCode::LW,      {"lw",      Format::Mem,      FuClass::MemPort, 0,          true, true,  false, false, false, false, false, 4}},
    {OpCode::LB,      {"lb",      Format::Mem,      FuClass::MemPort, 0,          true, true,  false, false, false, false, false, 1}},
    {OpCode::LBU,     {"lbu",     Format::Mem,      FuClass::MemPort, 0,          true, true,  false, false, false, false, false, 1}},
    {OpCode::SW,      {"sw",      Format::Mem,      FuClass::MemPort, 0,          true, false, true,  false, false, false, false, 4}},
    {OpCode::SB,      {"sb",      Format::Mem,      FuClass::MemPort, 0,          true, false, true,  false, false, false, false, 1}},
    {OpCode::LD,      {"ld",      Format::Mem,      FuClass::MemPort, 0,          true, true,  false, false, false, false, true,  8}},
    {OpCode::SD,      {"sd",      Format::Mem,      FuClass::MemPort, 0,          true, false, true,  false, false, false, true,  8}},

    {OpCode::BEQ,     {"beq",     Format::B2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BNE,     {"bne",     Format::B2,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BLEZ,    {"blez",    Format::B1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BGTZ,    {"bgtz",    Format::B1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BLTZ,    {"bltz",    Format::B1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},
    {OpCode::BGEZ,    {"bgez",    Format::B1,       FuClass::IntAlu,  LatIntAlu,  true, false, false, true,  false, false, false, 0}},

    {OpCode::J,       {"j",       Format::Jmp,      FuClass::IntAlu,  LatIntAlu,  true, false, false, false, true,  false, false, 0}},
    {OpCode::JAL,     {"jal",     Format::Jmp,      FuClass::IntAlu,  LatIntAlu,  true, false, false, false, true,  true,  false, 0}},
    {OpCode::JR,      {"jr",      Format::JmpR,     FuClass::IntAlu,  LatIntAlu,  true, false, false, false, true,  false, false, 0}},
    {OpCode::JALR,    {"jalr",    Format::JmpLinkR, FuClass::IntAlu,  LatIntAlu,  true, false, false, false, true,  true,  false, 0}},

    {OpCode::ADD_D,   {"add.d",   Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::SUB_D,   {"sub.d",   Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::MUL_D,   {"mul.d",   Format::R3,       FuClass::FpMult,  LatFpMult,  true, false, false, false, false, false, true,  0}},
    {OpCode::DIV_D,   {"div.d",   Format::R3,       FuClass::FpDiv,   LatFpDiv,   false, false, false, false, false, false, true,  0}},
    {OpCode::MOV_D,   {"mov.d",   Format::R2,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::NEG_D,   {"neg.d",   Format::R2,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::CVT_D_W, {"cvt.d.w", Format::R2,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::CVT_W_D, {"cvt.w.d", Format::R2,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::C_LT_D,  {"c.lt.d",  Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::C_LE_D,  {"c.le.d",  Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
    {OpCode::C_EQ_D,  {"c.eq.d",  Format::R3,       FuClass::FpAlu,   LatFpAlu,   true, false, false, false, false, false, true,  0}},
};

/** True when row i of kOpTable describes opcode i. */
constexpr bool
opTableOrdered()
{
    for (int i = 0; i < NumOpcodesInt; ++i)
        if (static_cast<int>(kOpTable[i].op) != i)
            return false;
    return true;
}

static_assert(sizeof(kOpTable) / sizeof(kOpTable[0]) == NumOpcodesInt,
              "opcode table must cover every OpCode exactly once");
static_assert(opTableOrdered(),
              "opcode table rows must be in OpCode order");

/** Panics: @p idx is not a valid opcode (out of line, cold). */
[[noreturn]] void invalidOpcode(int idx);

} // namespace detail

/**
 * Look up the static properties of @p op: one bounds check and an
 * index into a compile-time table, inlined at every call site.
 */
constexpr const OpInfo &
opInfo(OpCode op)
{
    auto idx = static_cast<unsigned>(op);
    if (idx >= static_cast<unsigned>(NumOpcodesInt)) [[unlikely]]
        detail::invalidOpcode(static_cast<int>(idx));
    return detail::kOpTable[idx].info;
}

/** Mnemonic string for @p op. */
const char *mnemonic(OpCode op);

/** Parse a mnemonic (case-insensitive). Returns NumOpcodes on failure. */
OpCode parseMnemonic(const char *name);

inline bool isLoad(OpCode op) { return opInfo(op).load; }
inline bool isStore(OpCode op) { return opInfo(op).store; }
inline bool isMem(OpCode op) { return isLoad(op) || isStore(op); }
inline bool isCondBranch(OpCode op) { return opInfo(op).condBranch; }
inline bool isUncondJump(OpCode op) { return opInfo(op).uncondJump; }
inline bool
isControl(OpCode op)
{
    return isCondBranch(op) || isUncondJump(op);
}
inline bool isCall(OpCode op) { return opInfo(op).call; }

} // namespace ddsim::isa

#endif // DDSIM_ISA_OPCODE_HH_
