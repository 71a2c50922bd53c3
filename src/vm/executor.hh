/**
 * @file
 * Functional executor for MISA programs.
 *
 * The executor is the in-order "oracle" front end of the simulator: it
 * executes instructions architecturally and hands the timing model a
 * stream of DynInst records carrying effective addresses and resolved
 * control flow — the paper's perfect I-cache + perfect branch
 * predictor configuration (Section 3.1).
 */

#ifndef DDSIM_VM_EXECUTOR_HH_
#define DDSIM_VM_EXECUTOR_HH_

#include <array>
#include <cmath>
#include <vector>

#include "prog/program.hh"
#include "util/log.hh"
#include "vm/memory.hh"
#include "vm/trace.hh"

namespace ddsim::vm {

/**
 * Functional machine state + stepper. final, and step() is defined
 * inline below: code holding an Executor by its own type (the sampled
 * engine's fast-forward loop) gets the whole step inlined, with no
 * virtual dispatch.
 */
class Executor final : public InstSource
{
  public:
    /** Return-address sentinel: "jr" to this halts the machine. */
    static constexpr Addr ExitRa = 0xffff'fffc;

    explicit Executor(const prog::Program &program);

    /** True once HALT executed or main returned to the exit sentinel. */
    bool halted() const override { return haltFlag; }

    /**
     * Execute the next instruction and return its dynamic record.
     * Calling step() on a halted machine is a panic.
     */
    DynInst step() override;

    /** Run at most @p maxInsts instructions; returns number executed. */
    std::uint64_t run(std::uint64_t maxInsts);

    // State access (tests, examples, debuggers).
    Word gpr(RegId r) const { return gprs[r]; }
    void setGpr(RegId r, Word v);
    double fpr(RegId r) const { return fprs[r]; }
    void setFpr(RegId r, double v) { fprs[r] = v; }
    std::uint32_t pcIndex() const { return pc; }
    InstSeq instsExecuted() const { return seq; }

    SparseMemory &memory() { return mem; }
    const SparseMemory &memory() const { return mem; }

    /** Values emitted by PRINT instructions, in program order. */
    const std::vector<Word> &printed() const { return output; }

    /** Lowest sp value observed (stack high-water mark). */
    Addr stackLowWater() const { return minSp; }

  private:
    const prog::Program &program;
    SparseMemory mem;
    std::array<Word, NumGprs> gprs{};
    std::array<double, NumFprs> fprs{};
    std::array<std::uint32_t, NumGprs> gprVersions{};
    std::uint32_t pc = 0;
    bool haltFlag = false;
    InstSeq seq = 0;
    std::vector<Word> output;
    Addr minSp = layout::StackBase;

    void writeGpr(RegId r, Word v);
    Addr toTextIdx(Addr byteAddr) const;
};

inline void
Executor::writeGpr(RegId r, Word v)
{
    if (r == isa::reg::zero)
        return;
    gprs[r] = v;
    ++gprVersions[r];
    if (r == isa::reg::sp && v < minSp)
        minSp = v;
}

inline Addr
Executor::toTextIdx(Addr byteAddr) const
{
    if (byteAddr < layout::TextBase || byteAddr % 4 != 0) [[unlikely]]
        fatal("jump to non-text address 0x%08x", byteAddr);
    return (byteAddr - layout::TextBase) / 4;
}

inline DynInst
Executor::step()
{
    using isa::OpCode;
    namespace reg = isa::reg;

    if (haltFlag) [[unlikely]]
        panic("Executor::step() called on a halted machine");

    const isa::Inst &inst = program.fetch(pc);
    DynInst di;
    di.seq = seq++;
    di.pcIdx = pc;
    di.inst = inst;

    std::uint32_t next = pc + 1;
    Word rsv = gprs[inst.rs];
    Word rtv = gprs[inst.rt];
    SWord rss = static_cast<SWord>(rsv);
    SWord rts = static_cast<SWord>(rtv);

    switch (inst.op) {
      case OpCode::NOP:
        break;
      case OpCode::HALT:
        haltFlag = true;
        break;
      case OpCode::PRINT:
        output.push_back(rsv);
        break;

      case OpCode::ADD: writeGpr(inst.rd, rsv + rtv); break;
      case OpCode::SUB: writeGpr(inst.rd, rsv - rtv); break;
      case OpCode::MUL: writeGpr(inst.rd, rsv * rtv); break;
      case OpCode::DIV:
        // Division by zero is architecturally defined as 0 in MISA;
        // INT_MIN / -1 wraps to INT_MIN.
        if (rts == 0)
            writeGpr(inst.rd, 0);
        else if (rss == INT32_MIN && rts == -1)
            writeGpr(inst.rd, static_cast<Word>(INT32_MIN));
        else
            writeGpr(inst.rd, static_cast<Word>(rss / rts));
        break;
      case OpCode::AND: writeGpr(inst.rd, rsv & rtv); break;
      case OpCode::OR:  writeGpr(inst.rd, rsv | rtv); break;
      case OpCode::XOR: writeGpr(inst.rd, rsv ^ rtv); break;
      case OpCode::NOR: writeGpr(inst.rd, ~(rsv | rtv)); break;
      case OpCode::SLLV: writeGpr(inst.rd, rsv << (rtv & 31)); break;
      case OpCode::SRLV: writeGpr(inst.rd, rsv >> (rtv & 31)); break;
      case OpCode::SRAV:
        writeGpr(inst.rd, static_cast<Word>(rss >> (rtv & 31)));
        break;
      case OpCode::SLT: writeGpr(inst.rd, rss < rts ? 1 : 0); break;
      case OpCode::SLTU: writeGpr(inst.rd, rsv < rtv ? 1 : 0); break;

      case OpCode::SLL:
        writeGpr(inst.rd, rsv << (inst.imm & 31));
        break;
      case OpCode::SRL:
        writeGpr(inst.rd, rsv >> (inst.imm & 31));
        break;
      case OpCode::SRA:
        writeGpr(inst.rd, static_cast<Word>(rss >> (inst.imm & 31)));
        break;

      case OpCode::ADDI:
        writeGpr(inst.rt, rsv + static_cast<Word>(inst.imm));
        break;
      case OpCode::ANDI:
        writeGpr(inst.rt, rsv & static_cast<Word>(inst.imm));
        break;
      case OpCode::ORI:
        writeGpr(inst.rt, rsv | static_cast<Word>(inst.imm));
        break;
      case OpCode::XORI:
        writeGpr(inst.rt, rsv ^ static_cast<Word>(inst.imm));
        break;
      case OpCode::SLTI:
        writeGpr(inst.rt, rss < inst.imm ? 1 : 0);
        break;
      case OpCode::LUI:
        writeGpr(inst.rt, static_cast<Word>(inst.imm) << 16);
        break;

      case OpCode::LW:
      case OpCode::LB:
      case OpCode::LBU:
      case OpCode::SW:
      case OpCode::SB:
      case OpCode::LD:
      case OpCode::SD: {
        Addr addr = rsv + static_cast<Word>(inst.imm);
        di.effAddr = addr;
        di.accessSize = isa::opInfo(inst.op).accessSize;
        di.stackAccess = layout::isStackAddr(addr);
        di.baseVersion = gprVersions[inst.rs];
        switch (inst.op) {
          case OpCode::LW: writeGpr(inst.rt, mem.readWord(addr)); break;
          case OpCode::LB:
            writeGpr(inst.rt, static_cast<Word>(static_cast<SWord>(
                                  static_cast<std::int8_t>(
                                      mem.readByte(addr)))));
            break;
          case OpCode::LBU:
            writeGpr(inst.rt, mem.readByte(addr));
            break;
          case OpCode::SW: mem.writeWord(addr, rtv); break;
          case OpCode::SB:
            mem.writeByte(addr, static_cast<std::uint8_t>(rtv));
            break;
          case OpCode::LD: fprs[inst.rt] = mem.readDouble(addr); break;
          case OpCode::SD: mem.writeDouble(addr, fprs[inst.rt]); break;
          default: break;
        }
        break;
      }

      case OpCode::BEQ:
        di.taken = rsv == rtv;
        break;
      case OpCode::BNE:
        di.taken = rsv != rtv;
        break;
      case OpCode::BLEZ:
        di.taken = rss <= 0;
        break;
      case OpCode::BGTZ:
        di.taken = rss > 0;
        break;
      case OpCode::BLTZ:
        di.taken = rss < 0;
        break;
      case OpCode::BGEZ:
        di.taken = rss >= 0;
        break;

      case OpCode::J:
        di.taken = true;
        next = inst.target;
        break;
      case OpCode::JAL:
        di.taken = true;
        writeGpr(reg::ra, prog::Program::textAddr(pc + 1));
        next = inst.target;
        break;
      case OpCode::JR: {
        di.taken = true;
        if (rsv == ExitRa) {
            haltFlag = true;
            next = pc; // arbitrary; machine is halted
        } else {
            next = toTextIdx(rsv);
        }
        break;
      }
      case OpCode::JALR: {
        di.taken = true;
        Word target = rsv; // read before rd write (rd may equal rs)
        writeGpr(inst.rd, prog::Program::textAddr(pc + 1));
        if (target == ExitRa) {
            haltFlag = true;
            next = pc;
        } else {
            next = toTextIdx(target);
        }
        break;
      }

      case OpCode::ADD_D:
        fprs[inst.rd] = fprs[inst.rs] + fprs[inst.rt];
        break;
      case OpCode::SUB_D:
        fprs[inst.rd] = fprs[inst.rs] - fprs[inst.rt];
        break;
      case OpCode::MUL_D:
        fprs[inst.rd] = fprs[inst.rs] * fprs[inst.rt];
        break;
      case OpCode::DIV_D:
        fprs[inst.rd] = fprs[inst.rt] == 0.0
                            ? 0.0
                            : fprs[inst.rs] / fprs[inst.rt];
        break;
      case OpCode::MOV_D:
        fprs[inst.rd] = fprs[inst.rs];
        break;
      case OpCode::NEG_D:
        fprs[inst.rd] = -fprs[inst.rs];
        break;
      case OpCode::CVT_D_W:
        fprs[inst.rd] = static_cast<double>(rss);
        break;
      case OpCode::CVT_W_D: {
        // Saturating conversion: out-of-range and NaN inputs clamp,
        // keeping the architectural result well defined.
        double v = std::trunc(fprs[inst.rs]);
        SWord w;
        if (std::isnan(v))
            w = 0;
        else if (v >= 2147483647.0)
            w = INT32_MAX;
        else if (v <= -2147483648.0)
            w = INT32_MIN;
        else
            w = static_cast<SWord>(v);
        writeGpr(inst.rd, static_cast<Word>(w));
        break;
      }
      case OpCode::C_LT_D:
        writeGpr(inst.rd, fprs[inst.rs] < fprs[inst.rt] ? 1 : 0);
        break;
      case OpCode::C_LE_D:
        writeGpr(inst.rd, fprs[inst.rs] <= fprs[inst.rt] ? 1 : 0);
        break;
      case OpCode::C_EQ_D:
        writeGpr(inst.rd, fprs[inst.rs] == fprs[inst.rt] ? 1 : 0);
        break;

      case OpCode::NumOpcodes:
        panic("invalid opcode in executor");
    }

    if (isa::isCondBranch(inst.op) && di.taken)
        next = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(pc) + 1 + inst.imm);

    di.nextPcIdx = next;
    pc = next;
    return di;
}

} // namespace ddsim::vm

#endif // DDSIM_VM_EXECUTOR_HH_
