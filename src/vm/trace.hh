/**
 * @file
 * The dynamic instruction record handed from the functional front end
 * to the timing model, plus a stream-statistics accumulator used for
 * the paper's workload-characterization figures (Fig. 2 and Fig. 3).
 */

#ifndef DDSIM_VM_TRACE_HH_
#define DDSIM_VM_TRACE_HH_

#include <cstdint>
#include <map>
#include <vector>

#include "isa/inst.hh"
#include "prog/program.hh"
#include "stats/histogram.hh"
#include "stats/group.hh"
#include "util/log.hh"
#include "util/types.hh"

namespace ddsim::vm {

/**
 * One executed instruction. The functional executor fills in
 * everything the out-of-order timing model cannot know on its own:
 * effective address, control-flow outcome (the paper's perfect branch
 * predictor), the oracle stack classification and the base-register
 * version used by fast data forwarding.
 */
struct DynInst
{
    InstSeq seq = 0;            ///< Dynamic sequence number.
    std::uint32_t pcIdx = 0;    ///< Text word index.
    isa::Inst inst;             ///< Decoded static instruction.

    // Memory operations only.
    Addr effAddr = 0;
    std::uint8_t accessSize = 0;
    bool stackAccess = false;   ///< Oracle: address in stack region.
    std::uint32_t baseVersion = 0; ///< Version of the base register
                                   ///< value (see fast forwarding).

    // Control flow.
    bool taken = false;
    std::uint32_t nextPcIdx = 0;

    bool isLoad() const { return isa::isLoad(inst.op); }
    bool isStore() const { return isa::isStore(inst.op); }
    bool isMem() const { return isLoad() || isStore(); }

    /** Frame allocation (prologue "addi sp, sp, -N"): bytes, else 0. */
    std::uint32_t
    frameAllocBytes() const
    {
        using isa::OpCode;
        using isa::reg::sp;
        if (inst.op == OpCode::ADDI && inst.rt == sp && inst.rs == sp &&
            inst.imm < 0)
            return static_cast<std::uint32_t>(-inst.imm);
        return 0;
    }
};

/**
 * The timing model's view of the functional front end: a stream of
 * DynInst records. Implemented by the live Executor and by
 * TraceReplay, which re-emits a previously recorded stream — the
 * pipeline cannot tell them apart.
 */
class InstSource
{
  public:
    virtual ~InstSource() = default;

    /** True once the stream is exhausted. */
    virtual bool halted() const = 0;

    /** Produce the next instruction; panics when halted. */
    virtual DynInst step() = 0;
};

/**
 * A program's full dynamic instruction stream, recorded once and
 * replayed any number of times (concurrently, if desired: replay is
 * read-only). Simulation is deterministic and the front end is
 * oblivious to the machine configuration, so one recording serves
 * every configuration point of a sweep — the functional execution
 * (sparse-memory traffic, register file, version tracking) is paid
 * once per program instead of once per grid point.
 *
 * The encoding is compact: one u32 per instruction holding the text
 * index plus taken/memory/indirect flags, followed by payload words
 * only where the static instruction cannot supply the field (effective
 * address and base version for memory ops, the dynamic target for
 * register-indirect jumps). Everything else — opcode, access size,
 * stack classification, branch targets — is re-derived from the
 * program text at replay time.
 */
class RecordedTrace
{
  public:
    /**
     * Functionally execute @p program to completion (or @p maxInsts
     * instructions) and record the stream. The program must outlive
     * the trace and every replay of it.
     */
    static RecordedTrace record(const prog::Program &program,
                                std::uint64_t maxInsts = 0);

    const prog::Program &program() const { return *prog; }
    std::uint64_t instCount() const { return numInsts; }
    /** Encoded size: words per instruction averages well under 2. */
    std::size_t wordCount() const { return words.size(); }

  private:
    friend class TraceReplay;
    friend class ExternalTrace; ///< xtrace codec packs/unpacks words.

    static constexpr std::uint32_t TakenBit = 1u << 31;
    static constexpr std::uint32_t MemBit = 1u << 30;
    static constexpr std::uint32_t IndirectBit = 1u << 29;
    static constexpr std::uint32_t PcMask = IndirectBit - 1;

    RecordedTrace() = default;

    const prog::Program *prog = nullptr;
    std::vector<std::uint32_t> words;
    std::uint64_t numInsts = 0;
};

/**
 * Replays a RecordedTrace as an InstSource. Holds only a cursor:
 * cheap to construct, and many replays can share one trace across
 * threads. final with an inline step(), like Executor, so the sampled
 * engine's fast-forward loop decodes without virtual dispatch.
 */
class TraceReplay final : public InstSource
{
  public:
    explicit TraceReplay(const RecordedTrace &trace) : trace(trace) {}

    bool halted() const override { return emitted == trace.numInsts; }
    DynInst step() override;

  private:
    const RecordedTrace &trace;
    std::size_t pos = 0;        ///< Word cursor.
    std::uint64_t emitted = 0;  ///< Doubles as the next seq number.
};

/**
 * Accumulates the workload-characterization statistics of Section 2.2:
 * instruction mix, fraction of local loads/stores, dynamic frame-size
 * distribution and per-static-function frame sizes, call depth.
 */
class StreamStats : public stats::Group
{
  public:
    explicit StreamStats(stats::Group *parent);

    /**
     * Feed one executed instruction. Inline: every fetched and every
     * fast-forwarded instruction passes through here, and most are
     * neither memory nor call/return nor frame allocation.
     */
    void
    record(const DynInst &di)
    {
        ++instructions;
        const isa::OpInfo &info = isa::opInfo(di.inst.op);
        if (info.load) {
            ++loads;
            if (di.inst.localHint)
                ++localLoads;
            if (di.stackAccess)
                ++stackLoads;
        } else if (info.store) {
            ++stores;
            if (di.inst.localHint)
                ++localStores;
            if (di.stackAccess)
                ++stackStores;
        } else if (info.call) {
            recordCall(di);
        } else if (isa::isReturn(di.inst)) {
            recordReturn();
        }
        if (std::uint32_t bytes = di.frameAllocBytes()) [[unlikely]]
            recordFrame(bytes);
    }

    stats::Scalar instructions;
    stats::Scalar loads;
    stats::Scalar stores;
    stats::Scalar localLoads;       ///< Annotation-marked local loads.
    stats::Scalar localStores;
    stats::Scalar stackLoads;       ///< Oracle stack-region loads.
    stats::Scalar stackStores;
    stats::Scalar calls;
    stats::Scalar returns;

    /** Dynamic frame sizes in words, one sample per allocation. */
    stats::Histogram frameWords;
    /** Call-depth at each call, one sample per call. */
    stats::Histogram callDepth;

    /** Fraction helpers for Fig. 2. */
    double loadFrac() const;        ///< loads / instructions
    double storeFrac() const;
    double localLoadFrac() const;   ///< local loads / loads
    double localStoreFrac() const;
    double localRefFrac() const;    ///< local refs / all refs

    /** Static frame sizes: function entry pc -> max frame words. */
    const std::map<std::uint32_t, std::uint32_t> &
    staticFrames() const
    {
        return staticFrameWords;
    }

    /** Mean static frame size in words (paper: ~7 words). */
    double meanStaticFrameWords() const;

  private:
    void recordCall(const DynInst &di);
    void recordReturn();
    void recordFrame(std::uint32_t bytes);

    std::map<std::uint32_t, std::uint32_t> staticFrameWords;
    std::uint32_t curFunction = 0;  ///< Entry pc of innermost function.
    std::vector<std::uint32_t> functionStack;
    int depth = 0;
};

inline DynInst
TraceReplay::step()
{
    using isa::OpCode;

    if (halted()) [[unlikely]]
        panic("TraceReplay::step() called on an exhausted trace");

    const std::uint32_t *w = trace.words.data();
    std::uint32_t w0 = w[pos++];
    std::uint32_t pcIdx = w0 & RecordedTrace::PcMask;

    DynInst di;
    di.seq = emitted++;
    di.pcIdx = pcIdx;
    di.inst = trace.prog->fetch(pcIdx);
    di.taken = (w0 & RecordedTrace::TakenBit) != 0;
    if (w0 & RecordedTrace::MemBit) {
        di.effAddr = w[pos++];
        di.baseVersion = w[pos++];
        di.accessSize = isa::opInfo(di.inst.op).accessSize;
        di.stackAccess = layout::isStackAddr(di.effAddr);
    }
    if (w0 & RecordedTrace::IndirectBit)
        di.nextPcIdx = w[pos++];
    else if (di.inst.op == OpCode::J || di.inst.op == OpCode::JAL)
        di.nextPcIdx = di.inst.target;
    else if (di.taken)
        di.nextPcIdx = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(pcIdx) + 1 + di.inst.imm);
    else
        di.nextPcIdx = pcIdx + 1;
    return di;
}

} // namespace ddsim::vm

#endif // DDSIM_VM_TRACE_HH_
