/**
 * @file
 * RecordedTrace / TraceReplay: record a program's dynamic instruction
 * stream once, replay it per configuration point. The replayed
 * DynInst records are field-for-field identical to what a live
 * Executor would hand the pipeline (asserted by the differential
 * suite), so the timing model is bit-identical either way.
 */

#include "vm/trace.hh"

#include "prog/program.hh"
#include "util/log.hh"
#include "vm/executor.hh"

namespace ddsim::vm {

using isa::OpCode;

RecordedTrace
RecordedTrace::record(const prog::Program &program,
                      std::uint64_t maxInsts)
{
    RecordedTrace t;
    t.prog = &program;

    Executor exec(program);
    while (!exec.halted() &&
           (maxInsts == 0 || t.numInsts < maxInsts)) {
        DynInst di = exec.step();
        if (di.pcIdx & ~PcMask)
            fatal("RecordedTrace: text index 0x%x needs more than 29 "
                  "bits", di.pcIdx);

        std::uint32_t w0 = di.pcIdx;
        if (di.taken)
            w0 |= TakenBit;
        // Register-indirect jumps are the only instructions whose
        // next pc cannot be re-derived from the program text.
        bool indirect =
            di.inst.op == OpCode::JR || di.inst.op == OpCode::JALR;
        if (indirect)
            w0 |= IndirectBit;
        if (di.isMem())
            w0 |= MemBit;
        t.words.push_back(w0);
        if (di.isMem()) {
            t.words.push_back(di.effAddr);
            t.words.push_back(di.baseVersion);
        }
        if (indirect)
            t.words.push_back(di.nextPcIdx);
        ++t.numInsts;
    }
    t.words.shrink_to_fit();
    return t;
}

} // namespace ddsim::vm
