#include "vm/executor.hh"

#include "util/log.hh"

namespace ddsim::vm {

namespace reg = isa::reg;

Executor::Executor(const prog::Program &program)
    : program(program)
{
    const auto &data = program.dataSegment();
    if (!data.empty())
        mem.writeBlock(layout::DataBase, data.data(), data.size());

    gprs[reg::sp] = layout::StackBase;
    gprs[reg::gp] = layout::DataBase;
    gprs[reg::fp] = layout::StackBase;
    gprs[reg::ra] = ExitRa;
    pc = program.entry();
}

void
Executor::setGpr(RegId r, Word v)
{
    writeGpr(r, v);
}

std::uint64_t
Executor::run(std::uint64_t maxInsts)
{
    std::uint64_t n = 0;
    while (!haltFlag && n < maxInsts) {
        step();
        ++n;
    }
    return n;
}

} // namespace ddsim::vm
