#include "isa/opcode.hh"

#include <cstring>

#include "util/log.hh"
#include "util/str.hh"

namespace ddsim::isa {

void
detail::invalidOpcode(int idx)
{
    panic("opInfo: invalid opcode %d", idx);
}

const char *
mnemonic(OpCode op)
{
    return opInfo(op).mnemonic;
}

OpCode
parseMnemonic(const char *name)
{
    std::string lower = toLower(name);
    for (int i = 0; i < NumOpcodesInt; ++i) {
        OpCode op = static_cast<OpCode>(i);
        if (lower == opInfo(op).mnemonic)
            return op;
    }
    return OpCode::NumOpcodes;
}

} // namespace ddsim::isa
