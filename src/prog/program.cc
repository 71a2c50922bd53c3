#include "prog/program.hh"

#include "isa/encode.hh"
#include "util/log.hh"

namespace ddsim::prog {

void
Program::fetchPastEnd(std::uint32_t idx) const
{
    fatal("program '%s': fetch past end of text (index %u of %zu) "
          "-- runaway control flow?",
          progName.c_str(), idx, text.size());
}

std::uint32_t
Program::fetchRaw(std::uint32_t idx) const
{
    if (idx >= text.size())
        fetchPastEnd(idx);
    return text[idx];
}

std::uint32_t
Program::append(std::uint32_t word)
{
    std::uint32_t idx = static_cast<std::uint32_t>(text.size());
    text.push_back(word);
    decoded.push_back(isa::decode(word));
    return idx;
}

void
Program::patch(std::uint32_t idx, std::uint32_t word)
{
    if (idx >= text.size())
        panic("Program::patch: index %u out of range", idx);
    text[idx] = word;
    decoded[idx] = isa::decode(word);
}

void
Program::defineSymbol(const std::string &name, std::uint32_t idx)
{
    auto [it, inserted] = symtab.emplace(name, idx);
    if (!inserted)
        fatal("program '%s': duplicate symbol '%s'",
              progName.c_str(), name.c_str());
}

std::uint32_t
Program::symbol(const std::string &name) const
{
    auto it = symtab.find(name);
    if (it == symtab.end())
        fatal("program '%s': undefined symbol '%s'",
              progName.c_str(), name.c_str());
    return it->second;
}

bool
Program::hasSymbol(const std::string &name) const
{
    return symtab.count(name) != 0;
}

} // namespace ddsim::prog
