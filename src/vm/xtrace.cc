#include "vm/xtrace.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>

#include "isa/encode.hh"
#include "prog/program.hh"
#include "util/atomic_file.hh"
#include "util/error.hh"
#include "util/log.hh"
#include "util/varint.hh"

namespace ddsim::vm {

using isa::OpCode;

namespace {

/** Largest pc index the record head (and RecordedTrace) can carry. */
constexpr std::uint32_t kMaxPcIdx = (1u << 29) - 1;

/** True if @p op consumes the IndirectBit payload (dynamic target). */
bool
indirectOp(OpCode op)
{
    return op == OpCode::JR || op == OpCode::JALR;
}

/**
 * Validate one record against the program text. Returns "" when the
 * record is well-formed, else a description of the problem. Shared by
 * the file decoder (-> TraceCorruptError) and make() (-> ProgramError).
 */
std::string
recordIssue(const prog::Program &program, const XRecord &rec)
{
    const std::size_t textCount = program.textSize();
    if (rec.pcIdx >= textCount)
        return "record pc index out of range";
    const isa::Inst &inst = program.fetch(rec.pcIdx);
    const isa::OpInfo &oi = isa::opInfo(inst.op);
    if (rec.mem != isa::isMem(inst.op))
        return rec.mem ? "memory payload on a non-memory instruction"
                       : "memory instruction without address payload";
    if (rec.indirect != indirectOp(inst.op))
        return rec.indirect
                   ? "indirect target on a direct instruction"
                   : "register-indirect jump without target payload";
    if (oi.uncondJump && !rec.taken)
        return "unconditional jump recorded as not taken";
    if (rec.taken && !isa::isControl(inst.op))
        return "taken flag on a non-control instruction";
    if (rec.indirect && rec.nextPcIdx >= textCount)
        return "indirect jump target out of range";
    return "";
}

/**
 * Where control goes after @p rec — the same derivation
 * TraceReplay::step() performs, used to validate record chaining.
 */
std::int64_t
derivedNext(const isa::Inst &inst, const XRecord &rec)
{
    if (rec.indirect)
        return rec.nextPcIdx;
    if (inst.op == OpCode::J || inst.op == OpCode::JAL)
        return inst.target;
    if (isa::isCondBranch(inst.op) && rec.taken)
        return static_cast<std::int64_t>(rec.pcIdx) + 1 + inst.imm;
    return static_cast<std::int64_t>(rec.pcIdx) + 1;
}

/** Append one record to the internal RecordedTrace word encoding. */
void
packRecord(std::vector<std::uint32_t> &words, const XRecord &rec)
{
    std::uint32_t w0 = rec.pcIdx;
    if (rec.taken)
        w0 |= 1u << 31;
    if (rec.mem)
        w0 |= 1u << 30;
    if (rec.indirect)
        w0 |= 1u << 29;
    words.push_back(w0);
    if (rec.mem) {
        words.push_back(rec.effAddr);
        words.push_back(rec.baseVersion);
    }
    if (rec.indirect)
        words.push_back(rec.nextPcIdx);
}

/** Sequential decoder over an in-memory file image with typed
 *  corruption reporting, mirroring obs::TraceReader. */
struct ByteReader
{
    const std::string &buf;
    const std::string &path;
    std::size_t pos = 0;

    [[noreturn]] void
    corrupt(std::size_t off, const std::string &msg)
    {
        raise(TraceCorruptError(path, off, msg));
    }

    std::uint64_t
    varint(const char *what)
    {
        const std::size_t start = pos;
        std::uint64_t v;
        const VarintStatus st = getVarint(
            [this]() -> int {
                return pos < buf.size()
                           ? static_cast<std::uint8_t>(buf[pos++])
                           : -1;
            },
            v);
        if (st == VarintStatus::Ok)
            return v;
        corrupt(start, std::string(st == VarintStatus::Truncated
                                       ? "truncated varint ("
                                       : "varint overflows 64 bits (") +
                           what + ")");
    }

    std::uint32_t
    varint32(const char *what)
    {
        const std::size_t start = pos;
        std::uint64_t v = varint(what);
        if (v > UINT32_MAX)
            corrupt(start,
                    std::string("value overflows 32 bits (") + what +
                        ")");
        return static_cast<std::uint32_t>(v);
    }

    std::uint32_t
    u32le()
    {
        if (buf.size() - pos < 4)
            corrupt(pos, "truncated text segment");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(buf[pos + i]))
                 << (8 * i);
        pos += 4;
        return v;
    }
};

void
putU32le(std::ostream &os, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        os.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

} // namespace

std::shared_ptr<const ExternalTrace>
ExternalTrace::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        raise(IoError(path, "cannot open xtrace file '" + path + "'"));
    std::string buf((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
    if (is.bad())
        raise(IoError(path, "read error on xtrace file '" + path + "'"));

    ByteReader r{buf, path};
    if (buf.size() < sizeof(kXtraceMagic) ||
        std::memcmp(buf.data(), kXtraceMagic, sizeof(kXtraceMagic)) != 0)
        r.corrupt(0, "bad magic (not a ddsim-xtrace-v1 file)");
    r.pos = sizeof(kXtraceMagic);

    const std::size_t versionOff = r.pos;
    const std::uint64_t version = r.varint("version");
    if (version != kXtraceVersion)
        r.corrupt(versionOff,
                  "unsupported xtrace version " + std::to_string(version));
    const std::size_t flagsOff = r.pos;
    const std::uint64_t flags = r.varint("flags");
    if (flags & ~kXtraceFlagHintsValid)
        r.corrupt(flagsOff, "unknown flag bits set");

    const std::size_t nameOff = r.pos;
    const std::uint64_t nameLen = r.varint("name length");
    if (nameLen > buf.size() - r.pos)
        r.corrupt(nameOff, "truncated program name");
    std::string name =
        buf.substr(r.pos, static_cast<std::size_t>(nameLen));
    r.pos += static_cast<std::size_t>(nameLen);

    const std::uint32_t entry = r.varint32("entry point");
    const std::size_t textCountOff = r.pos;
    const std::uint32_t textCount = r.varint32("text count");
    if (textCount == 0)
        r.corrupt(textCountOff, "empty text segment");
    if (textCount > kMaxPcIdx + 1)
        r.corrupt(textCountOff, "text segment too large to index");
    if (static_cast<std::uint64_t>(textCount) * 4 > buf.size() - r.pos)
        r.corrupt(textCountOff, "truncated text segment");
    if (entry >= textCount)
        r.corrupt(textCountOff, "entry point outside the text segment");

    auto program = std::make_shared<prog::Program>(name);
    for (std::uint32_t i = 0; i < textCount; ++i) {
        const std::size_t wordOff = r.pos;
        const std::uint32_t word = r.u32le();
        if ((word >> 26) >=
            static_cast<std::uint32_t>(OpCode::NumOpcodes))
            r.corrupt(wordOff, "invalid opcode in text segment");
        try {
            program->append(word);
        } catch (const FatalError &e) {
            r.corrupt(wordOff,
                      std::string("undecodable instruction: ") +
                          e.what());
        }
    }
    program->setEntry(entry);

    const std::size_t instCountOff = r.pos;
    const std::uint64_t instCount = r.varint("record count");
    if (instCount == 0)
        r.corrupt(instCountOff, "empty dynamic record stream");

    auto ext =
        std::shared_ptr<ExternalTrace>(new ExternalTrace());
    ext->prog_ = program;
    ext->path_ = path;
    ext->format_ = "xtrace";
    ext->hintsValid_ = (flags & kXtraceFlagHintsValid) != 0;
    ext->trace_.prog = program.get();
    ext->trace_.numInsts = instCount;
    ext->trace_.words.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(
            instCount * 2, (buf.size() - r.pos) + 1)));

    std::int64_t expected = -1;
    for (std::uint64_t k = 0; k < instCount; ++k) {
        const std::size_t headOff = r.pos;
        const std::uint64_t head = r.varint("record head");
        if ((head >> 3) > kMaxPcIdx)
            r.corrupt(headOff, "record pc index overflows encoding");
        XRecord rec;
        rec.pcIdx = static_cast<std::uint32_t>(head >> 3);
        rec.taken = (head & 1) != 0;
        rec.mem = (head & 2) != 0;
        rec.indirect = (head & 4) != 0;
        if (rec.mem) {
            rec.effAddr = r.varint32("effective address");
            rec.baseVersion = r.varint32("base version");
        }
        if (rec.indirect)
            rec.nextPcIdx = r.varint32("indirect target");
        const std::string issue = recordIssue(*program, rec);
        if (!issue.empty())
            r.corrupt(headOff, issue);
        if (k == 0) {
            if (rec.pcIdx != entry)
                r.corrupt(headOff,
                          "first record does not start at the entry "
                          "point");
        } else if (rec.pcIdx != expected) {
            r.corrupt(headOff, "control-flow chain broken");
        }
        expected = derivedNext(program->fetch(rec.pcIdx), rec);
        packRecord(ext->trace_.words, rec);
    }
    if (r.pos != buf.size())
        r.corrupt(r.pos, "trailing bytes after the last record");

    ext->annotate();
    return ext;
}

std::shared_ptr<const ExternalTrace>
ExternalTrace::loadCached(const std::string &path)
{
    static std::mutex mtx;
    static std::map<std::string, std::shared_ptr<const ExternalTrace>>
        cache;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = cache.find(path);
        if (it != cache.end())
            return it->second;
    }
    auto ext = load(path);
    std::lock_guard<std::mutex> lock(mtx);
    return cache.emplace(path, std::move(ext)).first->second;
}

std::shared_ptr<const ExternalTrace>
ExternalTrace::fromProgram(std::shared_ptr<const prog::Program> program,
                           std::uint64_t maxInsts, std::string format,
                           bool hintsValid)
{
    if (!program || program->textSize() == 0)
        raise(ProgramError("external trace needs a non-empty program"));
    auto ext = std::shared_ptr<ExternalTrace>(new ExternalTrace());
    ext->prog_ = std::move(program);
    ext->format_ = std::move(format);
    ext->hintsValid_ = hintsValid;
    ext->trace_ = RecordedTrace::record(*ext->prog_, maxInsts);
    ext->annotate();
    return ext;
}

std::shared_ptr<const ExternalTrace>
ExternalTrace::make(std::shared_ptr<const prog::Program> program,
                    const std::vector<XRecord> &records,
                    std::string format, bool hintsValid)
{
    if (!program || program->textSize() == 0)
        raise(ProgramError("external trace needs a non-empty program"));
    if (records.empty())
        raise(ProgramError("external trace needs at least one record"));

    auto ext = std::shared_ptr<ExternalTrace>(new ExternalTrace());
    ext->prog_ = std::move(program);
    ext->format_ = std::move(format);
    ext->hintsValid_ = hintsValid;
    ext->trace_.prog = ext->prog_.get();
    ext->trace_.numInsts = records.size();

    std::int64_t expected = -1;
    for (std::size_t k = 0; k < records.size(); ++k) {
        const XRecord &rec = records[k];
        const std::string issue = recordIssue(*ext->prog_, rec);
        if (!issue.empty())
            raise(ProgramError("converted trace record " +
                               std::to_string(k) + ": " + issue));
        if (k == 0) {
            if (rec.pcIdx != ext->prog_->entry())
                raise(ProgramError(
                    "converted trace does not start at the entry "
                    "point"));
        } else if (rec.pcIdx != expected) {
            raise(ProgramError("converted trace record " +
                               std::to_string(k) +
                               ": control-flow chain broken"));
        }
        expected = derivedNext(ext->prog_->fetch(rec.pcIdx), rec);
        packRecord(ext->trace_.words, rec);
    }

    ext->annotate();
    return ext;
}

void
ExternalTrace::save(const std::string &path) const
{
    AtomicFile file(path, /*binary=*/true);
    std::ostream &os = file.stream();
    os.write(kXtraceMagic, sizeof(kXtraceMagic));
    putVarint(os, kXtraceVersion);
    putVarint(os, hintsValid_ ? kXtraceFlagHintsValid : 0);
    const std::string &name = prog_->name();
    putVarint(os, name.size());
    os.write(name.data(),
             static_cast<std::streamsize>(name.size()));
    putVarint(os, prog_->entry());
    putVarint(os, prog_->textSize());
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(prog_->textSize()); ++i)
        putU32le(os, prog_->fetchRaw(i));
    putVarint(os, trace_.numInsts);

    const std::vector<std::uint32_t> &words = trace_.words;
    std::size_t pos = 0;
    for (std::uint64_t k = 0; k < trace_.numInsts; ++k) {
        const std::uint32_t w0 = words[pos++];
        const bool taken = (w0 & RecordedTrace::TakenBit) != 0;
        const bool mem = (w0 & RecordedTrace::MemBit) != 0;
        const bool indirect = (w0 & RecordedTrace::IndirectBit) != 0;
        const std::uint32_t pcIdx = w0 & RecordedTrace::PcMask;
        std::uint64_t head = static_cast<std::uint64_t>(pcIdx) << 3;
        head |= taken ? 1 : 0;
        head |= mem ? 2 : 0;
        head |= indirect ? 4 : 0;
        putVarint(os, head);
        if (mem) {
            putVarint(os, words[pos++]); // effective address
            putVarint(os, words[pos++]); // base version
        }
        if (indirect)
            putVarint(os, words[pos++]); // dynamic target
    }
    file.commit();
}

void
ExternalTrace::annotate()
{
    const std::size_t textCount = prog_->textSize();
    verdicts_.assign(textCount, XVerdict::Ambiguous);

    // Per-pc dynamic evidence: how many accesses executed, and how
    // many of them the sp-tracking + oracle pair unanimously calls
    // local (stack-derived base AND stack-region address) or
    // non-local (neither).
    struct Acc
    {
        std::uint64_t n = 0;
        std::uint64_t localOk = 0;
        std::uint64_t nonLocalOk = 0;
    };
    std::vector<Acc> acc(textCount);

    // Registers currently holding a stack-derived value. Seeded with
    // sp/fp; pointer arithmetic (addi/add/sub/or-moves) propagates,
    // any other write clears — the runtime mirror of ddlint's
    // StackDerived lattice value.
    std::uint32_t stackRegs =
        (1u << isa::reg::sp) | (1u << isa::reg::fp);
    const auto stackBit = [&stackRegs](RegId r) {
        return ((stackRegs >> r) & 1u) != 0;
    };

    TraceReplay rp(trace_);
    while (!rp.halted()) {
        const DynInst di = rp.step();
        const isa::Inst &inst = di.inst;

        if (di.isMem()) {
            const bool baseStack = stackBit(inst.rs);
            const bool oracle = di.stackAccess;
            Acc &a = acc[di.pcIdx];
            ++a.n;
            if (baseStack && oracle)
                ++a.localOk;
            if (!baseStack && !oracle)
                ++a.nonLocalOk;
            ++annotation_.memOps;
            if (baseStack == oracle)
                ++annotation_.spAgree;
            else
                ++annotation_.spDisagree;
        }

        const isa::RegRef dest = isa::destReg(inst);
        if (dest.file == isa::RegFile::Gpr && dest.idx != 0) {
            bool derived = false;
            switch (inst.op) {
              case OpCode::ADDI:
                derived = stackBit(inst.rs);
                break;
              case OpCode::ADD:
              case OpCode::OR: // covers "or rd, rs, zero" moves
                derived = stackBit(inst.rs) != stackBit(inst.rt);
                break;
              case OpCode::SUB:
                derived = stackBit(inst.rs) && !stackBit(inst.rt);
                break;
              default:
                break;
            }
            if (derived)
                stackRegs |= 1u << dest.idx;
            else
                stackRegs &= ~(1u << dest.idx);
        }
    }

    for (std::size_t pc = 0; pc < textCount; ++pc) {
        const isa::Inst &inst = prog_->fetch(
            static_cast<std::uint32_t>(pc));
        if (!isa::isMem(inst.op))
            continue;
        ++annotation_.memPcs;
        const Acc &a = acc[pc];
        XVerdict v = XVerdict::Ambiguous;
        if (a.n == 0) {
            // Never executed in this trace: fall back to the static
            // screen — a plain sp/fp base is safely local, anything
            // else stays ambiguous (the predictor carries it).
            if (isa::isStackBase(inst.rs))
                v = XVerdict::Local;
        } else if (a.localOk == a.n) {
            v = XVerdict::Local;
        } else if (a.nonLocalOk == a.n) {
            v = XVerdict::NonLocal;
        }
        verdicts_[pc] = v;
        switch (v) {
          case XVerdict::Local: ++annotation_.localPcs; break;
          case XVerdict::NonLocal: ++annotation_.nonLocalPcs; break;
          case XVerdict::Ambiguous: ++annotation_.ambiguousPcs; break;
        }
    }
}

} // namespace ddsim::vm
