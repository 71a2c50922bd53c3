/**
 * @file
 * ddtrace: decode and analyze the binary per-instruction pipeline
 * traces written by obs::PipelineTracer (RunOptions::tracePath).
 *
 * Usage: ddtrace <trace-file> [mode] [filters]
 *
 * Modes (default: header + stall-attribution summary):
 *   --dump           per-record listing (one line per instruction)
 *   --timeline       per-instruction stage timelines in the style of
 *                    the gem5 O3 pipeline viewer
 *   --counts         committed / per-stream counts only, one per line
 *                    (machine-checkable against a run manifest)
 *
 * Filters (apply to --dump and --timeline):
 *   --pc=<idx>       only records with this static instruction index
 *   --stream=lsq|lvaq  only records served by that memory stream
 *   --cycles=LO:HI   only records committing in [LO, HI]
 *   --limit=<n>      stop after n matching records (default 50 for
 *                    --timeline, unlimited otherwise)
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "config/cli.hh"
#include "obs/pipeline_trace.hh"
#include "util/log.hh"
#include "util/main_guard.hh"
#include "util/str.hh"

using namespace ddsim;

namespace {

struct Filter
{
    bool hasPc = false;
    std::uint32_t pc = 0;
    int stream = -1; // -1 = any, 0 = LSQ, 1 = LVAQ
    std::uint64_t cycleLo = 0;
    std::uint64_t cycleHi = ~std::uint64_t{0};

    bool matches(const obs::TraceRecord &r) const
    {
        if (hasPc && r.pcIdx != pc)
            return false;
        if (stream >= 0 && (r.isLoad || r.isStore) &&
            r.lvaqStream != (stream == 1))
            return false;
        if (stream >= 0 && !r.isLoad && !r.isStore)
            return false; // stream filters imply memory ops only
        if (r.commitCycle < cycleLo || r.commitCycle > cycleHi)
            return false;
        return true;
    }
};

std::string
flagString(const obs::TraceRecord &r)
{
    std::string s;
    if (r.isLoad)
        s += " load";
    if (r.isStore)
        s += " store";
    if (r.isLoad || r.isStore)
        s += r.lvaqStream ? " LVAQ" : " LSQ";
    if (r.replicated)
        s += " repl";
    if (r.forwarded)
        s += " fwd";
    if (r.fastForwarded)
        s += " fastfwd";
    if (r.combined)
        s += " comb";
    if (r.missteered)
        s += " missteer";
    return s;
}

void
printCycle(const char *name, std::uint64_t c)
{
    if (c == obs::kNoCycle)
        std::printf(" %s=?", name);
    else
        std::printf(" %s=%" PRIu64, name, c);
}

void
dumpRecord(const obs::TraceRecord &r)
{
    std::printf("seq %-8" PRIu64 " pc %-6u", r.seq, r.pcIdx);
    printCycle("F", r.fetchCycle);
    printCycle("D", r.dispatchCycle);
    if (r.isLoad || r.isStore)
        printCycle("Q", r.queueCycle);
    printCycle("I", r.issueCycle);
    if (r.isLoad || r.isStore)
        printCycle("A", r.accessCycle);
    printCycle("W", r.wbCycle);
    std::printf(" C=%" PRIu64 "%s\n", r.commitCycle,
                flagString(r).c_str());
}

/**
 * One gem5-O3-viewer-style row: stage letters at their cycle offsets
 * between the first known stage cycle and commit, dots in between.
 */
void
timelineRecord(const obs::TraceRecord &r)
{
    std::uint64_t base = r.commitCycle;
    const std::uint64_t cycles[] = {r.fetchCycle,  r.dispatchCycle,
                                    r.queueCycle,  r.issueCycle,
                                    r.accessCycle, r.wbCycle};
    for (std::uint64_t c : cycles)
        if (c != obs::kNoCycle && c < base)
            base = c;
    std::uint64_t span = r.commitCycle - base + 1;
    // Clip pathological lifetimes so one stuck instruction cannot
    // produce a megabyte-wide row.
    constexpr std::uint64_t kMaxSpan = 120;
    bool clipped = span > kMaxSpan;
    if (clipped)
        span = kMaxSpan;

    std::string row(span, '.');
    auto put = [&](std::uint64_t c, char ch) {
        if (c == obs::kNoCycle || c < base)
            return;
        std::uint64_t off = c - base;
        if (off >= span)
            return;
        // Later stages overwrite earlier ones sharing a cycle; show
        // the furthest progress.
        row[off] = ch;
    };
    put(r.fetchCycle, 'f');
    put(r.dispatchCycle, 'd');
    put(r.queueCycle, 'q');
    put(r.issueCycle, 'i');
    put(r.accessCycle, 'a');
    put(r.wbCycle, 'w');
    if (!clipped)
        row[span - 1] = 'c';

    std::printf("[%s%s]-(%8" PRIu64 " -> %8" PRIu64 ") seq %" PRIu64
                " pc %u%s\n",
                row.c_str(), clipped ? "..." : "", base, r.commitCycle,
                r.seq, r.pcIdx, flagString(r).c_str());
}

/** Totals for one fraction-of-lifetime stall category. */
struct Segment
{
    const char *name;
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;

    void add(std::uint64_t from, std::uint64_t to)
    {
        if (from == obs::kNoCycle || to == obs::kNoCycle || to < from)
            return;
        cycles += to - from;
        ++insts;
    }
};

} // namespace

namespace {

int
runMain(int argc, char **argv)
{
    config::CliArgs args(argc, argv);
    bool dump = args.getBool("dump");
    bool timeline = args.getBool("timeline");
    bool countsOnly = args.getBool("counts");

    Filter f;
    f.hasPc = args.has("pc");
    if (f.hasPc)
        f.pc = static_cast<std::uint32_t>(args.getInt("pc", 0));
    if (args.has("stream")) {
        std::string s = toLower(args.get("stream"));
        if (s == "lsq")
            f.stream = 0;
        else if (s == "lvaq")
            f.stream = 1;
        else
            fatal("--stream expects lsq or lvaq, got '%s'", s.c_str());
    }
    if (args.has("cycles")) {
        std::string range = args.get("cycles");
        auto colon = range.find(':');
        std::int64_t lo = 0, hi = 0;
        if (colon == std::string::npos ||
            !parseInt(range.substr(0, colon), lo) ||
            !parseInt(range.substr(colon + 1), hi) || lo < 0 || hi < lo)
            fatal("--cycles expects LO:HI, got '%s'", range.c_str());
        f.cycleLo = static_cast<std::uint64_t>(lo);
        f.cycleHi = static_cast<std::uint64_t>(hi);
    }
    std::uint64_t limit = static_cast<std::uint64_t>(
        args.getInt("limit", timeline ? 50 : 0));
    args.rejectUnknown();

    if (args.positional().size() != 1)
        fatal("usage: ddtrace <trace-file> [--dump|--timeline|"
              "--counts] [--pc=N] [--stream=lsq|lvaq] [--cycles=LO:HI]"
              " [--limit=N]");
    obs::TraceReader reader(args.positional()[0]);
    const obs::TraceHeader &hdr = reader.header();

    if (!countsOnly)
        std::printf("trace: workload=%s config=%s%s%s records=%" PRIu64
                    " (format v%u)\n",
                    hdr.workload.c_str(), hdr.notation.c_str(),
                    hdr.label.empty() ? "" : " label=",
                    hdr.label.c_str(), hdr.recordCount, hdr.version);

    // Counters for the summary / --counts modes.
    std::uint64_t committed = 0, matched = 0, shown = 0;
    std::uint64_t lsqLoads = 0, lsqStores = 0;
    std::uint64_t lvaqLoads = 0, lvaqStores = 0;
    std::uint64_t forwards = 0, fastForwards = 0, combinedN = 0;
    std::uint64_t missteers = 0, replicas = 0;
    std::uint64_t lastCommit = 0;
    Segment segs[] = {
        {"fetch -> dispatch"},   {"dispatch -> issue"},
        {"issue -> access"},     {"access -> writeback"},
        {"writeback -> commit"},
    };

    obs::TraceRecord r;
    while (reader.next(r)) {
        ++committed;
        lastCommit = r.commitCycle;
        if (r.isLoad || r.isStore) {
            std::uint64_t &n = r.isLoad
                                   ? (r.lvaqStream ? lvaqLoads : lsqLoads)
                                   : (r.lvaqStream ? lvaqStores
                                                   : lsqStores);
            ++n;
            forwards += r.forwarded;
            fastForwards += r.fastForwarded;
            combinedN += r.combined;
            missteers += r.missteered;
            replicas += r.replicated;
        }
        segs[0].add(r.fetchCycle, r.dispatchCycle);
        segs[1].add(r.dispatchCycle, r.issueCycle);
        segs[2].add(r.issueCycle, r.accessCycle);
        segs[3].add(r.accessCycle != obs::kNoCycle ? r.accessCycle
                                                   : r.issueCycle,
                    r.wbCycle);
        segs[4].add(r.wbCycle, r.commitCycle);

        if ((dump || timeline) && f.matches(r)) {
            ++matched;
            if (limit == 0 || shown < limit) {
                ++shown;
                if (timeline)
                    timelineRecord(r);
                else
                    dumpRecord(r);
            }
        }
    }

    if (countsOnly) {
        // Stable key=value lines; EXPERIMENTS.md cross-checks these
        // against the run manifest's result block.
        std::printf("committed=%" PRIu64 "\n", committed);
        std::printf("lsq.loads=%" PRIu64 "\n", lsqLoads);
        std::printf("lsq.stores=%" PRIu64 "\n", lsqStores);
        std::printf("lvaq.loads=%" PRIu64 "\n", lvaqLoads);
        std::printf("lvaq.stores=%" PRIu64 "\n", lvaqStores);
        return 0;
    }

    if (dump || timeline) {
        if (limit != 0 && matched > shown)
            std::printf("... %" PRIu64 " more matching records "
                        "(raise --limit)\n",
                        matched - shown);
        return 0;
    }

    std::printf("\n%" PRIu64 " committed instructions, last commit at "
                "cycle %" PRIu64 "\n",
                committed, lastCommit);
    std::printf("streams: LSQ %" PRIu64 " loads / %" PRIu64
                " stores, LVAQ %" PRIu64 " loads / %" PRIu64
                " stores\n",
                lsqLoads, lsqStores, lvaqLoads, lvaqStores);
    std::printf("in-queue service: %" PRIu64 " forwards, %" PRIu64
                " fast forwards, %" PRIu64 " combined grants\n",
                forwards, fastForwards, combinedN);
    if (replicas || missteers)
        std::printf("steering: %" PRIu64 " replicated, %" PRIu64
                    " missteered\n",
                    replicas, missteers);

    std::printf("\nstall attribution (mean cycles per instruction "
                "observed in the segment):\n");
    for (const Segment &s : segs) {
        if (s.insts == 0)
            continue;
        std::printf("  %-22s %8.2f  (%" PRIu64 " insts)\n", s.name,
                    static_cast<double>(s.cycles) /
                        static_cast<double>(s.insts),
                    s.insts);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
