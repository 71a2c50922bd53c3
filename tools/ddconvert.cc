/**
 * @file
 * ddconvert: produce and inspect ddsim-xtrace-v1 files (the portable
 * external trace format; see docs/TRACES.md).
 *
 * Modes:
 *   --in=<f> --out=<f>        convert a public text-format trace
 *                             (PC op dst src1 src2 [mem]) to xtrace
 *   --workload=<n> --out=<f>  record a registry workload (including
 *                             the adversarial set) into an xtrace
 *   --info <xtrace>           dump header + annotation stats as
 *                             stable key=value lines (golden-able)
 *
 * Converter knobs:
 *   --stack-range=LO:HI  source-address window treated as the stack
 *                        (hex accepted); accesses inside it map to
 *                        ddsim's stack region and fp-based addressing
 *   --name=<s>           program name recorded in the header
 *   --no-hints           do not burn annotation verdicts into the
 *                        text's localHint bits
 *
 * Recorder knobs: --scale=<n> --seed=<n> --max-insts=<n>.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "config/cli.hh"
#include "util/log.hh"
#include "util/main_guard.hh"
#include "util/str.hh"
#include "vm/convert.hh"
#include "vm/xtrace.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

/** Parse one address; hex with 0x prefix or decimal. */
std::uint64_t
parseAddr(const std::string &s, const char *what)
{
    if (s.empty())
        fatal("%s: empty address", what);
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0')
        fatal("%s: bad address '%s'", what, s.c_str());
    return v;
}

/**
 * Stable key=value dump. CI pins these lines as a golden: they must
 * only ever change deliberately, alongside the format version.
 */
void
printInfo(const vm::ExternalTrace &xt)
{
    const vm::XAnnotation &a = xt.annotation();
    std::printf("name=%s\n", xt.program().name().c_str());
    std::printf("format=%s\n", xt.format().c_str());
    std::printf("hints_valid=%d\n", xt.hintsValid() ? 1 : 0);
    std::printf("text_words=%zu\n", xt.verdicts().size());
    std::printf("insts=%" PRIu64 "\n", xt.instCount());
    std::printf("mem_pcs=%" PRIu64 "\n", a.memPcs);
    std::printf("local_pcs=%" PRIu64 "\n", a.localPcs);
    std::printf("nonlocal_pcs=%" PRIu64 "\n", a.nonLocalPcs);
    std::printf("ambiguous_pcs=%" PRIu64 "\n", a.ambiguousPcs);
    std::printf("mem_ops=%" PRIu64 "\n", a.memOps);
    std::printf("sp_agree=%" PRIu64 "\n", a.spAgree);
    std::printf("sp_disagree=%" PRIu64 "\n", a.spDisagree);
}

} // namespace

namespace {

int
runMain(int argc, char **argv)
{
    config::CliArgs args(argc, argv);
    bool info = args.getBool("info");
    std::string in = args.get("in");
    std::string out = args.get("out");
    std::string workload = args.get("workload");

    vm::ConvertOptions copts;
    if (args.has("name"))
        copts.name = args.get("name");
    copts.burnHints = !args.getBool("no-hints");
    if (args.has("stack-range")) {
        std::string range = args.get("stack-range");
        auto colon = range.find(':');
        if (colon == std::string::npos)
            fatal("--stack-range expects LO:HI, got '%s'",
                  range.c_str());
        copts.stackLo =
            parseAddr(range.substr(0, colon), "--stack-range");
        copts.stackHi =
            parseAddr(range.substr(colon + 1), "--stack-range");
        if (copts.stackHi < copts.stackLo)
            fatal("--stack-range: HI (%llx) below LO (%llx)",
                  static_cast<unsigned long long>(copts.stackHi),
                  static_cast<unsigned long long>(copts.stackLo));
    }

    std::int64_t scale = args.getInt("scale", 0);
    std::int64_t seed = args.getInt("seed", 0);
    std::int64_t maxInsts = args.getInt("max-insts", 0);
    if (scale < 0 || seed < 0 || maxInsts < 0)
        fatal("--scale/--seed/--max-insts must be >= 0");
    args.rejectUnknown();

    if (info) {
        if (args.positional().size() != 1 || !in.empty() ||
            !workload.empty())
            fatal("usage: ddconvert --info <xtrace-file>");
        printInfo(*vm::ExternalTrace::load(args.positional()[0]));
        return 0;
    }

    if (!args.positional().empty())
        fatal("unexpected positional argument '%s' (inputs are named: "
              "--in=, --workload=)",
              args.positional()[0].c_str());
    if (out.empty())
        fatal("--out=<file> is required");
    if (in.empty() == workload.empty())
        fatal("exactly one of --in=<text trace> or --workload=<name> "
              "is required");

    std::shared_ptr<const vm::ExternalTrace> xt;
    if (!in.empty()) {
        xt = vm::convertTextTrace(in, copts);
    } else {
        workloads::WorkloadParams p;
        if (scale > 0)
            p.scale = static_cast<std::uint64_t>(scale);
        if (args.has("seed"))
            p.seed = static_cast<std::uint64_t>(seed);
        auto program = std::make_shared<const prog::Program>(
            workloads::build(workload, p));
        // Workload generators emit trustworthy localHint bits, so a
        // recorded trace keeps the Annotation classifier usable.
        xt = vm::ExternalTrace::fromProgram(
            program, static_cast<std::uint64_t>(maxInsts), "workload",
            true);
    }
    xt->save(out);
    std::printf("wrote %s: %" PRIu64 " insts, %zu text words, "
                "%" PRIu64 "/%" PRIu64 "/%" PRIu64
                " local/nonlocal/ambiguous pcs\n",
                out.c_str(), xt->instCount(), xt->verdicts().size(),
                xt->annotation().localPcs, xt->annotation().nonLocalPcs,
                xt->annotation().ambiguousPcs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
