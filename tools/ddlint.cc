/**
 * @file
 * ddlint — static analyzer CLI over MISA programs.
 *
 * Usage:
 *   ddlint --workload=<name>|all [--scale=N] [--seed=N]
 *   ddlint file.s [file2.s ...]
 *   common flags: --format=text|json  --verbose
 *
 * Analyzes each program (CFG + sp-tracking dataflow), prints the
 * report per program, and exits non-zero if any program produced an
 * error-severity diagnostic. Workloads are generated at their
 * registry default scale unless --scale is given.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/report.hh"
#include "config/cli.hh"
#include "prog/asm_parser.hh"
#include "util/log.hh"
#include "util/main_guard.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

struct Totals
{
    std::size_t programs = 0;
    std::size_t errors = 0;
    std::size_t warnings = 0;
    /** JSON mode collects everything into one ddsim-lint-v1 doc. */
    std::vector<analysis::AnalysisResult> collected;
};

void
emit(analysis::AnalysisResult res, const std::string &fmt,
     bool verbose, Totals &totals)
{
    ++totals.programs;
    totals.errors += res.errors();
    totals.warnings += res.warnings();
    if (fmt == "json")
        totals.collected.push_back(std::move(res));
    else
        std::fputs(analysis::textReport(res, verbose).c_str(),
                   stdout);
}

} // namespace

namespace {

int
runMain(int argc, char **argv)
{
    config::CliArgs args(argc, argv);
    std::string fmt = args.get("format", "text");
    if (fmt != "text" && fmt != "json") {
        std::fprintf(stderr,
                     "ddlint: unknown --format '%s' "
                     "(expected text or json)\n",
                     fmt.c_str());
        return 2;
    }
    bool verbose = args.getBool("verbose");
    std::string workload = args.get("workload");
    args.markKnown("scale");
    args.markKnown("seed"); // queried per-workload, below
    args.rejectUnknown();
    if (workload.empty() && args.positional().empty()) {
        std::fprintf(stderr,
                     "usage: ddlint --workload=<name>|all | file.s...\n"
                     "       [--format=text|json] [--scale=N] "
                     "[--seed=N] [--verbose]\n");
        return 2;
    }

    Totals totals;

    if (!workload.empty()) {
        std::vector<const workloads::WorkloadInfo *> selected;
        if (workload == "all") {
            for (const auto &info : workloads::all())
                selected.push_back(&info);
        } else {
            const auto *info = workloads::find(workload);
            if (info == nullptr) {
                std::fprintf(stderr,
                             "ddlint: unknown workload '%s'\n",
                             workload.c_str());
                return 2;
            }
            selected.push_back(info);
        }
        for (const auto *info : selected) {
            workloads::WorkloadParams params;
            params.scale = static_cast<std::uint64_t>(
                args.getInt("scale",
                            static_cast<std::int64_t>(
                                info->defaultScale)));
            params.seed = static_cast<std::uint64_t>(
                args.getInt("seed", 0x5eed));
            emit(analysis::analyze(info->factory(params)), fmt,
                 verbose, totals);
        }
    }

    for (const std::string &path : args.positional()) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "ddlint: cannot open '%s'\n",
                         path.c_str());
            return 2;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        // A parse error is an expected lint outcome, not a crash:
        // report the (line-numbered) message and keep going.
        try {
            emit(analysis::analyze(prog::assemble(ss.str(), path)),
                 fmt, verbose, totals);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "ddlint: %s: %s\n", path.c_str(),
                         e.what());
            ++totals.programs;
            ++totals.errors;
        }
    }

    if (fmt == "json")
        std::fputs(analysis::jsonDocument(totals.collected).c_str(),
                   stdout);
    else
        std::printf("ddlint: %zu program(s), %zu error(s), "
                    "%zu warning(s)\n",
                    totals.programs, totals.errors, totals.warnings);
    return totals.errors > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
