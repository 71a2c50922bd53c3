/**
 * @file
 * Profile the synthetic workloads: the characterization data of the
 * paper's Section 2.2 (instruction mix, local fractions, frame sizes,
 * call structure) for any or all of the twelve programs — the tool to
 * reach for when calibrating a new workload generator.
 *
 * Usage: workload_profile [--programs=li,vortex] [--scale=1.0]
 */

#include <cstdio>
#include <iostream>

#include "config/cli.hh"
#include "sim/table.hh"
#include "stats/group.hh"
#include "util/main_guard.hh"
#include "util/str.hh"
#include "vm/executor.hh"
#include "vm/trace.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

int
runMain(int argc, char **argv)
{
    config::CliArgs args(argc, argv);
    double scale = args.getDouble("scale", 1.0);
    std::vector<std::string> names;
    if (args.has("programs")) {
        for (auto &n : split(args.get("programs"), ','))
            names.emplace_back(trim(n));
    } else {
        for (const auto &w : workloads::all())
            names.push_back(w.name);
    }
    args.rejectUnknown();

    sim::Table table({"program", "insts", "ld%", "st%", "locLd%",
                      "locSt%", "locRef%", "dynFrame", "statFrame",
                      "calls", "maxDepth"});

    for (const auto &name : names) {
        const workloads::WorkloadInfo *info = workloads::find(name);
        if (!info) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         name.c_str());
            return 1;
        }
        workloads::WorkloadParams p;
        p.scale = static_cast<std::uint64_t>(
            static_cast<double>(info->defaultScale) * scale);
        if (p.scale == 0)
            p.scale = 1;
        prog::Program program = info->factory(p);

        vm::Executor exec(program);
        stats::Group root(nullptr, "");
        vm::StreamStats ss(&root);
        while (!exec.halted())
            ss.record(exec.step());

        double staticSum = 0;
        for (const auto &[pc, words] : ss.staticFrames())
            staticSum += words;
        double staticMean =
            ss.staticFrames().empty()
                ? 0
                : staticSum /
                      static_cast<double>(ss.staticFrames().size());

        table.addRow(
            {info->paperName,
             std::to_string(ss.instructions.value()),
             sim::Table::pct(ss.loadFrac()),
             sim::Table::pct(ss.storeFrac()),
             sim::Table::pct(ss.localLoadFrac()),
             sim::Table::pct(ss.localStoreFrac()),
             sim::Table::pct(ss.localRefFrac()),
             sim::Table::num(ss.frameWords.mean(), 1),
             sim::Table::num(staticMean, 1),
             std::to_string(ss.calls.value()),
             std::to_string(ss.callDepth.maxValue())});
    }
    table.print(std::cout);
    std::printf("\nReference points (paper, Section 2.2): local "
                "fractions average ~30%% of loads / ~48%% of stores;\n"
                "147.vortex is the most local (~71%% of refs), "
                "129.compress the least (~10%%); frames are small.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
