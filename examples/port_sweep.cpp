/**
 * @file
 * Port sweep: explore the (N+M) design space for one workload — the
 * experiment at the heart of the paper, interactively.
 *
 * Usage: port_sweep [--workload=vortex] [--scale=1.0]
 *                   [--opt] (enable fast forwarding + combining)
 *                   [--jobs=N] (sweep worker threads; default: all
 *                   hardware threads — results are identical for any N)
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "config/cli.hh"
#include "config/presets.hh"
#include "sim/sweep.hh"
#include "sim/table.hh"
#include "util/main_guard.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

int
runMain(int argc, char **argv)
{
    config::CliArgs args(argc, argv);
    std::string name = args.get("workload", "vortex");
    bool optimized = args.getBool("opt");

    const workloads::WorkloadInfo *info = workloads::find(name);
    if (!info) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return 1;
    }
    workloads::WorkloadParams params;
    params.scale = static_cast<std::uint64_t>(
        static_cast<double>(info->defaultScale) *
        args.getDouble("scale", 1.0));
    auto program = std::make_shared<const prog::Program>(
        info->factory(params));
    args.markKnown("jobs"); // queried below, after this check
    args.rejectUnknown();

    std::printf("(N+M) IPC sweep for %s%s\n", info->paperName,
                optimized ? " (fast forwarding + 2-way combining)"
                          : " (no optimizations)");

    // The 4x5 grid points are independent simulations: fan them out
    // across the worker pool and read them back in submission order.
    sim::SweepRunner sweep(
        static_cast<unsigned>(args.getInt("jobs", 0)));
    for (int n = 1; n <= 4; ++n) {
        for (int m = 0; m <= 4; ++m) {
            config::MachineConfig cfg =
                m == 0 ? config::baseline(n)
                       : (optimized ? config::decoupledOptimized(n, m)
                                    : config::decoupled(n, m));
            sweep.submit(program, cfg);
        }
    }
    std::vector<sim::SimResult> results = sweep.collect();

    sim::Table table({"", "M=0", "M=1", "M=2", "M=3", "M=4"});
    std::size_t k = 0;
    for (int n = 1; n <= 4; ++n) {
        std::vector<std::string> row{"N=" + std::to_string(n)};
        for (int m = 0; m <= 4; ++m)
            row.push_back(sim::Table::num(results[k++].ipc, 3));
        table.addRow(row);
    }
    table.print(std::cout);

    std::printf("\nReading guide: N = L1 data cache ports, M = LVC "
                "ports (M=0 disables decoupling).\n"
                "Look for the paper's signature: a dip at M=1, "
                "recovery at M=2, saturation by M=3.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
