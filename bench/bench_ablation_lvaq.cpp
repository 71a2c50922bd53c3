/**
 * @file
 * Ablation: LVAQ size sweep. The paper fixes the LVAQ at 64 entries
 * (Section 4.2); this sweep shows how much window the local stream
 * actually needs and where fast forwarding stops finding its matches.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "config/presets.hh"
#include "util/main_guard.hh"

using namespace ddsim;
using namespace ddsim::bench;

namespace {

int
runMain(int argc, char **argv)
{
    Options opts(argc, argv);
    banner("Ablation: LVAQ size under optimized (3+2), relative to "
           "64 entries",
           "the paper uses 64 entries; local-heavy programs should "
           "degrade as the queue shrinks");

    const int sizes[] = {8, 16, 32, 64, 128};
    sim::Table table({"program", "8", "16", "32", "64(IPC)", "128",
                      "fastFwd@8", "fastFwd@64"});

    std::vector<sim::SweepJob> jobs;
    for (const auto *info : opts.programs) {
        auto program = buildProgramShared(*info, opts);
        config::MachineConfig ref = config::decoupledOptimized(3, 2);
        ref.lvaqSize = 64;
        jobs.push_back({program, ref});
        for (int size : sizes) {
            config::MachineConfig cfg =
                config::decoupledOptimized(3, 2);
            cfg.lvaqSize = size;
            jobs.push_back({program, cfg});
        }
    }
    std::vector<sim::SimResult> results = runGrid(opts, jobs, "Ablation: LVAQ size sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        sim::SimResult base = results[k++];

        std::vector<std::string> row{info->paperName};
        std::uint64_t ff8 = 0;
        for (int size : sizes) {
            sim::SimResult r = results[k++];
            if (size == 8)
                ff8 = r.lvaqFastForwards;
            if (size == 64)
                row.push_back(sim::Table::num(r.ipc, 3));
            else
                row.push_back(sim::Table::num(r.ipc / base.ipc, 3));
        }
        row.push_back(std::to_string(ff8));
        row.push_back(std::to_string(base.lvaqFastForwards));
        table.addRow(row);
    }
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
