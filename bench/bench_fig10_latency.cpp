/**
 * @file
 * Figure 10 + Section 4.3: sensitivity to cache access latency.
 * Compares, relative to (2+0):
 *   (2+2)opt with the normal 2-cycle L1,
 *   (4+0) with 2-cycle L1,
 *   (4+0) with 3-cycle L1 (the extra pipeline cycle a heavily
 *         multi-ported cache may cost),
 *   (3+3)opt,
 *   and (2+2)opt with a 2-cycle LVC (latency-insensitivity check).
 *
 * Paper: the 3-cycle (4+0) loses up to 13.4% vs the 2-cycle (4+0)
 * and can fall below (2+0); (2+2) beats the 3-cycle (4+0) for the
 * integer programs but not the FP ones (poor local/non-local
 * interleaving); LVC latency (1 vs 2 cycles) barely matters because
 * 50-90% of LVC loads are satisfied in the LVAQ; (3+3) is ~5% better
 * than (4+0) for integer programs.
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
    banner("Figure 10: sensitivity to cache access latency "
           "(all relative to (2+0))",
           "(4+0)@3cyc loses up to ~13% vs @2cyc; (2+2) beats "
           "(4+0)@3cyc for integer programs, not FP; LVC latency is "
           "nearly irrelevant");

    sim::Table table({"program", "(2+2)opt", "(4+0)@2cyc",
                      "(4+0)@3cyc", "(3+3)opt", "(2+2)opt lvc@2cyc"});
    std::vector<double> intD22, intD40s, fpD22, fpD40s;

    std::vector<sim::SweepJob> jobs;
    for (const auto *info : opts.programs) {
        auto program = buildProgramShared(*info, opts);
        jobs.push_back({program, config::baseline(2)});
        jobs.push_back({program, config::decoupledOptimized(2, 2)});
        jobs.push_back({program, config::baseline(4)});

        config::MachineConfig slow40 = config::baseline(4);
        slow40.l1.hitLatency = 3;
        jobs.push_back({program, slow40});

        jobs.push_back({program, config::decoupledOptimized(3, 3)});

        config::MachineConfig slowLvc =
            config::decoupledOptimized(2, 2);
        slowLvc.lvc.hitLatency = 2;
        jobs.push_back({program, slowLvc});
    }
    std::vector<sim::SimResult> results = runGrid(opts, jobs, "Figure 10 LVC latency sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        sim::SimResult base = results[k++];
        sim::SimResult d22 = results[k++];
        sim::SimResult c40 = results[k++];
        sim::SimResult s40 = results[k++];
        sim::SimResult d33 = results[k++];
        sim::SimResult d22s = results[k++];

        table.addRow({info->paperName,
                      sim::Table::num(d22.ipc / base.ipc, 3),
                      sim::Table::num(c40.ipc / base.ipc, 3),
                      sim::Table::num(s40.ipc / base.ipc, 3),
                      sim::Table::num(d33.ipc / base.ipc, 3),
                      sim::Table::num(d22s.ipc / base.ipc, 3)});
        if (info->isFp) {
            fpD22.push_back(d22.ipc / base.ipc);
            fpD40s.push_back(s40.ipc / base.ipc);
        } else {
            intD22.push_back(d22.ipc / base.ipc);
            intD40s.push_back(s40.ipc / base.ipc);
        }
    }
    table.print(std::cout);

    if (!intD22.empty())
        std::printf("\nInteger programs: (2+2)opt avg %.3f vs "
                    "(4+0)@3cyc avg %.3f (paper: (2+2) consistently "
                    "wins)\n",
                    geomean(intD22), geomean(intD40s));
    if (!fpD22.empty())
        std::printf("FP programs:      (2+2)opt avg %.3f vs "
                    "(4+0)@3cyc avg %.3f (paper: (4+0) wins for FP)\n",
                    geomean(fpD22), geomean(fpD40s));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
