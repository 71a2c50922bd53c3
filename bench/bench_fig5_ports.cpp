/**
 * @file
 * Figure 5: performance of (N+0) configurations relative to (16+0)
 * as the number of ideal L1 ports varies from 1 to 5.
 *
 * Paper: a 3- or 4-port cache reaches the maximum; 2 ports get ~90%
 * of it on average; memory-intensive programs (li, vortex) are the
 * most sensitive.
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
    banner("Figure 5: (N+0) performance relative to (16+0)",
           "3-4 ports reach the maximum; 2 ports ~90% on average; "
           "li/vortex most port-sensitive");

    const int ports[] = {1, 2, 3, 4, 5};
    sim::Table table({"program", "(1+0)", "(2+0)", "(3+0)", "(4+0)",
                      "(5+0)"});
    std::vector<std::vector<double>> rel(5);

    std::vector<sim::SweepJob> jobs;
    for (const auto *info : opts.programs) {
        auto program = buildProgramShared(*info, opts);
        jobs.push_back({program, config::baseline(16)});
        for (int p : ports)
            jobs.push_back({program, config::baseline(p)});
    }
    std::vector<sim::SimResult> results = runGrid(opts, jobs, "Figure 5 port sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        sim::SimResult limit = results[k++];
        std::vector<std::string> row{info->paperName};
        for (int i = 0; i < 5; ++i) {
            sim::SimResult r = results[k++];
            double relative = r.ipc / limit.ipc;
            // Quarantined points are holes, not zeros: marked in the
            // table, excluded from the averages.
            if (r.quarantined || limit.quarantined) {
                row.emplace_back(sim::Table::kQuarantined);
                continue;
            }
            rel[static_cast<std::size_t>(i)].push_back(relative);
            row.push_back(sim::Table::pct(relative));
        }
        table.addRow(row);
    }
    std::vector<std::string> avg{"average"};
    for (int i = 0; i < 5; ++i)
        avg.push_back(
            sim::Table::pct(geomean(rel[static_cast<std::size_t>(i)])));
    table.addRow(avg);
    table.print(std::cout);

    std::printf("\nMeasured: 2 ports reach %.0f%% of the (16+0) "
                "limit on average (paper: ~90%%); 4 ports reach "
                "%.0f%%.\n",
                geomean(rel[1]) * 100, geomean(rel[3]) * 100);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
