/**
 * @file
 * Table 3: performance improvement from fast data forwarding under
 * the (3+2) configuration.
 *
 * Paper: speedups of up to 3.9%; 124.m88ksim gains ~0% (almost no
 * loads find their value in the LVAQ), 129.compress gains 1.2%
 * despite few local accesses because ~80% of its local loads are
 * satisfied in the LVAQ; 099.go 2.1%, 126.gcc 1.2%, 130.li 0.3%,
 * 132.ijpeg 1.9%.
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
    banner("Table 3: fast data forwarding speedup under (3+2)",
           "up to ~3.9%; ~0% for m88ksim (reuse distance beyond the "
           "window); positive for go/gcc/compress/ijpeg");

    sim::Table table({"program", "speedup", "fastFwd loads",
                      "LVAQ-satisfied loads"});
    std::vector<double> speedups;

    std::vector<sim::SweepJob> jobs;
    for (const auto *info : opts.programs) {
        auto program = buildProgramShared(*info, opts);
        jobs.push_back({program, config::decoupled(3, 2)});
        config::MachineConfig cfg = config::decoupled(3, 2);
        cfg.fastForward = true;
        jobs.push_back({program, cfg});
    }
    std::vector<sim::SimResult> results = runGrid(opts, jobs, "Table 3 fast-forward sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        sim::SimResult off = results[k++];
        sim::SimResult on = results[k++];

        double speedup = on.ipc / off.ipc - 1.0;
        speedups.push_back(1.0 + speedup);
        table.addRow({info->paperName,
                      sim::Table::pct(speedup, 2),
                      std::to_string(on.lvaqFastForwards),
                      sim::Table::pct(on.lvaqSatisfiedFrac, 1)});
    }
    table.addRow({"geomean",
                  sim::Table::pct(geomean(speedups) - 1.0, 2), "",
                  ""});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
