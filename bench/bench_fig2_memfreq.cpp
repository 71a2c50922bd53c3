/**
 * @file
 * Figure 2 + Table 2: frequencies of memory access instructions and
 * the fraction that are local variable accesses, plus dynamic
 * instruction counts per workload.
 *
 * Paper: loads/stores are a large fraction of all instructions; on
 * average ~30% of loads and ~48% of stores are local, 10%
 * (129.compress) to 71% (147.vortex) of all references, averaging
 * ~36%.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "stats/group.hh"
#include "util/main_guard.hh"
#include "util/thread_pool.hh"
#include "vm/executor.hh"
#include "vm/trace.hh"

using namespace ddsim;
using namespace ddsim::bench;

namespace {

/** Per-program measurements, filled in parallel. */
struct Row
{
    std::uint64_t insts = 0;
    double loadFrac = 0, storeFrac = 0;
    double localLd = 0, localSt = 0, localRef = 0;
};

} // namespace

namespace {

int
runMain(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.args.rejectUnknown(); // no grid here; reject typos ourselves
    banner("Figure 2 / Table 2: memory instruction frequencies",
           "avg ~30% of loads and ~48% of stores local; local refs "
           "10% (compress) .. 71% (vortex), avg ~36%");

    sim::Table table({"program", "insts", "loads%", "stores%",
                      "localLd%", "localSt%", "localRef%"});
    std::vector<double> ld, st, refs;

    // The characterization pass is functional (no timing model), but
    // the programs are independent: trace them in parallel and print
    // the rows in workload order afterwards.
    std::vector<Row> rows(opts.programs.size());
    ThreadPool pool(opts.jobs);
    parallelFor(pool, opts.programs.size(), [&](std::size_t i) {
        auto program = buildProgramShared(*opts.programs[i], opts);
        vm::Executor exec(*program);
        stats::Group root(nullptr, "");
        vm::StreamStats ss(&root);
        while (!exec.halted())
            ss.record(exec.step());
        rows[i] = {ss.instructions.value(), ss.loadFrac(),
                   ss.storeFrac(), ss.localLoadFrac(),
                   ss.localStoreFrac(), ss.localRefFrac()};
    });

    for (std::size_t i = 0; i < opts.programs.size(); ++i) {
        const Row &r = rows[i];
        ld.push_back(r.localLd);
        st.push_back(r.localSt);
        refs.push_back(r.localRef);
        table.addRow({opts.programs[i]->paperName,
                      std::to_string(r.insts),
                      sim::Table::pct(r.loadFrac),
                      sim::Table::pct(r.storeFrac),
                      sim::Table::pct(r.localLd),
                      sim::Table::pct(r.localSt),
                      sim::Table::pct(r.localRef)});
    }
    table.addRow({"average", "",
                  "", "",
                  sim::Table::pct(mean(ld)),
                  sim::Table::pct(mean(st)),
                  sim::Table::pct(mean(refs))});
    table.print(std::cout);
    std::printf("\nMeasured: avg local loads %.0f%%, local stores "
                "%.0f%%, local refs %.0f%% (paper: 30%% / 48%% / "
                "36%%)\n",
                mean(ld) * 100, mean(st) * 100, mean(refs) * 100);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
