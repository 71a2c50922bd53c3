/**
 * @file
 * Static vs. dynamic frame sizes and access mixes, per workload.
 *
 * The static columns come from the ddlint analyzer (CFG + sp-tracking
 * dataflow over the program text); the dynamic columns from a full
 * functional run. The paper reports both views: Fig. 2's access mix
 * and Fig. 3's frame-size distribution list static numbers alongside
 * the dynamic ones, and the two should tell the same story — static
 * frames a little larger than the dynamic mean (small leaf frames
 * execute most often), static local fractions close to the dynamic
 * fractions wherever execution is not dominated by one loop.
 */

#include <cstdio>
#include <iostream>

#include "analysis/analyzer.hh"
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
    // Static (analyzer) view.
    std::size_t functions = 0;
    double statMeanWords = 0;
    std::size_t statMaxWords = 0;
    double statLocalFrac = 0;
    std::size_t ambiguous = 0;
    // Dynamic (executor) view.
    double dynMeanWords = 0;
    double dynLocalFrac = 0;
};

} // namespace

namespace {

int
runMain(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.args.rejectUnknown(); // no grid here; reject typos ourselves
    banner("Static vs. dynamic frame sizes and local-access mix",
           "static frames skew larger than the dynamic mean; static "
           "local fractions track Fig. 2's dynamic columns");

    sim::Table table({"program", "funcs", "statMean", "statMax",
                      "dynMean", "statLocal", "dynLocal", "ambig"});

    const auto &selected = opts.programs;
    std::vector<Row> rows(selected.size());
    ThreadPool pool(opts.jobs);
    parallelFor(pool, selected.size(), [&](std::size_t i) {
        auto program = buildProgramShared(*selected[i], opts);
        Row r;

        analysis::AnalysisResult res = analysis::analyze(*program);
        r.functions = res.functions.size();
        double words = 0;
        for (const auto &fn : res.functions) {
            words += static_cast<double>(fn.frameWords);
            r.statMaxWords = std::max(r.statMaxWords, fn.frameWords);
        }
        if (!res.functions.empty())
            r.statMeanWords =
                words / static_cast<double>(res.functions.size());
        std::size_t memTotal = res.loads.total() + res.stores.total();
        if (memTotal > 0)
            r.statLocalFrac =
                static_cast<double>(res.loads.local +
                                    res.stores.local) /
                static_cast<double>(memTotal);
        r.ambiguous = res.loads.ambiguous + res.stores.ambiguous;

        vm::Executor exec(*program);
        stats::Group root(nullptr, "");
        vm::StreamStats ss(&root);
        while (!exec.halted())
            ss.record(exec.step());
        r.dynMeanWords = ss.frameWords.mean();
        r.dynLocalFrac = ss.localRefFrac();
        rows[i] = r;
    });

    std::vector<double> statMeans, dynMeans;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const Row &r = rows[i];
        statMeans.push_back(r.statMeanWords);
        dynMeans.push_back(r.dynMeanWords);
        table.addRow({selected[i]->paperName,
                      std::to_string(r.functions),
                      sim::Table::num(r.statMeanWords, 1),
                      std::to_string(r.statMaxWords),
                      sim::Table::num(r.dynMeanWords, 1),
                      sim::Table::pct(r.statLocalFrac),
                      sim::Table::pct(r.dynLocalFrac),
                      std::to_string(r.ambiguous)});
    }
    table.print(std::cout);
    std::printf("\nMeasured: static mean %.1f words vs dynamic mean "
                "%.1f words (paper: ~7 static / ~3 dynamic)\n",
                mean(statMeans), mean(dynMeans));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
