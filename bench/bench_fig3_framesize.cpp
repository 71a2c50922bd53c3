/**
 * @file
 * Figure 3: dynamic frame-size distribution of the integer programs.
 *
 * Paper: the dynamic average frame is only a few words; static frames
 * average ~7 words across 4746 functions with most frames under 25
 * words (largest 282).
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
    std::uint64_t frames = 0;
    double mean = 0;
    std::uint64_t p50 = 0, p99 = 0;
    double le8 = 0, le24 = 0;
    double staticMean = 0;
    std::uint32_t staticMax = 0;
};

} // namespace

namespace {

int
runMain(int argc, char **argv)
{
    // Default to the integer subset, as the paper's figure does.
    Options opts(argc, argv);
    opts.args.rejectUnknown(); // no grid here; reject typos ourselves
    banner("Figure 3: dynamic frame size distribution (words)",
           "frames are small: dynamic mean of a few words, static "
           "mean ~7 words, most frames < 25 words");

    sim::Table table({"program", "frames", "mean", "p50", "p99",
                      "<=8w", "<=24w", "staticMean", "staticMax"});
    std::vector<double> dynMeans, statMeans;

    std::vector<const workloads::WorkloadInfo *> selected;
    for (const auto *info : opts.programs) {
        if (info->isFp && !opts.args.has("programs") &&
            !opts.args.getBool("fp"))
            continue; // integer programs only, like the paper
        selected.push_back(info);
    }

    // Functional traces are independent across programs: run them in
    // parallel, then print the rows in workload order.
    std::vector<Row> rows(selected.size());
    ThreadPool pool(opts.jobs);
    parallelFor(pool, selected.size(), [&](std::size_t i) {
        auto program = buildProgramShared(*selected[i], opts);
        vm::Executor exec(*program);
        stats::Group root(nullptr, "");
        vm::StreamStats ss(&root);
        while (!exec.halted())
            ss.record(exec.step());

        const auto &h = ss.frameWords;
        Row r;
        r.frames = h.samples();
        r.mean = h.mean();
        r.p50 = h.percentile(0.5);
        r.p99 = h.percentile(0.99);
        r.le8 = h.fractionBetween(0, 8);
        r.le24 = h.fractionBetween(0, 24);
        double staticSum = 0;
        for (const auto &[pc, words] : ss.staticFrames()) {
            staticSum += words;
            r.staticMax = std::max(r.staticMax, words);
        }
        if (!ss.staticFrames().empty())
            r.staticMean =
                staticSum /
                static_cast<double>(ss.staticFrames().size());
        rows[i] = r;
    });

    for (std::size_t i = 0; i < selected.size(); ++i) {
        const Row &r = rows[i];
        dynMeans.push_back(r.mean);
        statMeans.push_back(r.staticMean);

        table.addRow({selected[i]->paperName, std::to_string(r.frames),
                      sim::Table::num(r.mean, 1),
                      std::to_string(r.p50), std::to_string(r.p99),
                      sim::Table::pct(r.le8),
                      sim::Table::pct(r.le24),
                      sim::Table::num(r.staticMean, 1),
                      std::to_string(r.staticMax)});
    }
    table.print(std::cout);
    std::printf("\nMeasured: dynamic mean %.1f words, static mean "
                "%.1f words (paper: ~3 dynamic / ~7 static)\n",
                mean(dynMeans), mean(statMeans));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
