/**
 * @file
 * Differential-baseline generator: runs every workload under the five
 * reference machine configurations (tests/differential_grid.hh) and
 * prints the pinned tables of the differential suite
 * (tests/test_differential.cpp):
 *
 *   build/tools/ddbaseline > tests/differential_baseline.inc
 *   build/tools/ddbaseline --counters \
 *       > tests/queue_counters_baseline.inc
 *   build/tools/ddbaseline --sampled > tests/sampled_baseline.inc
 *
 * The first table pins the SimResult fields of every run; the second
 * pins every integer counter of the LSQ and LVAQ stats groups plus
 * the pipeline's queue-facing stall counters. Every run — direct,
 * trace-replayed, or swept — must reproduce them field-for-field.
 * The third pins the sampled engine (tests/test_sampled.cpp): the
 * SimResult and sampling fields plus every integer stat of the whole
 * stats tree of a dense-plan sampled run, on seven configurations
 * (kSampledConfigs); live and trace-replayed runs must both match.
 * Regenerate (and review the diff!) only for an intentional timing
 * change.
 */

#include <chrono>
#include <cstdio>

#include "config/cli.hh"
#include "differential_grid.hh"
#include "sim/runner.hh"
#include "util/main_guard.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

void
printResultRow(const char *workload, const char *cfgName,
               const sim::SimResult &r)
{
    std::printf(
        "{\"%s\", \"%s\", %lluu, %lluu, %lluu, %lluu, %lluu, "
        "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
        "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %.17g},\n",
        workload, cfgName, (unsigned long long)r.cycles,
        (unsigned long long)r.committed, (unsigned long long)r.loads,
        (unsigned long long)r.stores, (unsigned long long)r.localLoads,
        (unsigned long long)r.localStores,
        (unsigned long long)r.l1Accesses,
        (unsigned long long)r.l1Misses,
        (unsigned long long)r.lvcAccesses,
        (unsigned long long)r.lvcMisses,
        (unsigned long long)r.l2Accesses,
        (unsigned long long)r.memAccesses,
        (unsigned long long)r.lsqForwards,
        (unsigned long long)r.lvaqForwards,
        (unsigned long long)r.lvaqFastForwards,
        (unsigned long long)r.lvaqCombined,
        (unsigned long long)r.lvaqLoads,
        (unsigned long long)r.missteered, r.meanDynFrameWords);
}

void
printCounterRow(const char *workload, const char *cfgName,
                const std::string &counters)
{
    std::printf("{\"%s\", \"%s\",\n \"%s\"},\n", workload, cfgName,
                counters.c_str());
}

int
runMain(int argc, char **argv)
{
    config::CliArgs args(argc, argv);
    bool counters = args.getBool("counters");
    bool sampled = args.getBool("sampled");
    args.rejectUnknown();

    std::printf("// Generated by tools/ddbaseline%s — do not edit.\n",
                sampled    ? " --sampled"
                : counters ? " --counters"
                           : "");
    std::printf("// Pinned %s of the seed timing model; see file "
                "header of ddbaseline.cc.\n",
                sampled    ? "sampled-engine runs"
                : counters ? "memory-queue counters"
                           : "SimResults");

    auto t0 = std::chrono::steady_clock::now();
    for (const workloads::WorkloadInfo &w : workloads::all()) {
        workloads::WorkloadParams p;
        p.scale = w.defaultScale / 8;
        prog::Program program = workloads::build(w.name, p);
        if (sampled) {
            for (const char *cfgName : diffgrid::kSampledConfigs)
                printCounterRow(
                    w.name, cfgName,
                    diffgrid::sampledCounters(program, cfgName));
            continue;
        }
        for (const char *cfgName : diffgrid::kConfigs) {
            if (counters)
                printCounterRow(w.name, cfgName,
                                diffgrid::queueCounters(program, cfgName));
            else
                printResultRow(w.name, cfgName,
                               sim::run(program,
                                        diffgrid::configFor(cfgName)));
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    std::fprintf(stderr, "total wall: %lld ms\n",
                 (long long)std::chrono::duration_cast<
                     std::chrono::milliseconds>(t1 - t0).count());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
