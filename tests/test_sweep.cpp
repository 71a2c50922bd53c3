/**
 * @file
 * SweepRunner determinism suite: a parallel sweep must be
 * indistinguishable from the serial loop it replaces — same results,
 * same order, for any worker count — plus in-order delivery,
 * per-job exception propagation, degenerate grids, the ThreadPool
 * primitive underneath, and thread-safety regression tests meant to
 * run under TSan (ctest label "sweep", -DDDSIM_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "config/presets.hh"
#include "sim/sweep.hh"
#include "util/log.hh"
#include "util/thread_pool.hh"
#include "workloads/common.hh"

using namespace ddsim;
using namespace ddsim::sim;

namespace {

std::shared_ptr<const prog::Program>
sharedWorkload(const char *name, std::uint64_t divisor = 16)
{
    workloads::WorkloadParams p;
    p.scale =
        std::max<std::uint64_t>(1, workloads::find(name)->defaultScale /
                                       divisor);
    return std::make_shared<const prog::Program>(
        workloads::build(name, p));
}

/** The 4-program x 6-config grid the determinism tests sweep. */
std::vector<SweepJob>
determinismGrid()
{
    static const char *names[] = {"go", "li", "vortex", "swim"};
    std::vector<config::MachineConfig> cfgs = {
        config::baseline(1),          config::baseline(2),
        config::decoupled(2, 1),      config::decoupled(3, 2),
        config::decoupledOptimized(2, 2),
        config::decoupledOptimized(3, 2)};
    std::vector<SweepJob> jobs;
    for (const char *name : names) {
        auto program = sharedWorkload(name);
        for (const config::MachineConfig &cfg : cfgs)
            jobs.push_back({program, cfg});
    }
    return jobs;
}

/**
 * Every stat a bench or test reads must match exactly — integers with
 * EXPECT_EQ and derived doubles bit-for-bit (identical computations on
 * identical inputs yield identical bits).
 */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.notation, b.notation);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.localLoads, b.localLoads);
    EXPECT_EQ(a.localStores, b.localStores);
    EXPECT_EQ(a.meanDynFrameWords, b.meanDynFrameWords);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l1MissRate, b.l1MissRate);
    EXPECT_EQ(a.lvcAccesses, b.lvcAccesses);
    EXPECT_EQ(a.lvcMisses, b.lvcMisses);
    EXPECT_EQ(a.lvcMissRate, b.lvcMissRate);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.lsqForwards, b.lsqForwards);
    EXPECT_EQ(a.lvaqForwards, b.lvaqForwards);
    EXPECT_EQ(a.lvaqFastForwards, b.lvaqFastForwards);
    EXPECT_EQ(a.lvaqCombined, b.lvaqCombined);
    EXPECT_EQ(a.lvaqLoads, b.lvaqLoads);
    EXPECT_EQ(a.lvaqSatisfiedFrac, b.lvaqSatisfiedFrac);
    EXPECT_EQ(a.classifierAccuracy, b.classifierAccuracy);
    EXPECT_EQ(a.missteered, b.missteered);
    EXPECT_EQ(a.statsText, b.statsText);
}

} // namespace

TEST(Sweep, MatchesSerialLoopForAnyWorkerCount)
{
    std::vector<SweepJob> jobs = determinismGrid();

    // The reference: the serial loop the sweep engine replaces.
    std::vector<SimResult> serial;
    for (const SweepJob &job : jobs)
        serial.push_back(run(*job.program, job.cfg, job.opts));

    for (unsigned workers : {1u, 2u, 8u}) {
        std::vector<SimResult> swept =
            SweepRunner::runAll(jobs, workers);
        ASSERT_EQ(swept.size(), serial.size()) << workers;
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " job=" + std::to_string(i));
            expectIdentical(swept[i], serial[i]);
        }
    }
}

TEST(Sweep, ResultsArriveInSubmissionOrder)
{
    // Mix long and short jobs so completion order differs from
    // submission order: results must still come back as submitted.
    auto heavy = sharedWorkload("vortex", 8);
    auto light = sharedWorkload("li", 64);

    SweepRunner sweep(4);
    sweep.submit(heavy, config::decoupledOptimized(3, 2));
    sweep.submit(light, config::baseline(1));
    sweep.submit(heavy, config::baseline(2));
    sweep.submit(light, config::decoupled(2, 1));
    std::vector<SimResult> results = sweep.collect();

    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].program, "vortex");
    EXPECT_EQ(results[0].notation, "(3+2)");
    EXPECT_EQ(results[1].program, "li");
    EXPECT_EQ(results[1].notation, "(1+0)");
    EXPECT_EQ(results[2].program, "vortex");
    EXPECT_EQ(results[2].notation, "(2+0)");
    EXPECT_EQ(results[3].program, "li");
    EXPECT_EQ(results[3].notation, "(2+1)");
}

TEST(Sweep, EmptyGridCollectsNothing)
{
    SweepRunner sweep(2);
    EXPECT_EQ(sweep.pending(), 0u);
    EXPECT_TRUE(sweep.collect().empty());
}

TEST(Sweep, SingleJobGrid)
{
    auto program = sharedWorkload("li");
    SweepRunner sweep(1);
    EXPECT_EQ(sweep.submit(program, config::baseline(2)), 0u);
    std::vector<SimResult> results = sweep.collect();
    ASSERT_EQ(results.size(), 1u);
    SimResult serial = run(*program, config::baseline(2));
    expectIdentical(results[0], serial);
}

TEST(Sweep, JobExceptionRethrownAtCollection)
{
    setQuiet(true);
    auto program = sharedWorkload("li");

    config::MachineConfig bad = config::baseline(2);
    bad.robSize = 0; // validate() rejects this inside the worker

    SweepRunner sweep(2);
    sweep.submit(program, config::baseline(1));
    sweep.submit(program, bad);
    sweep.submit(program, config::baseline(2));
    EXPECT_THROW(sweep.collect(), FatalError);
    setQuiet(false);

    // The failed grid is cleared: the runner is reusable afterwards.
    EXPECT_EQ(sweep.pending(), 0u);
    sweep.submit(program, config::baseline(1));
    EXPECT_EQ(sweep.collect().size(), 1u);
}

TEST(Sweep, EarliestOfSeveralFailuresWins)
{
    setQuiet(true);
    auto program = sharedWorkload("li", 64);

    config::MachineConfig badRob = config::baseline(2);
    badRob.robSize = 0;
    config::MachineConfig badLsq = config::baseline(2);
    badLsq.lsqSize = 0;

    SweepRunner sweep(2);
    sweep.submit(program, config::baseline(1));
    sweep.submit(program, badRob);
    sweep.submit(program, badLsq);
    try {
        sweep.collect();
        FAIL() << "collect() should have thrown";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("ROB"),
                  std::string::npos);
    }
    setQuiet(false);
}

TEST(Sweep, ReusableAcrossRounds)
{
    auto program = sharedWorkload("go", 64);
    SweepRunner sweep(2);

    sweep.submit(program, config::baseline(1));
    std::vector<SimResult> first = sweep.collect();
    ASSERT_EQ(first.size(), 1u);

    // Indices restart at 0 for the next grid.
    EXPECT_EQ(sweep.submit(program, config::baseline(2)), 0u);
    sweep.submit(program, config::decoupled(2, 2));
    std::vector<SimResult> second = sweep.collect();
    ASSERT_EQ(second.size(), 2u);
    EXPECT_EQ(second[0].notation, "(2+0)");
    EXPECT_EQ(second[1].notation, "(2+2)");
}

TEST(Sweep, ProgramCacheBuildsEachKeyOnce)
{
    ProgramCache cache;
    std::atomic<int> builds{0};
    auto builder = [&builds] {
        ++builds;
        workloads::WorkloadParams p;
        p.scale = 5;
        return workloads::build("li", p);
    };

    auto a = cache.get("li@5", builder);
    auto b = cache.get("li@5", builder);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(a.get(), b.get()); // shared, not copied
    EXPECT_EQ(cache.size(), 1u);

    auto c = cache.get("li@5-again", builder);
    EXPECT_EQ(builds.load(), 2);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(Sweep, SharedProgramAcrossConcurrentRunsIsRaceFree)
{
    // One Program, many concurrent simulations: Program::fetch() must
    // be a pure read (decode happens at build time). Run enough jobs
    // through enough workers that TSan would see any mutation.
    auto program = sharedWorkload("gcc", 32);
    SweepRunner sweep(8);
    for (int i = 0; i < 16; ++i)
        sweep.submit(program, config::decoupledOptimized(2 + i % 3,
                                                         1 + i % 2));
    std::vector<SimResult> results = sweep.collect();
    for (std::size_t i = 1; i < results.size(); ++i)
        EXPECT_EQ(results[i].committed, results[0].committed);
}

TEST(Sweep, TraceCacheRecordsEachKeyOnceUnderContention)
{
    // Many threads request the trace for the same (program, cap) at
    // once: exactly one recording must happen (call_once), every
    // caller must get the same shared recording, and distinct caps
    // must get distinct recordings. Run under TSan via the "sweep"
    // label to catch any unsynchronized cache access.
    auto program = sharedWorkload("li", 32);
    TraceCache cache;
    ThreadPool pool(8);
    std::vector<std::shared_ptr<const vm::RecordedTrace>> got(32);
    parallelFor(pool, got.size(),
                [&cache, &program, &got](std::size_t i) {
                    // Even indices: full trace; odd: capped at 1000.
                    got[i] = cache.get(program, i % 2 ? 1000 : 0);
                });
    EXPECT_EQ(cache.size(), 2u);
    for (std::size_t i = 2; i < got.size(); ++i)
        EXPECT_EQ(got[i].get(), got[i - 2].get()) << i;
    EXPECT_NE(got[0].get(), got[1].get());
    EXPECT_EQ(got[1]->instCount(), 1000u);
    EXPECT_GT(got[0]->instCount(), got[1]->instCount());
}

TEST(Sweep, TraceSharingDoesNotChangeGridResults)
{
    // The headline replay guarantee at the sweep level: the same grid
    // with trace sharing off (every job executes the program live)
    // and on (one recording per program, shared replay) must produce
    // bit-identical results in the same order.
    std::vector<SweepJob> jobs = determinismGrid();

    SweepRunner live(4);
    live.setTraceSharing(false);
    for (const SweepJob &job : jobs)
        live.submit(job);
    std::vector<SimResult> liveResults = live.collect();

    SweepRunner shared(4); // shareTraces defaults to on
    for (const SweepJob &job : jobs)
        shared.submit(job);
    std::vector<SimResult> sharedResults = shared.collect();

    ASSERT_EQ(liveResults.size(), sharedResults.size());
    for (std::size_t i = 0; i < liveResults.size(); ++i) {
        SCOPED_TRACE("job=" + std::to_string(i));
        expectIdentical(sharedResults[i], liveResults[i]);
    }
}

TEST(Sweep, TraceCacheByteBudgetEvictsLeastRecentlyUsed)
{
    auto program = sharedWorkload("li", 32);
    auto bytesOf = [&program](std::uint64_t cap) {
        TraceCache probe;
        probe.get(program, cap);
        return probe.residentBytes();
    };
    const std::size_t big = bytesOf(2000);
    const std::size_t mid = bytesOf(1000);
    ASSERT_GT(big, mid);

    TraceCache cache;
    cache.setByteBudget(big + mid);
    auto t1 = cache.get(program, 2000);
    auto t2 = cache.get(program, 1000);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_LE(cache.residentBytes(), big + mid);

    // Touch t1, then insert a third trace that pushes the total over
    // the budget: the LRU entry (t2) must go, never the one just
    // requested, and t1 — recently used — must survive.
    EXPECT_EQ(cache.get(program, 2000).get(), t1.get());
    auto t3 = cache.get(program, 500);
    EXPECT_LE(cache.residentBytes(), big + mid);
    EXPECT_EQ(cache.recordings(), 3u);
    EXPECT_EQ(cache.get(program, 2000).get(), t1.get());
    EXPECT_EQ(cache.recordings(), 3u); // no re-record for t1

    // The evicted trace stays alive for holders of its shared_ptr and
    // a future touch re-records it.
    EXPECT_EQ(t2->instCount(), 1000u);
    auto t2again = cache.get(program, 1000);
    EXPECT_NE(t2again.get(), t2.get());
    EXPECT_EQ(cache.recordings(), 4u);
    EXPECT_EQ(t2again->instCount(), 1000u);
}

TEST(Sweep, TraceCacheSingleOverBudgetTraceStillWorks)
{
    // A budget smaller than any one trace must degrade to "keep only
    // the trace in hand", not fail.
    auto program = sharedWorkload("li", 32);
    TraceCache cache;
    cache.setByteBudget(1);
    auto t = cache.get(program, 1000);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->instCount(), 1000u);
    EXPECT_LE(cache.size(), 1u);
}

TEST(Sweep, TraceCacheBudgetDoesNotChangeGridResults)
{
    // A pathologically tight budget forces constant eviction and
    // re-recording mid-sweep; results must stay bit-identical to the
    // unbudgeted reference.
    std::vector<SweepJob> jobs = determinismGrid();
    std::vector<SimResult> serial;
    for (const SweepJob &job : jobs)
        serial.push_back(run(*job.program, job.cfg, job.opts));

    SweepRunner sweep(4);
    sweep.setTraceCacheBudget(1);
    for (const SweepJob &job : jobs)
        sweep.submit(job);
    std::vector<SimResult> swept = sweep.collect();
    ASSERT_EQ(swept.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("job=" + std::to_string(i));
        expectIdentical(swept[i], serial[i]);
    }
}

// ---- ThreadPool primitive ----

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    parallelFor(pool, hits.size(),
                [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexError)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        parallelFor(pool, 64, [&ran](std::size_t i) {
            ++ran;
            if (i == 7 || i == 23)
                throw std::runtime_error("boom " + std::to_string(i));
        });
        FAIL() << "parallelFor should have thrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 7");
    }
    EXPECT_EQ(ran.load(), 64); // failures don't cancel other indices
}

TEST(ThreadPool, WaitIsIdempotentAndZeroTasksIsFine)
{
    ThreadPool pool(2);
    pool.wait();
    parallelFor(pool, 0, [](std::size_t) { FAIL(); });
    pool.wait();
    EXPECT_EQ(pool.size(), 2u);
}

TEST(ThreadPool, DefaultSizeUsesHardwareConcurrency)
{
    ThreadPool pool;
    EXPECT_EQ(pool.size(), ThreadPool::defaultThreads());
    EXPECT_GE(pool.size(), 1u);
}

// ---- Thread-safety regressions (exercised under TSan) ----

TEST(Sweep, ConcurrentLoggingDoesNotRace)
{
    // warn()/inform()/setQuiet() from many threads: TSan flags any
    // unsynchronized access to the logging state.
    setQuiet(true);
    ThreadPool pool(8);
    parallelFor(pool, 64, [](std::size_t i) {
        if (i % 16 == 0)
            setQuiet(true); // benign concurrent store
        warn("concurrent warn %zu", i);
        inform("concurrent inform %zu", i);
    });
    setQuiet(false);
}

TEST(Sweep, ConcurrentWorkloadBuildsDoNotRace)
{
    // Workload generators share only immutable tables; building the
    // same workload on many threads must be race-free and yield
    // identical programs.
    ThreadPool pool(8);
    std::vector<std::shared_ptr<const prog::Program>> built(8);
    parallelFor(pool, built.size(), [&built](std::size_t i) {
        workloads::WorkloadParams p;
        p.scale = 10;
        built[i] = std::make_shared<const prog::Program>(
            workloads::build("go", p));
    });
    for (std::size_t i = 1; i < built.size(); ++i) {
        ASSERT_EQ(built[i]->textSize(), built[0]->textSize());
        for (std::uint32_t w = 0; w < built[0]->textSize(); ++w)
            ASSERT_EQ(built[i]->fetchRaw(w), built[0]->fetchRaw(w));
    }
}
