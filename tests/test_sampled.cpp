/**
 * @file
 * Sampled-engine accuracy and plumbing suite.
 *
 * The headline pin: under the default SamplingPlan, every registry
 * workload's sampled IPC stays within 2% of the full-run IPC at the
 * registry default scale (the acceptance bound of the SMARTS-style
 * engine; the measured worst case when the plan was tuned was 1.35%,
 * so the pin has real margin without being flaky — the engine is
 * deterministic, a drift here means the warming or jitter logic
 * changed). Plus: the error-bar block, plan validation, engine-name
 * parsing with did-you-mean, and trace-replay equivalence of the
 * sampled estimate.
 *
 * The exact pin: every workload at the differential scale, sampled
 * under a dense plan on seven reference configurations, live and
 * trace-replayed, reproduces sampled_baseline.inc (generated by
 * tools/ddbaseline --sampled) token for token — the SimResult and
 * sampling fields and every integer stat of the whole stats tree.
 * Any fast-forward optimisation must leave it unchanged.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "config/presets.hh"
#include "differential_grid.hh"
#include "sim/runner.hh"
#include "util/error.hh"
#include "util/log.hh"
#include "vm/trace.hh"
#include "workloads/common.hh"

using namespace ddsim;
using namespace ddsim::sim;

namespace {

prog::Program
defaultScaleProgram(const workloads::WorkloadInfo &w)
{
    workloads::WorkloadParams p;
    p.scale = w.defaultScale;
    return workloads::build(w.name, p);
}

struct SampledRow
{
    const char *workload;
    const char *cfg;
    const char *counters; ///< diffgrid::sampledCounters() of the run.
};

const SampledRow kSampledBaseline[] = {
#include "sampled_baseline.inc"
};

void
expectMatchesPin(const std::string &gotLine, const SampledRow &row)
{
    std::map<std::string, std::string> got = diffgrid::counterMap(gotLine);
    std::map<std::string, std::string> want =
        diffgrid::counterMap(row.counters);
    for (const auto &[key, value] : want) {
        auto it = got.find(key);
        EXPECT_EQ(it == got.end() ? "0" : it->second, value) << key;
    }
    for (const auto &[key, value] : got)
        EXPECT_TRUE(want.count(key)) << key << "=" << value
                                     << " is not pinned";
}

class SampledPin : public ::testing::TestWithParam<SampledRow>
{};

std::string
sampledRowName(const ::testing::TestParamInfo<SampledRow> &info)
{
    return std::string(info.param.workload) + "_" + info.param.cfg;
}

} // namespace

TEST_P(SampledPin, LiveAndReplayMatchBaseline)
{
    const SampledRow &row = GetParam();
    workloads::WorkloadParams p;
    p.scale = workloads::find(row.workload)->defaultScale / 8;
    prog::Program program = workloads::build(row.workload, p);
    {
        SCOPED_TRACE("live");
        expectMatchesPin(diffgrid::sampledCounters(program, row.cfg), row);
    }
    {
        SCOPED_TRACE("trace-replay");
        expectMatchesPin(
            diffgrid::sampledCounters(
                program, row.cfg,
                std::make_shared<const vm::RecordedTrace>(
                    vm::RecordedTrace::record(program))),
            row);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadsSevenConfigs, SampledPin,
                         ::testing::ValuesIn(kSampledBaseline),
                         sampledRowName);

TEST(Sampled, DefaultPlanWithinTwoPercentOnEveryWorkload)
{
    const config::MachineConfig cfg = config::decoupledOptimized(3, 2);
    for (const workloads::WorkloadInfo &w : workloads::all()) {
        SCOPED_TRACE(w.name);
        prog::Program program = defaultScaleProgram(w);

        SimResult full = run(program, cfg);
        RunOptions so;
        so.engine = Engine::Sampled;
        SimResult sampled = run(program, cfg, so);

        // The estimate covers the whole program, not just the
        // measured windows.
        EXPECT_EQ(sampled.committed, full.committed);
        ASSERT_GT(full.ipc, 0.0);
        double errPct =
            (sampled.ipc - full.ipc) / full.ipc * 100.0;
        EXPECT_LE(std::fabs(errPct), 2.0)
            << "sampled " << sampled.ipc << " vs full " << full.ipc;

        // Error-bar block: enough windows for a meaningful CI, and
        // the manifest invariant ipc == committed/cycles holds.
        EXPECT_TRUE(sampled.sampling.active);
        EXPECT_GT(sampled.sampling.windows, 1u);
        EXPECT_GE(sampled.sampling.ipcCi95, 0.0);
        ASSERT_GT(sampled.cycles, 0u);
        EXPECT_DOUBLE_EQ(sampled.ipc,
                         static_cast<double>(sampled.committed) /
                             static_cast<double>(sampled.cycles));
    }
}

TEST(Sampled, DeterministicAndTraceReplayEquivalent)
{
    // Same plan, same program: two sampled runs are identical, and a
    // sampled run over a recorded trace matches the live-source one
    // (the jittered schedule is seeded deterministically).
    workloads::WorkloadParams p;
    p.scale = workloads::find("li")->defaultScale / 2;
    prog::Program program = workloads::build("li", p);
    const config::MachineConfig cfg = config::decoupledOptimized(3, 2);

    RunOptions so;
    so.engine = Engine::Sampled;
    SimResult a = run(program, cfg, so);
    SimResult b = run(program, cfg, so);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.sampling.windows, b.sampling.windows);
    EXPECT_EQ(a.sampling.detailCycles, b.sampling.detailCycles);

    RunOptions replayOpts = so;
    replayOpts.trace = std::make_shared<const vm::RecordedTrace>(
        vm::RecordedTrace::record(program));
    SimResult c = run(program, cfg, replayOpts);
    EXPECT_EQ(a.cycles, c.cycles);
    EXPECT_EQ(a.committed, c.committed);
    EXPECT_EQ(a.sampling.detailCycles, c.sampling.detailCycles);
}

TEST(Sampled, RejectsInvalidPlansAndIncompatibleOptions)
{
    setQuiet(true);
    workloads::WorkloadParams p;
    p.scale = 10;
    prog::Program program = workloads::build("li", p);
    const config::MachineConfig cfg = config::baseline(2);

    RunOptions so;
    so.engine = Engine::Sampled;

    RunOptions zeroDetail = so;
    zeroDetail.sampling.detail = 0;
    EXPECT_THROW(run(program, cfg, zeroDetail), ConfigError);

    RunOptions overlong = so;
    overlong.sampling.warmup =
        overlong.sampling.period - overlong.sampling.detail + 1;
    EXPECT_THROW(run(program, cfg, overlong), ConfigError);

    RunOptions warmed = so;
    warmed.warmupInsts = 100;
    EXPECT_THROW(run(program, cfg, warmed), ConfigError);

    RunOptions traced = so;
    traced.tracePath = ::testing::TempDir() + "sampled_reject.trace";
    EXPECT_THROW(run(program, cfg, traced), ConfigError);
    setQuiet(false);
}

TEST(Sampled, EngineNamesRoundTripAndRejectWithSuggestion)
{
    for (Engine e :
         {Engine::Auto, Engine::Live, Engine::Replay, Engine::Sampled})
        EXPECT_EQ(engineFromName(engineName(e)), e);

    setQuiet(true);
    EXPECT_THROW(engineFromName("warp-drive"), ConfigError);
    // The batched engine was removed; its name is now just unknown.
    EXPECT_THROW(engineFromName("batched"), ConfigError);
    try {
        engineFromName("sampeld");
        FAIL() << "engineFromName should have thrown";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'sampled'"),
                  std::string::npos)
            << e.what();
    }
    setQuiet(false);
}
