/**
 * @file
 * External-trace frontend suite: the ddsim-xtrace-v1 encoder/decoder
 * (round-trip byte identity, truncation/bit-flip corruption fuzz),
 * the public text-format converter (semantics and malformed-input
 * catalogue), engine coverage for ingested and adversarial traces,
 * the ingest-annotation-vs-oracle cross-check, and the satellite
 * guards that rode along: the sampled-plan overflow fix, the
 * single-window error-bar rule, and CliArgs::getMbBytes.
 *
 * Labelled "robust" in ctest so the corruption fuzzes also run under
 * ASan/UBSan in CI.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "config/cli.hh"
#include "config/presets.hh"
#include "sim/grid_spec.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "util/log.hh"
#include "vm/convert.hh"
#include "vm/xtrace.hh"
#include "workloads/common.hh"

using namespace ddsim;

namespace {

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spill(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::shared_ptr<const prog::Program>
programShared(const char *name, std::uint64_t scale = 5)
{
    workloads::WorkloadParams p;
    p.scale = scale;
    return std::make_shared<const prog::Program>(
        workloads::build(name, p));
}

/** The checked-in public-format sample (CI converts the same file). */
std::string
sampleTracePath()
{
    return std::string(DDSIM_SOURCE_DIR) +
           "/tests/data/sample_trace.txt";
}

vm::ConvertOptions
sampleOptions()
{
    vm::ConvertOptions copts;
    copts.name = "sample";
    copts.stackLo = 0x7ffe0000;
    copts.stackHi = 0x7fffffff;
    return copts;
}

class QuietGuard
{
  public:
    QuietGuard() { setQuiet(true); }
    ~QuietGuard() { setQuiet(false); }
};

} // namespace

// ---------------------------------------------------------------------
// Round trips: encode -> decode -> re-encode is byte-identical
// ---------------------------------------------------------------------

TEST(XtraceRoundTrip, RecordedWorkloadIsByteIdentical)
{
    auto xt = vm::ExternalTrace::fromProgram(programShared("li"), 0,
                                             "workload", true);
    std::string a = tempPath("rt_a.xt"), b = tempPath("rt_b.xt");
    xt->save(a);
    vm::ExternalTrace::load(a)->save(b);
    EXPECT_EQ(slurp(a), slurp(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(XtraceRoundTrip, ConvertedTextTraceIsByteIdentical)
{
    auto xt = vm::convertTextTrace(sampleTracePath(), sampleOptions());
    std::string a = tempPath("rt_c.xt"), b = tempPath("rt_d.xt");
    xt->save(a);
    auto reloaded = vm::ExternalTrace::load(a);
    reloaded->save(b);
    EXPECT_EQ(slurp(a), slurp(b));

    // The decoded trace is semantically the converter's trace too.
    EXPECT_EQ(reloaded->instCount(), xt->instCount());
    EXPECT_EQ(reloaded->verdicts(), xt->verdicts());
    EXPECT_EQ(reloaded->hintsValid(), xt->hintsValid());
    std::remove(a.c_str());
    std::remove(b.c_str());
}

// ---------------------------------------------------------------------
// Converter semantics on the checked-in sample
// ---------------------------------------------------------------------

TEST(Converter, SampleTraceAnnotatesAsExpected)
{
    auto xt = vm::convertTextTrace(sampleTracePath(), sampleOptions());
    const vm::XAnnotation &a = xt->annotation();
    // One stack load (Local), one heap store (NonLocal), nothing
    // ambiguous; sp-tracking and the runtime oracle agree everywhere.
    EXPECT_EQ(a.memPcs, 2u);
    EXPECT_EQ(a.localPcs, 1u);
    EXPECT_EQ(a.nonLocalPcs, 1u);
    EXPECT_EQ(a.ambiguousPcs, 0u);
    EXPECT_EQ(a.spAgree, a.memOps);
    EXPECT_EQ(a.spDisagree, 0u);
    EXPECT_TRUE(xt->hintsValid());
    EXPECT_EQ(xt->format(), "text");
    EXPECT_EQ(xt->program().name(), "sample");
}

TEST(Converter, NoHintsModeLeavesTextUnhinted)
{
    vm::ConvertOptions copts = sampleOptions();
    copts.burnHints = false;
    auto xt = vm::convertTextTrace(sampleTracePath(), copts);
    EXPECT_FALSE(xt->hintsValid());
    // The verdict table is computed either way.
    EXPECT_EQ(xt->annotation().localPcs, 1u);
}

TEST(Converter, NoStackRangeMeansNothingLocal)
{
    vm::ConvertOptions copts;
    copts.name = "flat";
    auto xt = vm::convertTextTrace(sampleTracePath(), copts);
    EXPECT_EQ(xt->annotation().localPcs, 0u);
    EXPECT_EQ(xt->annotation().spDisagree, 0u);
}

// ---------------------------------------------------------------------
// Engine coverage: ingested traces behave like workloads everywhere
// ---------------------------------------------------------------------

namespace {

/** Run @p xt end-to-end under @p opts. */
sim::SimResult
runTrace(const std::shared_ptr<const vm::ExternalTrace> &xt,
         const config::MachineConfig &cfg, sim::RunOptions opts = {})
{
    opts.externalTrace = xt;
    return sim::run(xt->program(), cfg, opts);
}

} // namespace

TEST(TraceEngines, ReplayAndSampledBothRun)
{
    auto xt = vm::convertTextTrace(sampleTracePath(), sampleOptions());

    sim::SimResult replay = runTrace(xt, config::decoupled(2, 2));
    EXPECT_EQ(replay.committed, xt->instCount());
    EXPECT_GT(replay.ipc, 0.0);

    sim::RunOptions sopts;
    sopts.engine = sim::Engine::Sampled;
    sopts.sampling = {64, 32, 8};
    sim::SimResult sampled =
        runTrace(xt, config::decoupled(2, 2), sopts);
    // The sample is only ~200 instructions, so a complete measured
    // window is not guaranteed — but the engine must have engaged.
    EXPECT_TRUE(sampled.sampling.active);
}

TEST(TraceEngines, LiveEngineIsRejected)
{
    QuietGuard q;
    auto xt = vm::convertTextTrace(sampleTracePath(), sampleOptions());
    sim::RunOptions opts;
    opts.engine = sim::Engine::Live;
    EXPECT_THROW(runTrace(xt, config::decoupled(2, 2), opts),
                 ConfigError);
}

TEST(TraceEngines, ExplicitTraceIsMutuallyExclusive)
{
    QuietGuard q;
    auto xt = vm::convertTextTrace(sampleTracePath(), sampleOptions());
    sim::RunOptions opts;
    opts.externalTrace = xt;
    opts.trace = vm::ExternalTrace::sharedTrace(xt);
    EXPECT_THROW(sim::run(xt->program(), config::decoupled(2, 2), opts),
                 ConfigError);
}

TEST(TraceEngines, StaticHybridUsesIngestVerdicts)
{
    auto xt = vm::convertTextTrace(sampleTracePath(), sampleOptions());
    config::MachineConfig cfg = config::decoupled(2, 2);
    cfg.classifier = config::ClassifierKind::StaticHybrid;
    sim::SimResult r = runTrace(xt, cfg);
    // Every memory pc of the sample has an unambiguous verdict, so
    // the static table decides every access and none missteer.
    EXPECT_GT(r.staticDecided, 0u);
    EXPECT_EQ(r.missteered, 0u);
    EXPECT_GT(r.toLvaq, 0u);
}

TEST(TraceEngines, SweepRunnerRunsExternalColumns)
{
    std::string saved = tempPath("sweep.xt");
    vm::convertTextTrace(sampleTracePath(), sampleOptions())
        ->save(saved);
    auto xt = vm::ExternalTrace::loadCached(saved);
    const config::MachineConfig cfgs[] = {config::decoupled(2, 1),
                                          config::decoupled(2, 2)};
    std::vector<sim::SweepJob> jobs;
    for (const config::MachineConfig &cfg : cfgs) {
        sim::SweepJob job;
        job.program = xt->sharedProgram();
        job.cfg = cfg;
        job.opts.externalTrace = xt;
        jobs.push_back(std::move(job));
    }
    std::vector<sim::SimResult> results =
        sim::SweepRunner::runAll(std::move(jobs), 2);
    ASSERT_EQ(results.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        sim::SimResult one = runTrace(xt, cfgs[i]);
        EXPECT_EQ(results[i].cycles, one.cycles) << i;
    }
}

// ---------------------------------------------------------------------
// Adversarial synthetic workloads run through every engine
// ---------------------------------------------------------------------

TEST(Adversarial, AllGeneratorsRunAllEngines)
{
    for (const char *name :
         {"ptrchase", "deeprec", "hugeframe", "allocaframe"}) {
        ASSERT_NE(workloads::find(name), nullptr) << name;
        auto xt = vm::ExternalTrace::fromProgram(
            programShared(name, 2), 20000, "workload", true);
        EXPECT_GT(xt->instCount(), 0u) << name;
        // Annotation self-check: sp-tracking never disagrees with the
        // oracle on generator output (the bases are honest).
        EXPECT_EQ(xt->annotation().spDisagree, 0u) << name;

        sim::SimResult replay = runTrace(xt, config::decoupled(2, 2));
        EXPECT_EQ(replay.committed, xt->instCount()) << name;

        sim::RunOptions sopts;
        sopts.engine = sim::Engine::Sampled;
        sopts.sampling = {1024, 512, 64};
        sim::SimResult sampled =
            runTrace(xt, config::decoupled(2, 2), sopts);
        EXPECT_TRUE(sampled.sampling.active) << name;
    }
}

TEST(Adversarial, RegistryExcludesThemFromDefaultSet)
{
    // The 12-workload baseline must stay byte-identical: adversarial
    // generators are find()-able but never part of all().
    for (const auto &w : workloads::all())
        for (const char *name :
             {"ptrchase", "deeprec", "hugeframe", "allocaframe"})
            EXPECT_STRNE(w.name, name);
}

// ---------------------------------------------------------------------
// Corruption fuzz: xtrace decoder
// ---------------------------------------------------------------------

TEST(XtraceCorruption, EveryTruncationIsDetected)
{
    QuietGuard q;
    auto xt = vm::ExternalTrace::fromProgram(programShared("li", 1),
                                             300, "workload", true);
    std::string good = tempPath("xt_trunc.xt");
    xt->save(good);
    std::string bytes = slurp(good);
    ASSERT_GT(bytes.size(), 40u);

    std::string path = tempPath("xt_trunc_cut.xt");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        spill(path, bytes.substr(0, len));
        try {
            vm::ExternalTrace::load(path);
            ADD_FAILURE() << "truncation to " << len
                          << " bytes decoded successfully";
        } catch (const TraceCorruptError &e) {
            EXPECT_LE(e.byteOffset(), bytes.size());
        } catch (const IoError &) {
            // Zero-length opens can surface as I/O failures.
        }
    }
    std::remove(path.c_str());
    std::remove(good.c_str());
}

TEST(XtraceCorruption, BitFlipsNeverEscapeTheTaxonomy)
{
    QuietGuard q;
    auto xt = vm::ExternalTrace::fromProgram(programShared("li", 1),
                                             120, "workload", true);
    std::string good = tempPath("xt_flip.xt");
    xt->save(good);
    std::string bytes = slurp(good);
    std::string path = tempPath("xt_flip_bit.xt");
    std::size_t detected = 0, decoded = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = bytes;
            mutated[i] = static_cast<char>(
                mutated[i] ^ static_cast<char>(1u << bit));
            spill(path, mutated);
            // A flip may mutate payload values without breaking any
            // validated invariant; what it must never do is crash or
            // throw outside the taxonomy.
            try {
                vm::ExternalTrace::load(path);
                ++decoded;
            } catch (const TraceCorruptError &) {
                ++detected;
            }
        }
    }
    EXPECT_GT(detected, 0u); // structural damage is caught...
    EXPECT_GT(decoded, 0u);  // ...and benign flips still decode
    std::remove(path.c_str());
    std::remove(good.c_str());
}

// ---------------------------------------------------------------------
// Corruption fuzz: text-format converter
// ---------------------------------------------------------------------

namespace {

/** Expect conversion of @p text to raise TraceCorruptError. */
void
expectCorrupt(const std::string &text, const char *what)
{
    QuietGuard q;
    try {
        vm::convertTextTraceBuffer(text, "buf.txt", {});
        ADD_FAILURE() << what << ": converted successfully";
    } catch (const TraceCorruptError &e) {
        EXPECT_LE(e.byteOffset(), text.size()) << what;
    }
}

} // namespace

TEST(ConverterCorruption, MalformedInputCatalogue)
{
    expectCorrupt("", "empty input");
    expectCorrupt("# only a comment\n", "comment-only input");
    expectCorrupt("400000 0 1\n", "truncated line");
    expectCorrupt("400000 0 1 2 3 4 5\n", "overlong line");
    expectCorrupt("zzüge 0 1 2 3\n", "bad pc token");
    expectCorrupt("400000 7 1 2 3\n", "bad op type");
    expectCorrupt("400000 0 x 2 3\n", "bad dest");
    expectCorrupt("400000 0 -2 2 3\n", "dest below -1");
    expectCorrupt("400000 2 1 2 3\n", "memory record without address");
    expectCorrupt("400000 2 1 2 3 zz\n", "bad memory address");
    expectCorrupt("400000 0 1 2 3 10\n",
                  "address on a non-memory record");
    expectCorrupt("400000 0 1 2 3\n400000 1 1 2 3\n",
                  "pc reused with different fields");
    // A memory pc observed branching: 400008 (rank 1) is followed by
    // 400000 (rank 0), never its sequential successor.
    expectCorrupt("400008 2 1 2 3 10\n"
                  "400000 0 1 2 3\n"
                  "400008 2 1 2 3 10\n",
                  "memory instruction that branches");
}

TEST(ConverterCorruption, BitFlipsNeverEscapeTheTaxonomy)
{
    QuietGuard q;
    std::string text;
    for (int i = 0; i < 8; ++i) {
        char line[64];
        std::snprintf(line, sizeof line, "40%04x 2 1 2 -1 %x\n", i * 4,
                      0x1000 + i * 8);
        text += line;
    }
    text += "400100 0 4 1 -1\n";
    std::size_t detected = 0, converted = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = text;
            mutated[i] = static_cast<char>(
                mutated[i] ^ static_cast<char>(1u << bit));
            try {
                vm::convertTextTraceBuffer(mutated, "flip.txt", {});
                ++converted;
            } catch (const TraceCorruptError &) {
                ++detected;
            }
        }
    }
    EXPECT_GT(detected, 0u);
    EXPECT_GT(converted, 0u);
}

// ---------------------------------------------------------------------
// Grid-spec integration for external-trace points
// ---------------------------------------------------------------------

namespace {

sim::GridSpec
traceGrid(const std::string &tracePath)
{
    sim::GridSpec spec;
    spec.title = "trace grid";
    sim::GridJob job;
    job.id = 0;
    job.workload = "sample";
    job.scale = 1;
    job.seed = 0;
    job.tracePath = tracePath;
    job.cfg = config::decoupled(2, 2);
    spec.jobs.push_back(std::move(job));
    return spec;
}

} // namespace

TEST(TraceGrid, RoundTripsThroughJson)
{
    sim::GridSpec spec = traceGrid("traces/sample.xt");
    std::string path = tempPath("trace_grid.json");
    spec.writeFile(path);
    sim::GridSpec back = sim::GridSpec::fromFile(path);
    ASSERT_EQ(back.jobs.size(), 1u);
    EXPECT_EQ(back.jobs[0].tracePath, "traces/sample.xt");
    EXPECT_EQ(back.jobs[0].workload, "sample");
    std::remove(path.c_str());
}

TEST(TraceGrid, RejectsAnnotateAndLiveEngine)
{
    QuietGuard q;
    sim::GridSpec spec = traceGrid("traces/sample.xt");
    spec.jobs[0].annotate = "safe";
    EXPECT_THROW(spec.validate(), FatalError);

    spec = traceGrid("traces/sample.xt");
    spec.jobs[0].engine = sim::Engine::Live;
    EXPECT_THROW(spec.validate(), FatalError);

    // Programless build attempts are refused too.
    spec = traceGrid("traces/sample.xt");
    EXPECT_THROW(sim::buildGridProgram(spec.jobs[0]), FatalError);
}

// ---------------------------------------------------------------------
// Satellite: the sampled-plan guard is overflow-proof
// ---------------------------------------------------------------------

TEST(SamplingGuard, RejectsPlansThatDoNotFit)
{
    QuietGuard q;
    auto prog = programShared("li");
    sim::RunOptions opts;
    opts.engine = sim::Engine::Sampled;
    opts.sampling = {100, 200, 0}; // detail alone exceeds the period
    EXPECT_THROW(sim::run(*prog, config::decoupled(2, 2), opts),
                 ConfigError);
}

TEST(SamplingGuard, RejectsU64WrappingPlans)
{
    QuietGuard q;
    auto prog = programShared("li");
    const std::uint64_t huge =
        std::numeric_limits<std::uint64_t>::max() - 1000;

    // warmup + detail wraps past zero: the naive sum check passed
    // this and the skip length underflowed.
    sim::RunOptions opts;
    opts.engine = sim::Engine::Sampled;
    opts.sampling = {4096, 2560, huge};
    EXPECT_THROW(sim::run(*prog, config::decoupled(2, 2), opts),
                 ConfigError);

    opts.sampling = {4096, huge, 100};
    EXPECT_THROW(sim::run(*prog, config::decoupled(2, 2), opts),
                 ConfigError);
}

TEST(SamplingGuard, ValidPlanStillRuns)
{
    auto prog = programShared("li");
    sim::RunOptions opts;
    opts.engine = sim::Engine::Sampled;
    opts.sampling = {4096, 2560, 256};
    sim::SimResult r = sim::run(*prog, config::decoupled(2, 2), opts);
    EXPECT_TRUE(r.sampling.active);
}

// ---------------------------------------------------------------------
// Satellite: single-window sampled runs carry no error bar
// ---------------------------------------------------------------------

TEST(SingleWindow, NoConfidenceIntervalInManifest)
{
    auto prog = programShared("li", 2);
    sim::RunOptions opts;
    opts.engine = sim::Engine::Sampled;
    opts.maxInsts = 2000;
    opts.sampling = {1u << 20, 1024, 128}; // one window at most
    opts.captureManifest = true;
    sim::SimResult r = sim::run(*prog, config::decoupled(2, 2), opts);
    ASSERT_LE(r.sampling.windows, 1u);
    EXPECT_EQ(r.manifestJson.find("ipc_ci95"), std::string::npos);
}

TEST(SingleWindow, MultiWindowRunsStillCarryOne)
{
    auto prog = programShared("li");
    sim::RunOptions opts;
    opts.engine = sim::Engine::Sampled;
    opts.sampling = {4096, 2560, 256};
    opts.captureManifest = true;
    sim::SimResult r = sim::run(*prog, config::decoupled(2, 2), opts);
    ASSERT_GE(r.sampling.windows, 2u);
    EXPECT_NE(r.manifestJson.find("ipc_ci95"), std::string::npos);
}

// ---------------------------------------------------------------------
// Satellite: CliArgs::getMbBytes is overflow- and sign-safe
// ---------------------------------------------------------------------

namespace {

std::size_t
mbBytes(const char *arg)
{
    const char *argv[] = {"prog", arg};
    config::CliArgs args(2, argv);
    return args.getMbBytes("trace-cache-mb", 0);
}

} // namespace

TEST(MbBytes, ParsesAndScales)
{
    EXPECT_EQ(mbBytes("--trace-cache-mb=16"),
              std::size_t{16} << 20);
    EXPECT_EQ(mbBytes("--trace-cache-mb=0"), 0u);

    const char *argv[] = {"prog"};
    config::CliArgs args(1, argv);
    EXPECT_EQ(args.getMbBytes("trace-cache-mb", 123), 123u);
}

TEST(MbBytes, RejectsNegativeAndOverflow)
{
    QuietGuard q;
    EXPECT_THROW(mbBytes("--trace-cache-mb=-3"), ConfigError);
    EXPECT_THROW(mbBytes("--trace-cache-mb=bananas"), ConfigError);
    // Parses as int64 but the << 20 would overflow size_t.
    EXPECT_THROW(mbBytes("--trace-cache-mb=17592186044416"),
                 ConfigError);
}
