/**
 * @file
 * `ddbench reference`: compute (once per workload, seed and build) the
 * values the correctness gate compares against, in a process of its
 * own so the measured run's peak RSS and timings never include them.
 *
 *  - Pinned rows: the workload's programs at the differential suite's
 *    scale and the registry default seed, compared field-for-field
 *    with tests/differential_baseline.inc.
 *  - exact-long: a live-engine run of each program (live == replay).
 *  - sampled-long: an exact live-engine run of each program.
 *  - fig7-farm: the farm::runSerial merged manifest of the grid.
 *  - Every workload: exact runs at the further accuracy seeds, which
 *    the sampled engine's error is measured against.
 */

#include <cstdio>
#include <sstream>

#include "common.hh"
#include "config/presets.hh"
#include "sim/farm.hh"
#include "util/error.hh"
#include "util/file_claim.hh"
#include "util/json.hh"
#include "util/thread_pool.hh"
#include "workloads/common.hh"

namespace perfbench {

using namespace ddsim;

namespace {

/** Field layout of tests/differential_baseline.inc. */
struct BaselineRow
{
    const char *workload;
    const char *cfg;
    std::uint64_t cycles;
    std::uint64_t committed;
    std::uint64_t loads;
    std::uint64_t stores;
    std::uint64_t localLoads;
    std::uint64_t localStores;
    std::uint64_t l1Accesses;
    std::uint64_t l1Misses;
    std::uint64_t lvcAccesses;
    std::uint64_t lvcMisses;
    std::uint64_t l2Accesses;
    std::uint64_t memAccesses;
    std::uint64_t lsqForwards;
    std::uint64_t lvaqForwards;
    std::uint64_t lvaqFastForwards;
    std::uint64_t lvaqCombined;
    std::uint64_t lvaqLoads;
    std::uint64_t missteered;
    double meanDynFrameWords;
};

const BaselineRow kBaseline[] = {
#include "differential_baseline.inc"
};

/** The differential suite's configuration names (test_differential). */
config::MachineConfig
diffConfig(const std::string &name)
{
    if (name == "base4")
        return config::baseline(4);
    if (name == "dec32")
        return config::decoupled(3, 2);
    if (name == "dec22")
        return config::decoupled(2, 2);
    if (name == "rep32") {
        config::MachineConfig cfg = config::decoupled(3, 2);
        cfg.classifier = config::ClassifierKind::Replicate;
        return cfg;
    }
    return config::decoupledOptimized(3, 2);
}

Stats
rowStats(const BaselineRow &r)
{
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"cycles", d(r.cycles)},
        {"committed", d(r.committed)},
        {"loads", d(r.loads)},
        {"stores", d(r.stores)},
        {"local_loads", d(r.localLoads)},
        {"local_stores", d(r.localStores)},
        {"l1_accesses", d(r.l1Accesses)},
        {"l1_misses", d(r.l1Misses)},
        {"lvc_accesses", d(r.lvcAccesses)},
        {"lvc_misses", d(r.lvcMisses)},
        {"l2_accesses", d(r.l2Accesses)},
        {"mem_accesses", d(r.memAccesses)},
        {"lsq_forwards", d(r.lsqForwards)},
        {"lvaq_forwards", d(r.lvaqForwards)},
        {"lvaq_fast_forwards", d(r.lvaqFastForwards)},
        {"lvaq_combined", d(r.lvaqCombined)},
        {"lvaq_loads", d(r.lvaqLoads)},
        {"missteered", d(r.missteered)},
        {"mean_dyn_frame_words", r.meanDynFrameWords},
    };
}

/** Which pinned configurations a workload's engine path exercises. */
std::vector<std::string>
pinnedConfigs(Workload w)
{
    if (w == Workload::Fig7Farm)
        return {"base4", "dec22", "dec32"};
    return {"opt32"};
}

constexpr unsigned kRefThreads = 3;

} // namespace

int
runReference(const Args &args)
{
    ensureDir(args.refDir);
    ensureDir(args.workDir);

    // Pinned rows: registry default seed, differential-suite scale.
    std::vector<const BaselineRow *> rows;
    const std::vector<ProgramSpec> specs =
        programSpecs(args.workload, args.seed);
    for (const BaselineRow &row : kBaseline)
        for (const std::string &cfg : pinnedConfigs(args.workload))
            for (const ProgramSpec &spec : specs)
                if (spec.name == row.workload && cfg == row.cfg)
                    rows.push_back(&row);
    ThreadPool pool(kRefThreads);
    std::vector<std::string> pinnedBad(rows.size());
    parallelFor(pool, rows.size(), [&](std::size_t i) {
        const BaselineRow &row = *rows[i];
        workloads::WorkloadParams p;
        p.scale = workloads::find(row.workload)->defaultScale / 8;
        prog::Program program = workloads::build(row.workload, p);
        sim::RunOptions opts;
        opts.engine = sim::Engine::Replay;
        sim::SimResult r =
            sim::run(program, diffConfig(row.cfg), opts);
        for (const std::string &f : diffStats(simStats(r), rowStats(row)))
            pinnedBad[i] += (pinnedBad[i].empty() ? "" : ",") + f;
    });

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("workload", workloadName(args.workload));
    w.field("seed", args.seed);
    w.key("pinned");
    w.beginArray();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        w.beginObject();
        w.field("row", std::string(rows[i]->workload) + "/" + rows[i]->cfg);
        w.field("mismatch", pinnedBad[i]);
        w.endObject();
    }
    w.endArray();

    w.key("points");
    w.beginArray();
    auto writePoint = [&](const std::string &name,
                          const std::string &notation, int variant,
                          const Stats &stats) {
        w.beginObject();
        w.field("name", name);
        w.field("notation", notation);
        w.field("variant", variant);
        w.key("stats");
        writeStats(w, stats);
        w.endObject();
    };
    int firstVariant = 0;
    if (args.workload == Workload::Fig7Farm) {
        sim::GridSpec spec = fig7Grid(args);
        sim::SweepOutcome out = sim::farm::runSerial(
            spec, kRefThreads, sim::RetryPolicy{}, 0, 0.0,
            args.refDir + "/merged.json");
        if (!out.ok())
            raise(FatalError("fig7 reference: serial run quarantined " +
                             std::to_string(out.numQuarantined) +
                             " points"));
        for (std::size_t i = 0; i < out.results.size(); ++i)
            writePoint(spec.jobs[i].workload, out.results[i].notation, 0,
                       simStats(out.results[i]));
        firstVariant = 1; // the grid covers the benchmark seed
    }
    // Exact live-engine runs on the workload's machine at each accuracy
    // seed. For exact-long, variant 0 is also the live == replay
    // reference; for sampled-long, the exact run the sampled engine is
    // held to.
    const config::MachineConfig cfg = workloadConfig(args.workload);
    std::vector<std::pair<ProgramSpec, int>> runs;
    for (int k = firstVariant; k < kAccuracySeeds; ++k)
        for (const ProgramSpec &spec :
             programSpecs(args.workload, accuracySeed(args.seed, k)))
            runs.emplace_back(spec, k);
    std::vector<Stats> exact(runs.size());
    parallelFor(pool, runs.size(), [&](std::size_t i) {
        auto program = buildProgram(runs[i].first);
        sim::RunOptions opts;
        opts.engine = sim::Engine::Live;
        exact[i] = simStats(sim::run(*program, cfg, opts));
    });
    for (std::size_t i = 0; i < runs.size(); ++i)
        writePoint(runs[i].first.name, cfg.notation(), runs[i].second,
                   exact[i]);
    w.endArray();
    w.endObject();
    os << '\n';
    // Atomic: a killed reference run leaves no ref.json behind.
    writeFileTextAtomic(args.refDir + "/ref.json", os.str());
    std::printf("reference for %s seed %llu written to %s\n",
                workloadName(args.workload),
                static_cast<unsigned long long>(args.seed),
                args.refDir.c_str());
    return 0;
}

} // namespace perfbench
