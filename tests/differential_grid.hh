/**
 * @file
 * The differential grid shared by tools/ddbaseline (which generates
 * the pinned tables) and tests/test_differential.cpp and
 * tests/test_sampled.cpp (which check them): the reference machine
 * configurations, the exact integer view of the memory-queue counters
 * pinned in queue_counters_baseline.inc, and the exact integer view of
 * a sampled run pinned in sampled_baseline.inc.
 */

#ifndef DDSIM_TESTS_DIFFERENTIAL_GRID_HH_
#define DDSIM_TESTS_DIFFERENTIAL_GRID_HH_

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "config/presets.hh"
#include "cpu/pipeline.hh"
#include "sim/runner.hh"
#include "stats/histogram.hh"
#include "util/json_parse.hh"
#include "vm/executor.hh"
#include "vm/trace.hh"

namespace ddsim::diffgrid {

/** Names of the five reference configurations, in table order. */
inline constexpr const char *kConfigs[] = {"base4", "dec32", "dec22",
                                           "rep32", "opt32"};

/**
 * The sampled pin's configurations: the five above plus the two
 * classifiers whose functional warming trains the region predictor
 * (Classifier::warmClassify): "pred32", the predictor alone, and
 * "hyb32", StaticHybrid, which trains it only on Ambiguous
 * instructions.
 */
inline constexpr const char *kSampledConfigs[] = {
    "base4", "dec32", "dec22", "rep32", "opt32", "pred32", "hyb32"};

/** The reference configuration called @p name (see kSampledConfigs). */
inline config::MachineConfig
configFor(const std::string &name)
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
    if (name == "pred32" || name == "hyb32") {
        config::MachineConfig cfg = config::decoupledOptimized(3, 2);
        cfg.classifier = name == "pred32"
                             ? config::ClassifierKind::Predictor
                             : config::ClassifierKind::StaticHybrid;
        return cfg;
    }
    // fast forwarding + 2-way combining
    return config::decoupledOptimized(3, 2);
}

/**
 * Append @p stat as " path=value" tokens: a scalar as its value, a
 * histogram as its sample count, min, max, overflow and every
 * non-empty bucket. Zero values are left out.
 */
inline void
appendCounters(std::string &out, const std::string &path,
               const stats::StatBase &stat)
{
    auto put = [&out](const std::string &key, std::uint64_t v) {
        if (v != 0)
            out += " " + key + "=" + std::to_string(v);
    };
    if (auto *s = dynamic_cast<const stats::Scalar *>(&stat)) {
        put(path, s->value());
    } else if (auto *h = dynamic_cast<const stats::Histogram *>(&stat)) {
        put(path + ".samples", h->samples());
        put(path + ".min", h->minValue());
        put(path + ".max", h->maxValue());
        put(path + ".overflow", h->overflow());
        for (int i = 0; i < h->numBuckets(); ++i)
            put(path + ".b" + std::to_string(i), h->bucket(i));
    }
}

/**
 * Run @p program live on reference configuration @p cfgName and
 * return every integer counter of the LSQ and LVAQ stats groups plus
 * the pipeline's queue-facing stall counters, as one line of
 * " path=value" tokens. Cycle counts alone cannot see a scheduling
 * rewrite that moves stalls, denials or combining between loads.
 */
inline std::string
queueCounters(const prog::Program &program, const std::string &cfgName)
{
    stats::Group root(nullptr, "");
    vm::Executor exec(program);
    cpu::Pipeline pipe(&root, configFor(cfgName), exec);
    pipe.run();
    std::string out;
    for (stats::Group *q : {static_cast<stats::Group *>(&pipe.lsq()),
                            static_cast<stats::Group *>(pipe.lvaq())}) {
        if (!q)
            continue;
        for (const stats::StatBase *s : q->stats())
            appendCounters(out, q->path() + "." + s->name(), *s);
    }
    for (const stats::Scalar *s :
         {&pipe.robFullStalls, &pipe.lsqFullStalls, &pipe.lvaqFullStalls,
          &pipe.commitPortStalls})
        appendCounters(out, pipe.path() + "." + s->name(), *s);
    return out;
}

/** " key=value" tokens of a queueCounters() or sampledCounters() line. */
inline std::map<std::string, std::string>
counterMap(const std::string &line)
{
    std::map<std::string, std::string> m;
    std::size_t i = 0;
    while ((i = line.find_first_not_of(' ', i)) != std::string::npos) {
        std::size_t end = line.find(' ', i);
        std::string tok = line.substr(i, end - i);
        std::size_t eq = tok.find('=');
        m[tok.substr(0, eq)] = tok.substr(eq + 1);
        i = end;
    }
    return m;
}

/**
 * The sampled pin's plan: dense enough that every workload at the
 * differential scale crosses at least ten jittered fast-forward gaps,
 * each far longer than its detailed window.
 */
inline sim::SamplingPlan
densePlan()
{
    sim::SamplingPlan plan;
    plan.period = 2048;
    plan.detail = 256;
    plan.warmup = 64;
    return plan;
}

/**
 * Append the integer stats of the manifest stats group @p g (and its
 * descendants) as " path=value" tokens: every integer-valued stat as
 * its value, every histogram as samples, min, max, overflow and
 * non-empty buckets. Zero values are left out.
 */
inline void
appendManifestStats(std::string &out, const std::string &prefix,
                    const JsonValue &g)
{
    auto put = [&out](const std::string &key, std::uint64_t v) {
        if (v != 0)
            out += " " + key + "=" + std::to_string(v);
    };
    for (const JsonValue &s : g.at("stats", "group").asArray("stats")) {
        std::string path = prefix + s.at("name", "stat").asString("name");
        if (const JsonValue *n = s.get("samples")) {
            put(path + ".samples", n->asUint("samples"));
            put(path + ".min", s.at("min", "hist").asUint("min"));
            put(path + ".max", s.at("max", "hist").asUint("max"));
            put(path + ".overflow",
                s.at("overflow", "hist").asUint("overflow"));
            const auto &b = s.at("buckets", "hist").asArray("buckets");
            for (std::size_t i = 0; i < b.size(); ++i)
                put(path + ".b" + std::to_string(i), b[i].asUint("bucket"));
        } else if (const JsonValue &v = s.at("value", "stat");
                   v.isInteger) {
            put(path, v.asUint("value"));
        }
    }
    for (const JsonValue &c : g.at("groups", "group").asArray("groups"))
        appendManifestStats(out,
                            prefix + c.at("name", "group").asString("name") +
                                ".",
                            c);
}

/**
 * Run @p program sampled under densePlan() on reference configuration
 * @p cfgName — live, or replaying @p trace when given — and return the
 * run as one line of " key=value" tokens: the SimResult and sampling
 * fields (doubles at full precision) followed by every integer stat of
 * the run's whole stats tree (stream, caches, classifier, predictor,
 * queues, pipeline), read back from its canonical manifest.
 */
inline std::string
sampledCounters(const prog::Program &program, const std::string &cfgName,
                std::shared_ptr<const vm::RecordedTrace> trace = nullptr)
{
    sim::RunOptions opts;
    opts.engine = sim::Engine::Sampled;
    opts.sampling = densePlan();
    opts.trace = std::move(trace);
    opts.captureManifest = true;
    opts.canonicalManifest = true;
    sim::SimResult r = sim::run(program, configFor(cfgName), opts);

    std::string out;
    auto putU = [&out](const char *key, std::uint64_t v) {
        out += std::string(" ") + key + "=" + std::to_string(v);
    };
    auto putD = [&out](const char *key, double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += std::string(" ") + key + "=" + buf;
    };
    putU("cycles", r.cycles);
    putU("committed", r.committed);
    putD("ipc", r.ipc);
    putU("windows", r.sampling.windows);
    putU("detail_insts", r.sampling.detailInsts);
    putU("detail_cycles", r.sampling.detailCycles);
    putD("ipc_ci95", r.sampling.ipcCi95);
    putD("mean_dyn_frame_words", r.meanDynFrameWords);
    putD("mean_static_frame_words", r.meanStaticFrameWords);
    appendManifestStats(out, "",
                        parseJson(r.manifestJson).at("stats", "manifest"));
    return out;
}

} // namespace ddsim::diffgrid

#endif // DDSIM_TESTS_DIFFERENTIAL_GRID_HH_
