/**
 * @file
 * The differential grid shared by tools/ddbaseline (which generates
 * the pinned tables) and tests/test_differential.cpp (which checks
 * them): the five reference machine configurations, and the exact
 * integer view of the memory-queue counters pinned in
 * queue_counters_baseline.inc.
 */

#ifndef DDSIM_TESTS_DIFFERENTIAL_GRID_HH_
#define DDSIM_TESTS_DIFFERENTIAL_GRID_HH_

#include <string>

#include "config/presets.hh"
#include "cpu/pipeline.hh"
#include "stats/histogram.hh"
#include "vm/executor.hh"

namespace ddsim::diffgrid {

/** Names of the five reference configurations, in table order. */
inline constexpr const char *kConfigs[] = {"base4", "dec32", "dec22",
                                           "rep32", "opt32"};

/** The reference configuration called @p name (see kConfigs). */
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

} // namespace ddsim::diffgrid

#endif // DDSIM_TESTS_DIFFERENTIAL_GRID_HH_
