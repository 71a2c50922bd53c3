/**
 * @file
 * "ddsim-grid-v1": the portable description of a sweep grid. Every
 * figure bench can export the exact job list it would run as one JSON
 * document (bench --emit-grid=<f>), and the sweep farm (sim/farm.hh,
 * tools/ddsweep) can execute that document anywhere — in-process, or
 * spooled across worker processes — reproducing the bench's results
 * bit-for-bit.
 *
 * A grid point is fully self-describing: registry workload name, the
 * resolved generator scale and seed (not the bench's --scale factor,
 * so the program rebuilt later is byte-identical), per-job RunOptions
 * that affect timing (instruction cap, warmup), and the complete
 * MachineConfig. Nothing in the spec depends on the machine that
 * wrote it.
 */

#ifndef DDSIM_SIM_GRID_SPEC_HH_
#define DDSIM_SIM_GRID_SPEC_HH_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "config/machine_config.hh"
#include "prog/program.hh"
#include "sim/runner.hh"

namespace ddsim {
class JsonValue;
class JsonWriter;
}

namespace ddsim::sim {

/** Schema identifier stamped on grid-spec documents. */
inline constexpr const char *kGridSchema = "ddsim-grid-v1";

/** One self-describing grid point. */
struct GridJob
{
    /** Dense job id; equals the job's index in GridSpec::jobs and the
     *  point's submission index in an in-process sweep. */
    std::uint64_t id = 0;
    /** Workload registry short name ("li", "gcc", ...). When
     *  tracePath is set this is a display name only (the trace's
     *  program name) and need not exist in the registry. */
    std::string workload;
    /**
     * Ingest this ddsim-xtrace-v1 file instead of building a registry
     * workload ("" = none, the default — pre-existing specs stay
     * byte-identical). The trace supplies the program, the dynamic
     * stream, and the annotation verdicts; scale/seed are recorded
     * for provenance but unused, and annotate must be empty (hints
     * are burned at conversion time, not rebuild time).
     */
    std::string tracePath;
    /** Resolved WorkloadParams::scale (not a multiplier). */
    std::uint64_t scale = 1;
    /** WorkloadParams::seed. */
    std::uint64_t seed = 0;
    /** RunOptions::maxInsts / warmupInsts for this point. */
    std::uint64_t maxInsts = 0;
    std::uint64_t warmupInsts = 0;
    /**
     * Static-partitioning pass applied to the program after building:
     * "" (none, the default) or a HintPolicy name ("safe",
     * "speculative", "hybrid"). buildGridProgram re-runs the analyzer
     * and rewrites the local-hint bits deterministically, so a farm
     * worker reproduces an annotating bench's program bit-for-bit.
     */
    std::string annotate;
    /**
     * Execution engine for this point (RunOptions::engine). Auto — the
     * default, and the only value specs written before engines existed
     * can hold — lets the executor pick (farm workers and SweepRunner
     * share replay traces either way). Sampled runs the SMARTS plan
     * below.
     */
    Engine engine = Engine::Auto;
    /** Sampled-engine plan; meaningful only when engine == Sampled. */
    SamplingPlan sampling;
    config::MachineConfig cfg;
};

/** A whole grid: title plus dense, id-ordered jobs. */
struct GridSpec
{
    std::string title;
    std::vector<GridJob> jobs;

    /**
     * Structural validation: non-empty, ids dense 0..n-1 in order,
     * workloads known to the registry, configs validate(). Raises the
     * matching typed error on the first violation.
     */
    void validate() const;

    void writeTo(std::ostream &os) const;
    /** Atomic write; raises IoError. */
    void writeFile(const std::string &path) const;

    /** Parse + validate; raises JsonParseError / FatalError. */
    static GridSpec fromFile(const std::string &path);
    static GridSpec fromJson(const JsonValue &doc);
};

/** Emit one GridJob as a JSON object in value position. */
void writeGridJobJson(JsonWriter &w, const GridJob &job);

/** Parse one GridJob object (the inverse of writeGridJobJson). */
GridJob gridJobFromJson(const JsonValue &v);

/**
 * Parse a MachineConfig from the JSON object layout that
 * obs::writeMachineConfigJson emits (the same block run manifests
 * embed). The "notation" field is cross-checked against the rebuilt
 * config; a mismatch means the spec was hand-edited inconsistently
 * and raises ConfigError.
 */
config::MachineConfig machineConfigFromJson(const JsonValue &v);

/**
 * Build the grid job's program: registry factory at the spec's scale
 * and seed. Deterministic — every call (any process, any host) yields
 * the same program.
 */
prog::Program buildGridProgram(const GridJob &job);

} // namespace ddsim::sim

#endif // DDSIM_SIM_GRID_SPEC_HH_
