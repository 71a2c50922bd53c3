/**
 * @file
 * Run manifests: a schema-versioned JSON record of one simulation —
 * who produced it (git describe, simulator version), what ran
 * (workload, machine configuration, run options), how long it took,
 * a result summary, and the complete statistics tree. Written by
 * sim::run() when RunOptions::manifestPath / captureManifest is set.
 *
 * The obs layer deliberately depends only on config/, stats/ and
 * util/; the runner assembles a plain ManifestInfo so sim/ types never
 * leak down here.
 */

#ifndef DDSIM_OBS_MANIFEST_HH_
#define DDSIM_OBS_MANIFEST_HH_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "config/machine_config.hh"

namespace ddsim {
class JsonWriter;
}

namespace ddsim::stats {
class Group;
}

namespace ddsim::obs {

/** Schema identifier stamped on per-run manifests. */
inline constexpr const char *kManifestSchema = "ddsim-manifest-v1";
/** Schema identifier stamped on sweep-level aggregate manifests. */
inline constexpr const char *kSweepManifestSchema =
    "ddsim-sweep-manifest-v1";

/** Everything a per-run manifest records, as plain data. */
struct ManifestInfo
{
    // ---- What ran ----
    std::string workload;            ///< Program name.
    std::string label;               ///< Free-form run label (optional).
    config::MachineConfig cfg;       ///< Machine configuration.
    std::uint64_t maxInsts = 0;      ///< RunOptions::maxInsts.
    std::uint64_t warmupInsts = 0;   ///< RunOptions::warmupInsts.
    bool traceReplay = false;        ///< Replayed a recorded trace?
    /**
     * The engine that effectively drove the run: "live", "replay" or
     * "sampled".
     */
    std::string engine = "live";
    std::uint64_t maxCycles = 0;     ///< Cycle budget (0 = unlimited).
    double maxWallSeconds = 0.0;     ///< Wall budget (0 = unlimited).

    // ---- External-trace provenance ----
    /**
     * Where the instruction stream came from when it was ingested
     * rather than generated: "xtrace" (a ddsim-xtrace-v1 file),
     * "text" (converted from the public text trace format) or
     * "workload" (recorded from a registry program and saved). Empty
     * = the stream came from the named workload itself and the
     * run.trace_source block is omitted, keeping every pre-existing
     * manifest byte-identical.
     */
    std::string traceSourceFormat;
    std::string traceSourcePath;     ///< File the trace was loaded from.
    std::uint64_t traceSourceInsts = 0;   ///< Records in the trace.
    bool traceSourceHints = false;   ///< Local hints burned into text?

    // ---- Active observability outputs ----
    std::string tracePath;           ///< Binary pipeline trace ("" = off).
    std::string samplePath;          ///< Interval sample dump ("" = off).
    std::uint64_t sampleInterval = 0;

    // ---- Outcome summary ----
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    double ipc = 0.0;
    std::uint64_t lsqLoads = 0;      ///< Loads issued through the LSQ.
    std::uint64_t lsqStores = 0;
    std::uint64_t lvaqLoads = 0;     ///< Loads issued through the LVAQ.
    std::uint64_t lvaqStores = 0;
    double wallSeconds = 0.0;        ///< Host wall-clock for the run.

    // ---- Sampled-engine estimate provenance ----
    /** True = cycles/ipc above are SMARTS estimates; a "sampling"
     *  block with the plan and error bar joins the result. */
    bool sampled = false;
    std::uint64_t samplingPeriod = 0;
    std::uint64_t samplingDetail = 0;
    std::uint64_t samplingWarmup = 0;
    std::uint64_t samplingWindows = 0;
    std::uint64_t samplingDetailInsts = 0;
    std::uint64_t samplingDetailCycles = 0;
    double samplingIpcCi95 = 0.0;    ///< 95% CI half-width on IPC.

    /** Full stats tree to embed (nullptr = omit). */
    const stats::Group *stats = nullptr;
};

/** Write @p info as a complete JSON document to @p os. */
void writeManifest(const ManifestInfo &info, std::ostream &os);

/** Write @p cfg as a JSON object in value position (shared by the
 *  manifest and black-box writers). */
void writeMachineConfigJson(JsonWriter &w,
                            const config::MachineConfig &cfg);

/** writeManifest into a string. */
std::string manifestToJson(const ManifestInfo &info);

/** writeManifest into a file, atomically (write-temp-then-rename);
 *  raises IoError if the file cannot be written. */
void writeManifestFile(const ManifestInfo &info, const std::string &path);

} // namespace ddsim::obs

#endif // DDSIM_OBS_MANIFEST_HH_
