/**
 * @file
 * Shared pieces of ddbench, the ddsim benchmark program: workload definitions,
 * the correctness gate's statistic vectors, the result report, and
 * small timing / file helpers. See perfbench/README.md for what each
 * workload and metric means.
 */

#ifndef PERFBENCH_COMMON_HH_
#define PERFBENCH_COMMON_HH_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "config/machine_config.hh"
#include "prog/program.hh"
#include "sim/grid_spec.hh"
#include "sim/result.hh"
#include "sim/runner.hh"
#include "vm/trace.hh"

namespace ddsim {
class JsonValue;
class JsonWriter;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Workload
{
    ExactLong,
    SampledLong,
    Fig7Farm,
};

const char *workloadName(Workload w);
/** Parse a workload name; raises ddsim::ConfigError when unknown. */
Workload workloadFromName(const std::string &name);

/** Command-line options shared by every mode. */
struct Args
{
    std::string mode;          ///< reference | measure | trace
    Workload workload = Workload::ExactLong;
    std::uint64_t seed = 0;    ///< Benchmark seed (--seed).
    double seconds = 10.0;     ///< Measurement window (--seconds).
    std::string binDir;        ///< Where ddsweep / bench_fig7_nm live.
    std::string refDir;        ///< Reference cache for (workload, seed).
    std::string workDir;       ///< Working space (spools, grids).
    std::string traceOut;      ///< Span dump of a traced run.
};

/**
 * WorkloadParams::seed for benchmark seed @p n: the registry default
 * plus @p n, so --seed 0 builds exactly the pinned programs.
 */
std::uint64_t programSeed(std::uint64_t n);

/**
 * The long workloads measure the sampled engine's accuracy over their
 * programs at kAccuracySeeds benchmark seeds, accuracySeed(n, 0..k-1),
 * so the mean error rests on more (program, seed) pairs than one seed
 * gives. accuracySeed(n, 0) == n.
 */
inline constexpr int kAccuracySeeds = 3;

inline std::uint64_t
accuracySeed(std::uint64_t n, int k)
{
    return n + 1000 * static_cast<std::uint64_t>(k);
}

/** One program of a workload: registry name, resolved scale, seed. */
struct ProgramSpec
{
    std::string name;
    std::uint64_t scale = 1;
    std::uint64_t seed = 0;
};

/**
 * The programs a workload runs: exact-long's four at 16x scale,
 * sampled-long's twelve at 8x, and for fig7-farm the twelve at
 * registry default scale (the grid's programs).
 */
std::vector<ProgramSpec> programSpecs(Workload w, std::uint64_t seed);

/**
 * The machine a workload's per-program runs use: decoupledOptimized(3,2)
 * for the long workloads, the grid's (3+2) column for fig7-farm.
 */
ddsim::config::MachineConfig workloadConfig(Workload w);

/** sampled-long's sparse plan (EXPERIMENTS.md): 32768 / 2048 / 256. */
ddsim::sim::SamplingPlan sparsePlan();

/** Documented |dIPC| tolerance of the sparse plan at 8x scale. */
inline constexpr double kSparseTolerancePct = 5.0;

/** A program with (optionally) its recorded dynamic trace. */
struct Built
{
    ProgramSpec spec;
    std::shared_ptr<const ddsim::prog::Program> program;
    std::shared_ptr<const ddsim::vm::RecordedTrace> trace;
};

std::shared_ptr<const ddsim::prog::Program>
buildProgram(const ProgramSpec &spec);

/**
 * Every simulated statistic the correctness gate compares, by name.
 * Integers are carried as doubles (all stay far below 2^53).
 */
using Stats = std::vector<std::pair<std::string, double>>;

Stats simStats(const ddsim::sim::SimResult &r);
/** The stream statistics a sampled run must reproduce exactly. */
Stats streamStats(const ddsim::sim::SimResult &r);
void writeStats(ddsim::JsonWriter &w, const Stats &s);
Stats readStats(const ddsim::JsonValue &v);
/** Names of the fields of @p want that @p got lacks or differs on. */
std::vector<std::string> diffStats(const Stats &got, const Stats &want);
double statValue(const Stats &s, const std::string &name);

/**
 * The Fig. 7 grid exactly as `bench_fig7_nm --emit-grid` writes it at
 * default scale, with every point's seed replaced by programSeed(seed).
 */
ddsim::sim::GridSpec fig7Grid(const Args &args);

class Report;

/** One reference result, from ref.json. */
struct RefPoint
{
    std::string name;     ///< Program.
    std::string notation; ///< Machine, "(N+M)".
    int variant = 0;      ///< k of accuracySeed(seed, k).
    Stats stats;
};

/** Reference points of one (workload, seed). */
struct Reference
{
    /**
     * Variant-0 points first, in run order: the programSpecs() order
     * for the long workloads, the grid's job order for fig7-farm.
     */
    std::vector<RefPoint> points;

    /** Statistics of the first point matching all three keys. */
    const Stats &find(const std::string &name, const std::string &notation,
                      int variant) const;
};

/**
 * Load refDir/ref.json. Each pinned differential row it records is
 * counted into @p report as one checked operation.
 */
Reference loadReference(const Args &args, Report &report);

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a run reports: metrics plus the correctness tally. print()
 * writes a human-readable table, then the result as one JSON object on
 * the last line.
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** Count one checked operation; a false @p ok is a failure. */
    void check(bool ok, const std::string &what);

    std::uint64_t attempted() const { return numAttempted; }
    std::uint64_t failed() const { return numFailed; }

    void print() const;

  private:
    std::vector<Metric> metrics;
    std::uint64_t numAttempted = 0;
    std::uint64_t numFailed = 0;
    std::vector<std::string> failures; ///< First few, for the log.
};

/** Check every field of @p want against @p got as one operation. */
void checkStats(Report &report, const std::string &what, const Stats &got,
                const Stats &want);

/** |got - want| as a percentage of @p want. */
double ipcErrPct(double got, double want);

double median(std::vector<double> v);
/** Linear-interpolated percentile, @p q in [0, 100]. */
double percentile(std::vector<double> v, double q);

/**
 * Peak resident set (VmHWM) of process @p pid, "self" for this one,
 * in MB; 0 once the process is gone.
 */
double peakRssMb(const std::string &pid = "self");
/** PIDs of this process's live children. */
std::vector<std::string> childPids();

int runReference(const Args &args);
int runMeasure(const Args &args);
int runTraced(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH_
