#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "config/presets.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/json_parse.hh"
#include "util/subprocess.hh"
#include "workloads/common.hh"

namespace perfbench {

using namespace ddsim;

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::ExactLong: return "exact-long";
      case Workload::SampledLong: return "sampled-long";
      case Workload::Fig7Farm: return "fig7-farm";
    }
    return "?";
}

Workload
workloadFromName(const std::string &name)
{
    for (Workload w : {Workload::ExactLong, Workload::SampledLong,
                       Workload::Fig7Farm})
        if (name == workloadName(w))
            return w;
    raise(ConfigError("workload", "unknown workload '" + name + "'"));
}

std::uint64_t
programSeed(std::uint64_t n)
{
    return workloads::WorkloadParams{}.seed + n;
}

std::vector<ProgramSpec>
programSpecs(Workload w, std::uint64_t seed)
{
    std::vector<ProgramSpec> out;
    auto add = [&](const workloads::WorkloadInfo &info,
                   std::uint64_t factor) {
        out.push_back({info.name, info.defaultScale * factor,
                       programSeed(seed)});
    };
    switch (w) {
      case Workload::ExactLong:
        // Working-set axis: li forwards in the LVAQ, swim streams
        // through L1/LSQ, gcc has varied frames, ptrchase misses to
        // memory.
        for (const char *name : {"li", "swim", "gcc", "ptrchase"})
            add(*workloads::find(name), 16);
        break;
      case Workload::SampledLong:
        for (const workloads::WorkloadInfo &info : workloads::all())
            add(info, 8);
        break;
      case Workload::Fig7Farm:
        for (const workloads::WorkloadInfo &info : workloads::all())
            add(info, 1);
        break;
    }
    return out;
}

config::MachineConfig
workloadConfig(Workload w)
{
    return w == Workload::Fig7Farm ? config::decoupled(3, 2)
                                   : config::decoupledOptimized(3, 2);
}

sim::SamplingPlan
sparsePlan()
{
    sim::SamplingPlan p;
    p.period = 32768;
    p.detail = 2048;
    p.warmup = 256;
    return p;
}

std::shared_ptr<const prog::Program>
buildProgram(const ProgramSpec &spec)
{
    workloads::WorkloadParams p;
    p.scale = spec.scale;
    p.seed = spec.seed;
    return std::make_shared<const prog::Program>(
        workloads::build(spec.name, p));
}

Stats
simStats(const sim::SimResult &r)
{
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"cycles", d(r.cycles)},
        {"committed", d(r.committed)},
        {"ipc", r.ipc},
        {"loads", d(r.loads)},
        {"stores", d(r.stores)},
        {"local_loads", d(r.localLoads)},
        {"local_stores", d(r.localStores)},
        {"mean_dyn_frame_words", r.meanDynFrameWords},
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
        {"lvaq_satisfied_frac", r.lvaqSatisfiedFrac},
        {"missteered", d(r.missteered)},
        {"classified", d(r.classified)},
        {"to_lvaq", d(r.toLvaq)},
    };
}

Stats
streamStats(const sim::SimResult &r)
{
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"committed", d(r.committed)},
        {"loads", d(r.loads)},
        {"stores", d(r.stores)},
        {"local_loads", d(r.localLoads)},
        {"local_stores", d(r.localStores)},
    };
}

void
writeStats(JsonWriter &w, const Stats &s)
{
    w.beginObject();
    for (const auto &[k, v] : s)
        w.field(k, v);
    w.endObject();
}

Stats
readStats(const JsonValue &v)
{
    Stats s;
    for (const auto &[k, m] : v.members)
        s.emplace_back(k, m.asDouble(k));
    return s;
}

std::vector<std::string>
diffStats(const Stats &got, const Stats &want)
{
    std::vector<std::string> bad;
    for (const auto &[k, v] : want) {
        auto it = std::find_if(got.begin(), got.end(),
                               [&](const auto &e) { return e.first == k; });
        if (it == got.end() || it->second != v)
            bad.push_back(k);
    }
    return bad;
}

double
statValue(const Stats &s, const std::string &name)
{
    for (const auto &[k, v] : s)
        if (k == name)
            return v;
    raise(FatalError("no statistic '" + name + "'"));
}

sim::GridSpec
fig7Grid(const Args &args)
{
    const std::string bench = args.binDir + "/bench_fig7_nm";
    const std::string emitted = args.workDir + "/fig7.emitted.json";
    const std::string flag = "--emit-grid=" + emitted;
    std::fflush(stdout);
    pid_t pid = ::fork();
    if (pid < 0)
        raise(IoError(bench, "cannot fork"));
    if (pid == 0) {
        // The bench's banner would interleave with the report.
        int devNull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
        if (devNull >= 0)
            ::dup2(devNull, STDOUT_FILENO);
        ::execl(bench.c_str(), bench.c_str(), flag.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    ProcessExit ex = waitProcess(pid);
    if (!ex.ok())
        raise(FatalError(bench + " --emit-grid failed: " + ex.describe()));
    sim::GridSpec spec = sim::GridSpec::fromFile(emitted);
    for (sim::GridJob &job : spec.jobs)
        job.seed = programSeed(args.seed);
    return spec;
}

const Stats &
Reference::find(const std::string &name, const std::string &notation,
                int variant) const
{
    for (const RefPoint &p : points)
        if (p.name == name && p.notation == notation && p.variant == variant)
            return p.stats;
    raise(FatalError("reference lacks " + name + " " + notation +
                     " variant " + std::to_string(variant)));
}

Reference
loadReference(const Args &args, Report &report)
{
    JsonValue doc = parseJsonFile(args.refDir + "/ref.json");
    for (const JsonValue &row : doc.at("pinned", "ref").asArray("pinned")) {
        const std::string &bad = row.at("mismatch", "pinned").asString("m");
        report.check(bad.empty(), "pinned row " +
                                      row.at("row", "pinned").asString("r") +
                                      " differs in " + bad);
    }
    Reference ref;
    for (const JsonValue &p : doc.at("points", "ref").asArray("points"))
        ref.points.push_back(
            {p.at("name", "point").asString("name"),
             p.at("notation", "point").asString("notation"),
             static_cast<int>(p.at("variant", "point").asInt("variant")),
             readStats(p.at("stats", "point"))});
    return ref;
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Report::check(bool ok, const std::string &what)
{
    ++numAttempted;
    if (ok)
        return;
    ++numFailed;
    if (failures.size() < 20)
        failures.push_back(what);
}

void
Report::print() const
{
    for (const std::string &f : failures)
        std::printf("MISMATCH: %s\n", f.c_str());
    for (const Metric &m : metrics)
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-34s %14.6g %s\n", "fail_frac",
                numAttempted ? static_cast<double>(numFailed) /
                                   static_cast<double>(numAttempted)
                             : 1.0,
                "fraction");
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("correct", numFailed == 0 && numAttempted > 0);
    w.field("attempted", numAttempted);
    w.field("failed", numFailed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name);
        w.beginObject();
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::string line = os.str();
    line.erase(std::remove(line.begin(), line.end(), '\n'), line.end());
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

void
checkStats(Report &report, const std::string &what, const Stats &got,
           const Stats &want)
{
    std::vector<std::string> bad = diffStats(got, want);
    std::string fields;
    for (const std::string &f : bad)
        fields += (fields.empty() ? "" : ",") + f;
    report.check(bad.empty(), what + " differs in " + fields);
}

double
ipcErrPct(double got, double want)
{
    return std::fabs(got - want) / want * 100.0;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q / 100.0 * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb(const std::string &pid)
{
    // VmHWM is the high-water mark of this process image's own
    // memory; unlike ru_maxrss it does not inherit the parent's peak
    // across fork + exec.
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

std::vector<std::string>
childPids()
{
    const std::string self = std::to_string(::getpid());
    std::vector<std::string> out;
    for (const auto &e : std::filesystem::directory_iterator("/proc")) {
        const std::string pid = e.path().filename().string();
        if (pid.find_first_not_of("0123456789") != std::string::npos)
            continue;
        std::ifstream in(e.path() / "stat");
        std::string stat;
        std::getline(in, stat);
        // "pid (comm) state ppid ...": comm may hold spaces or ')'.
        std::size_t close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(stat.substr(close + 1));
        std::string state, ppid;
        rest >> state >> ppid;
        if (ppid == self)
            out.push_back(pid);
    }
    return out;
}

} // namespace perfbench
