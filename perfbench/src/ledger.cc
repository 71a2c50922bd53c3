/**
 * @file
 * `ddbench trace`: the traced run that produces the per-layer ledger.
 * Each phase calls into one ddsim layer through its public functions
 * inside a span (tracer.hh), over the workload's own programs:
 *
 *   workloads.build   workloads::build
 *   vm.*              RecordedTrace::record, a bare TraceReplay drain,
 *                     vm::Executor
 *   sim.*             sim::run per program (replay, live, sampled)
 *   mem.*             mem::Cache::access / ::warm over the captured
 *                     address stream
 *   core.memqueue     a core::MemQueue allocate / setAddress / tick /
 *                     commitStore / release loop
 *   obs.*             paired manifest-on / manifest-off sim::run calls
 *   util.crc32        util::crc32 over the captured manifests
 *   farm.*, io.*      spool, one in-process runWorker, merge — with
 *                     the timing io::Vfs (timing_vfs.hh) installed
 *
 * Everything else the run does is "bench" self time, so the self
 * times of all spans add up to the run's wall time.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common.hh"
#include "config/presets.hh"
#include "core/mem_queue.hh"
#include "io/vfs.hh"
#include "isa/regs.hh"
#include "mem/hierarchy.hh"
#include "sim/farm.hh"
#include "stats/group.hh"
#include "timing_vfs.hh"
#include "tracer.hh"
#include "util/crc32.hh"
#include "util/error.hh"
#include "util/file_claim.hh"
#include "vm/executor.hh"
#include "workloads/common.hh"

namespace perfbench {

using namespace ddsim;

namespace {

/** One memory reference of a program's dynamic stream. */
struct MemRef
{
    Addr addr = 0;
    bool write = false;
    bool stack = false;
};

/** Per-program cap on the captured address stream. */
constexpr std::size_t kMaxRefs = std::size_t{1} << 20;
/** Per-program cap on the MemQueue loop's operations. */
constexpr std::size_t kMaxQueueOps = std::size_t{1} << 18;
/** Sleep added inside every fsync by the attribution self-check. */
constexpr double kSelfCheckDelayMs = 10.0;

sim::SamplingPlan
ledgerPlan(Workload w)
{
    return w == Workload::Fig7Farm ? sim::SamplingPlan{} : sparsePlan();
}

/** One grid point per program of @p specs, on @p cfg. */
sim::GridSpec
pointsGrid(const std::string &title, const std::vector<ProgramSpec> &specs,
           const std::vector<config::MachineConfig> &cfgs,
           sim::Engine engine, const sim::SamplingPlan &plan)
{
    sim::GridSpec spec;
    spec.title = title;
    for (const config::MachineConfig &cfg : cfgs)
        for (const ProgramSpec &p : specs) {
            sim::GridJob job;
            job.id = spec.jobs.size();
            job.workload = p.name;
            job.scale = p.scale;
            job.seed = p.seed;
            job.engine = engine;
            if (engine == sim::Engine::Sampled)
                job.sampling = plan;
            job.cfg = cfg;
            spec.jobs.push_back(job);
        }
    spec.validate();
    return spec;
}

/**
 * The workload's own farm grid: the Fig. 7 grid, or one point per
 * program on the workload's machine and engine.
 */
sim::GridSpec
farmGrid(const Args &args)
{
    if (args.workload == Workload::Fig7Farm)
        return fig7Grid(args);
    bool exact = args.workload == Workload::ExactLong;
    return pointsGrid(std::string("perfbench ") + workloadName(args.workload),
                      programSpecs(args.workload, args.seed), {workloadConfig(args.workload)},
                      exact ? sim::Engine::Replay : sim::Engine::Sampled,
                      sparsePlan());
}

IoCounters
operator-(const IoCounters &a, const IoCounters &b)
{
    IoCounters d;
    d.ops = a.ops - b.ops;
    d.fsyncs = a.fsyncs - b.fsyncs;
    d.renames = a.renames - b.renames;
    d.bytesWritten = a.bytesWritten - b.bytesWritten;
    d.fsyncSeconds = a.fsyncSeconds - b.fsyncSeconds;
    d.writeSeconds = a.writeSeconds - b.writeSeconds;
    d.renameSeconds = a.renameSeconds - b.renameSeconds;
    d.readSeconds = a.readSeconds - b.readSeconds;
    return d;
}

/** What one in-process farm pass cost, phase by phase. */
struct FarmPass
{
    double points = 0;
    double spoolS = 0;
    double workerS = 0;
    double mergeS = 0;
    double simS = 0;          ///< Sum of the records' wall_seconds.
    double files = 0;
    double bytes = 0;
    std::size_t quarantined = 0;
    IoCounters io;            ///< Spool + worker + merge.
    IoCounters workerIo;      ///< Worker phase only.
    std::vector<std::string> manifests;

    double total() const { return spoolS + workerS + mergeS; }
};

/**
 * Spool @p spec under @p root, drain it with one in-process
 * runWorker, and merge it to @p merged. With @p vfs set, every farm
 * I/O primitive goes through it.
 */
FarmPass
runFarmPass(Tracer &t, TimingVfs *vfs, const sim::GridSpec &spec,
            const std::string &root, const std::string &merged)
{
    std::filesystem::remove_all(root);
    std::filesystem::remove(merged);
    std::optional<io::ScopedVfs> scoped;
    if (vfs)
        scoped.emplace(*vfs);
    auto counters = [&] { return vfs ? vfs->counters : IoCounters{}; };

    FarmPass f;
    f.points = static_cast<double>(spec.jobs.size());
    IoCounters c0 = counters();
    Clock::time_point t0 = Clock::now();
    {
        Scope s(t, "farm.spool");
        sim::farm::spoolGrid(spec, root, 1);
    }
    f.spoolS = secondsSince(t0);
    IoCounters c1 = counters();
    t0 = Clock::now();
    {
        Scope s(t, "farm.run_worker");
        sim::farm::WorkerOptions wo;
        wo.workerId = "w0";
        s.count("points", static_cast<double>(
                              sim::farm::runWorker(root, wo)));
    }
    f.workerS = secondsSince(t0);
    IoCounters c2 = counters();
    t0 = Clock::now();
    {
        Scope s(t, "farm.merge");
        sim::farm::mergeSpool(root, merged, "");
    }
    f.mergeS = secondsSince(t0);
    f.io = counters() - c0;
    f.workerIo = c2 - c1;
    scoped.reset();

    Scope s(t, "bench.farm_scan");
    for (const auto &e : std::filesystem::recursive_directory_iterator(root)) {
        if (!e.is_regular_file())
            continue;
        f.files += 1;
        f.bytes += static_cast<double>(e.file_size());
        const std::string name = e.path().filename().string();
        if (e.path().parent_path().filename() != "results")
            continue;
        if (name.find(".manifest.") != std::string::npos) {
            f.manifests.push_back(readFileText(e.path().string()));
            continue;
        }
        sim::farm::JobRecord rec =
            sim::farm::jobRecordFromFile(e.path().string());
        f.simS += rec.wallSeconds;
        if (rec.status == sim::JobStatus::Quarantined)
            ++f.quarantined;
    }
    return f;
}

/**
 * Drive the LSQ and LVAQ the way test_mem_queue does: a window of up
 * to 16 references is allocated, given addresses (and store data),
 * ticked until every load completes, then retired oldest-first
 * (stores commit through the ports, everything is released).
 * @return operations driven.
 */
std::size_t
driveMemQueues(const config::MachineConfig &cfg,
               const std::vector<MemRef> &refs)
{
    stats::Group root(nullptr, "");
    mem::Hierarchy h(&root, cfg);
    core::QueuePolicy lsqPolicy;
    lsqPolicy.ports = cfg.l1.ports;
    core::QueuePolicy lvaqPolicy;
    lvaqPolicy.ports = cfg.lvc.ports;
    lvaqPolicy.combining = cfg.combining;
    lvaqPolicy.fastForward = cfg.fastForward;
    core::MemQueue lsq(&root, "lsq", cfg.lsqSize, &h.l1(), nullptr,
                       lsqPolicy);
    core::MemQueue lvaq(&root, "lvaq", cfg.lvaqSize,
                        h.lvc() ? h.lvc() : &h.l1(), nullptr, lvaqPolicy);

    struct Live
    {
        core::MemQueue *q;
        int slot;
        bool load;
        bool done;
    };
    std::vector<Live> window;
    std::vector<core::LoadCompletion> done;
    Cycle now = 0;
    InstSeq seq = 0;
    const std::size_t n = std::min(refs.size(), kMaxQueueOps);
    for (std::size_t i = 0; i < n;) {
        window.clear();
        std::size_t pending = 0;
        while (window.size() < 16 && i < n) {
            const MemRef &r = refs[i];
            core::MemQueue *q = r.stack && h.lvc() ? &lvaq : &lsq;
            if (q->full())
                break;
            int slot = q->allocate(seq, static_cast<int>(seq % 4096),
                                   !r.write, 4,
                                   r.stack ? isa::reg::sp : isa::reg::gp,
                                   static_cast<std::int32_t>(r.addr), 1);
            q->setAddress(slot, r.addr, now, false);
            if (r.write)
                q->setStoreData(slot, now);
            else
                ++pending;
            window.push_back({q, slot, !r.write, r.write});
            ++seq;
            ++i;
        }
        const Cycle limit = now + 1000000;
        while (pending > 0) {
            for (core::MemQueue *q : {&lsq, &lvaq}) {
                done.clear();
                q->tick(now, done);
                for (const core::LoadCompletion &c : done)
                    for (Live &l : window)
                        if (l.q == q && l.slot == c.slot && !l.done) {
                            l.done = true;
                            --pending;
                        }
            }
            if (++now > limit)
                raise(FatalError("memqueue loop: loads never complete"));
        }
        for (const Live &l : window) {
            if (!l.load)
                while (!l.q->commitStore(l.slot, now))
                    ++now;
            l.q->release(l.slot);
        }
        ++now;
    }
    return n;
}

} // namespace

int
runTraced(const Args &args)
{
    ensureDir(args.workDir);
    Report report;
    Tracer t;
    const int rootSpan = t.begin("bench.traced");

    Reference ref;
    {
        Scope s(t, "bench.load_reference");
        ref = loadReference(args, report);
    }
    const config::MachineConfig cfg = workloadConfig(args.workload);
    const std::vector<ProgramSpec> specs =
        programSpecs(args.workload, args.seed);

    // ---- workloads / vm -------------------------------------------
    std::vector<Built> built;
    double insts = 0, traceBytes = 0;
    for (const ProgramSpec &spec : specs) {
        Scope s(t, "workloads.build");
        built.push_back({spec, buildProgram(spec), nullptr});
    }
    for (Built &b : built) {
        Scope s(t, "vm.record");
        b.trace = std::make_shared<const vm::RecordedTrace>(
            vm::RecordedTrace::record(*b.program));
        s.count("insts", static_cast<double>(b.trace->instCount()));
        insts += static_cast<double>(b.trace->instCount());
        traceBytes += 4.0 * static_cast<double>(b.trace->wordCount());
    }
    std::uint64_t sink = 0;
    for (const Built &b : built) {
        Scope s(t, "vm.replay_decode");
        vm::TraceReplay replay(*b.trace);
        while (!replay.halted())
            sink += replay.step().effAddr;
        s.count("insts", static_cast<double>(b.trace->instCount()));
    }
    std::vector<std::vector<MemRef>> refs(built.size());
    {
        Scope s(t, "bench.capture_addresses");
        for (std::size_t i = 0; i < built.size(); ++i) {
            vm::TraceReplay replay(*built[i].trace);
            while (!replay.halted() && refs[i].size() < kMaxRefs) {
                vm::DynInst d = replay.step();
                if (d.isMem())
                    refs[i].push_back({d.effAddr & ~Addr{3}, d.isStore(),
                                       d.stackAccess});
            }
        }
    }
    for (const Built &b : built) {
        Scope s(t, "vm.functional");
        vm::Executor ex(*b.program);
        s.count("insts", static_cast<double>(ex.run(~std::uint64_t{0})));
    }

    // ---- sim ------------------------------------------------------
    std::vector<sim::SimResult> replayed;
    for (std::size_t i = 0; i < built.size(); ++i) {
        sim::RunOptions o;
        o.engine = sim::Engine::Replay;
        o.trace = built[i].trace;
        Scope s(t, "sim.run_replay");
        replayed.push_back(sim::run(*built[i].program, cfg, o));
        s.count("insts", static_cast<double>(replayed.back().committed));
    }
    for (std::size_t i = 0; i < built.size(); ++i) {
        sim::RunOptions o;
        o.engine = sim::Engine::Live;
        sim::SimResult r;
        {
            Scope s(t, "sim.run_live");
            r = sim::run(*built[i].program, cfg, o);
            s.count("insts", static_cast<double>(r.committed));
        }
        const std::string what = specs[i].name;
        checkStats(report, what + " replay vs reference",
                   simStats(replayed[i]),
                   ref.find(what, cfg.notation(), 0));
        checkStats(report, what + " live vs replay", simStats(r),
                   simStats(replayed[i]));
    }
    double detailInsts = 0, sampledInsts = 0;
    for (std::size_t i = 0; i < built.size(); ++i) {
        sim::RunOptions o;
        o.engine = sim::Engine::Sampled;
        o.sampling = ledgerPlan(args.workload);
        sim::SimResult r;
        {
            Scope s(t, "sim.run_sampled");
            r = sim::run(*built[i].program, cfg, o);
            s.count("insts", static_cast<double>(r.committed));
        }
        detailInsts += static_cast<double>(
            r.sampling.detailInsts + r.sampling.windows * r.sampling.warmup);
        sampledInsts += static_cast<double>(r.committed);
    }

    // ---- mem / core ---------------------------------------------
    double accesses = 0, queueOps = 0;
    for (const std::vector<MemRef> &stream : refs) {
        stats::Group root(nullptr, "");
        mem::Hierarchy h(&root, cfg);
        Scope s(t, "mem.cache_access");
        Cycle when = 0;
        for (const MemRef &r : stream)
            sink += (r.stack && h.lvc() ? *h.lvc() : h.l1())
                        .access(r.addr, r.write, when++);
        accesses += static_cast<double>(stream.size());
    }
    for (const std::vector<MemRef> &stream : refs) {
        stats::Group root(nullptr, "");
        mem::Hierarchy h(&root, cfg);
        Scope s(t, "mem.cache_warm");
        Cycle when = 0;
        for (const MemRef &r : stream)
            (r.stack && h.lvc() ? *h.lvc() : h.l1())
                .warm(r.addr, r.write, when++);
    }
    for (const std::vector<MemRef> &stream : refs) {
        Scope s(t, "core.memqueue");
        queueOps += static_cast<double>(driveMemQueues(cfg, stream));
    }

    // ---- obs: manifest capture, paired on/off around sim::run ------
    double manifestDelta = 0;
    for (const Built &b : built) {
        std::vector<double> on, off;
        for (int k = 0; k < 7; ++k) {
            sim::RunOptions o;
            o.engine = sim::Engine::Replay;
            o.trace = b.trace;
            o.maxInsts = 20000;
            Clock::time_point t0 = Clock::now();
            {
                Scope s(t, "sim.run_short");
                sim::run(*b.program, cfg, o);
            }
            off.push_back(secondsSince(t0));
            o.captureManifest = true;
            o.canonicalManifest = true;
            t0 = Clock::now();
            {
                Scope s(t, "obs.manifest_on");
                sim::run(*b.program, cfg, o);
            }
            on.push_back(secondsSince(t0));
        }
        manifestDelta += median(on) - median(off);
    }

    // ---- farm / io: untraced pass, traced pass ---------------------
    const sim::GridSpec grid = farmGrid(args);
    const std::string root = args.workDir + "/ledger-spool";
    const std::string merged = args.workDir + "/ledger-merged.json";
    FarmPass plain, traced;
    {
        Scope s(t, "bench.farm_untraced");
        plain = runFarmPass(t, nullptr, grid, root, merged);
    }
    TimingVfs vfs(t, 0.0);
    {
        Scope s(t, "bench.farm_traced");
        traced = runFarmPass(t, &vfs, grid, root, merged);
    }
    report.check(traced.quarantined == 0 && plain.quarantined == 0,
                 "ledger farm quarantined points");
    if (args.workload == Workload::Fig7Farm)
        report.check(readFileText(merged) ==
                         readFileText(args.refDir + "/merged.json"),
                     "ledger farm merged manifest differs from "
                     "farm::runSerial");

    std::string manifestBytes;
    for (const std::string &m : traced.manifests)
        manifestBytes += m;
    double crcBytes = 0;
    {
        Scope s(t, "util.crc32");
        do {
            sink += crc32(manifestBytes);
            crcBytes += static_cast<double>(manifestBytes.size());
        } while (crcBytes < 64e6 && !manifestBytes.empty());
    }

    // ---- attribution self-check: delay inside the Vfs fsync only ---
    FarmPass base, delayed;
    {
        Scope s(t, "bench.selfcheck");
        // Short points (the differential suite's scale) keep the
        // injected delay large against simulation-time noise.
        std::vector<ProgramSpec> small = specs;
        for (ProgramSpec &p : small)
            p.scale = std::max<std::uint64_t>(
                workloads::find(p.name)->defaultScale / 8, 1);
        sim::GridSpec g = pointsGrid(
            "perfbench self-check", small,
            {config::decoupled(3, 2), config::baseline(2)},
            sim::Engine::Replay, {});
        TimingVfs v0(t, 0.0), v1(t, kSelfCheckDelayMs);
        base = runFarmPass(t, &v0, g, root, merged);
        delayed = runFarmPass(t, &v1, g, root, merged);
    }
    std::filesystem::remove_all(root);
    std::filesystem::remove(merged);
    const double injectedMs = kSelfCheckDelayMs *
                              static_cast<double>(delayed.workerIo.fsyncs) /
                              delayed.points;
    auto perPointMs = [](double s, const FarmPass &f) {
        return s * 1e3 / f.points;
    };
    const double dFsync = perPointMs(delayed.workerIo.fsyncSeconds, delayed) -
                          perPointMs(base.workerIo.fsyncSeconds, base);
    const double dOverhead =
        perPointMs(delayed.workerS - delayed.simS, delayed) -
        perPointMs(base.workerS - base.simS, base);
    const double dSim =
        perPointMs(delayed.simS, delayed) - perPointMs(base.simS, base);
    report.check(dFsync >= 0.9 * injectedMs && dFsync <= 1.5 * injectedMs,
                 "self-check: injected fsync delay not in io.fsync time");
    report.check(dOverhead >= 0.5 * injectedMs,
                 "self-check: injected fsync delay not in farm overhead");
    report.check(std::fabs(dSim) <= 0.25 * injectedMs,
                 "self-check: injected fsync delay leaked into sim time");

    t.end(rootSpan);

    // ---- the ledger ----------------------------------------------
    const double wall = t.all()[static_cast<std::size_t>(rootSpan)].seconds();
    double selfSum = 0;
    for (double s : t.selfSeconds())
        selfSum += s;
    report.check(t.wellFormed() && std::fabs(selfSum - wall) <= 1e-6 * wall,
                 "span self times do not add up to the wall time");

    auto rate = [&](const char *span) {
        return t.totalCount(span, "insts") / t.totalSeconds(span) / 1e6;
    };
    auto nsPerInst = [&](const char *span) {
        return t.totalSeconds(span) * 1e9 / t.totalCount(span, "insts");
    };
    double committed = 0, cycles = 0, l1 = 0, lvc = 0, l2 = 0;
    double lvaqLoads = 0, lvaqSatisfied = 0;
    for (const sim::SimResult &r : replayed) {
        committed += static_cast<double>(r.committed);
        cycles += static_cast<double>(r.cycles);
        l1 += static_cast<double>(r.l1Accesses);
        lvc += static_cast<double>(r.lvcAccesses);
        l2 += static_cast<double>(r.l2Accesses);
        lvaqLoads += static_cast<double>(r.lvaqLoads);
        lvaqSatisfied +=
            r.lvaqSatisfiedFrac * static_cast<double>(r.lvaqLoads);
    }
    const FarmPass &f = traced;
    auto io = [&](double v) { return v / f.points; };

    report.add("workloads.build_ms", t.totalSeconds("workloads.build") * 1e3,
               "ms");
    report.add("vm.record_minst_per_s", rate("vm.record"), "Minst/s");
    report.add("vm.replay_decode_minst_per_s", rate("vm.replay_decode"),
               "Minst/s");
    report.add("vm.functional_minst_per_s", rate("vm.functional"),
               "Minst/s");
    report.add("vm.trace_bytes_per_inst", traceBytes / insts, "count");
    report.add("sim.run_replay_ns_per_inst", nsPerInst("sim.run_replay"),
               "ns");
    report.add("sim.run_live_ns_per_inst", nsPerInst("sim.run_live"), "ns");
    report.add("sim.run_sampled_ns_per_inst", nsPerInst("sim.run_sampled"),
               "ns");
    report.add("sim.sampled_detail_frac", detailInsts / sampledInsts,
               "count");
    report.add("mem.cache_access_ns",
               t.totalSeconds("mem.cache_access") * 1e9 / accesses, "ns");
    report.add("mem.cache_warm_ns",
               t.totalSeconds("mem.cache_warm") * 1e9 / accesses, "ns");
    report.add("core.memqueue_ns_per_op",
               t.totalSeconds("core.memqueue") * 1e9 / queueOps, "ns");
    report.add("model.l1_accesses_per_kinst", l1 * 1e3 / committed, "count");
    report.add("model.lvc_accesses_per_kinst", lvc * 1e3 / committed,
               "count");
    report.add("model.l2_accesses_per_kinst", l2 * 1e3 / committed, "count");
    report.add("model.lvaq_satisfied_frac",
               lvaqLoads > 0 ? lvaqSatisfied / lvaqLoads : 0.0, "count");
    report.add("model.ipc", committed / cycles, "count");
    report.add("farm.spool_ms", f.spoolS * 1e3, "ms");
    report.add("farm.merge_ms", f.mergeS * 1e3, "ms");
    report.add("farm.sim_ms_per_point", io(f.simS * 1e3), "ms");
    report.add("farm.overhead_ms_per_point", io((f.workerS - f.simS) * 1e3),
               "ms");
    report.add("farm.files_per_point", io(f.files), "count");
    report.add("farm.spool_bytes_per_point", io(f.bytes), "count");
    report.add("io.ops_per_point", io(static_cast<double>(f.io.ops)),
               "count");
    report.add("io.fsync_per_point", io(static_cast<double>(f.io.fsyncs)),
               "count");
    report.add("io.rename_per_point", io(static_cast<double>(f.io.renames)),
               "count");
    report.add("io.bytes_written_per_point",
               io(static_cast<double>(f.io.bytesWritten)), "count");
    report.add("io.fsync_ms_per_point", io(f.io.fsyncSeconds * 1e3), "ms");
    report.add("io.write_ms_per_point", io(f.io.writeSeconds * 1e3), "ms");
    report.add("io.rename_ms_per_point", io(f.io.renameSeconds * 1e3), "ms");
    report.add("io.read_ms_per_point", io(f.io.readSeconds * 1e3), "ms");
    report.add("obs.manifest_ms_per_point",
               manifestDelta * 1e3 / static_cast<double>(built.size()), "ms");
    report.add("obs.manifest_bytes_per_point",
               static_cast<double>(manifestBytes.size()) /
                   static_cast<double>(traced.manifests.size()),
               "count");
    report.add("util.crc32_mb_per_s",
               crcBytes / 1e6 / t.totalSeconds("util.crc32"), "MB/s");
    report.add("trace.overhead_pct",
               (traced.total() - plain.total()) / plain.total() * 100.0, "%");
    report.add("trace.self_time_sum_frac", selfSum / wall, "count");
    report.add("trace.wall_s", wall, "s");
    report.add("selfcheck.fsync_delay_attributed_frac", dFsync / injectedMs,
               "count");
    report.add("selfcheck.overhead_delay_attributed_frac",
               dOverhead / injectedMs, "count");
    report.add("selfcheck.sim_delay_leak_frac", dSim / injectedMs, "count");

    for (const auto &[layer, s] : t.layerSelfSeconds())
        std::printf("  self time %-10s %9.3f s  %5.1f%%\n", layer.c_str(), s,
                    s / wall * 100.0);
    if (!args.traceOut.empty())
        t.writeJson(args.traceOut);
    std::printf("(checksum %llu)\n", static_cast<unsigned long long>(sink));
    report.print();
    return report.failed() == 0 ? 0 : 1;
}

} // namespace perfbench
