#include "sim/runner.hh"

#include "analysis/analyzer.hh"
#include "cpu/pipeline.hh"
#include "isa/disasm.hh"
#include "obs/blackbox.hh"
#include "obs/manifest.hh"
#include "obs/pipeline_trace.hh"
#include "obs/sampler.hh"
#include "robust/fault_inject.hh"
#include "stats/formatter.hh"
#include "util/log.hh"
#include "util/str.hh"
#include "vm/executor.hh"
#include "vm/xtrace.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
#include <thread>

namespace ddsim::sim {

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::Auto: return "auto";
      case Engine::Live: return "live";
      case Engine::Replay: return "replay";
      case Engine::Sampled: return "sampled";
    }
    return "?";
}

Engine
engineFromName(const std::string &name)
{
    static constexpr Engine kEngines[] = {
        Engine::Auto, Engine::Live, Engine::Replay, Engine::Sampled};
    std::string best;
    std::size_t bestDist = 4;
    for (Engine e : kEngines) {
        std::string canon = engineName(e);
        if (name == canon)
            return e;
        std::size_t d = editDistance(name, canon);
        if (d < bestDist) {
            bestDist = d;
            best = canon;
        }
    }
    std::string msg = format("unknown engine '%s' (expected auto, "
                             "live, replay or sampled",
                             name.c_str());
    if (!best.empty())
        msg += format("; did you mean '%s'?", best.c_str());
    msg += ")";
    raise(ConfigError("engine", msg));
}

namespace {

/** Number of committed instructions the crash report retains. */
constexpr std::size_t kBlackboxCommits = 32;

/**
 * Flatten the dying run's state into a BlackboxInfo and write it.
 * Never throws: a failing crash report must not mask the crash.
 */
void
emitBlackbox(const RunOptions &opts, const prog::Program &program,
             const config::MachineConfig &cfg, cpu::Pipeline &pipe,
             const stats::Group &root, const SimError &e)
{
    obs::BlackboxInfo bi;
    bi.workload = program.name();
    bi.label = opts.label;
    bi.cfg = cfg;
    bi.maxInsts = opts.maxInsts;
    bi.warmupInsts = opts.warmupInsts;
    bi.traceReplay = static_cast<bool>(opts.trace);
    bi.maxCycles = opts.maxCycles;
    bi.maxWallSeconds = opts.maxWallSeconds;

    bi.errorKind = e.kind();
    bi.errorMessage = e.what();
    bi.errorTransient = e.transient();
    bi.errorContext = e.context();

    cpu::OccupancySnapshot s = pipe.snapshotOccupancy();
    bi.cycle = s.cycle;
    bi.lastCommitCycle = s.lastCommitCycle;
    bi.robOccupancy = s.robOccupancy;
    bi.robSize = s.robSize;
    bi.lsqOccupancy = s.lsqOccupancy;
    bi.lsqSize = s.lsqSize;
    bi.lvaqOccupancy = s.lvaqOccupancy;
    bi.lvaqSize = s.lvaqSize;
    bi.fetchQueue = s.fetchQueue;
    bi.fetched = s.fetched;
    bi.committed = s.committed;
    for (const cpu::CommittedRecord &c : pipe.commitLog())
        bi.lastCommits.push_back({c.seq, c.pcIdx,
                                  isa::disassemble(c.inst), c.cycle});
    bi.stats = &root;

    try {
        obs::writeBlackboxFile(bi, opts.blackboxPath);
    } catch (const std::exception &we) {
        warn("could not write black-box report '%s': %s",
             opts.blackboxPath.c_str(), we.what());
    }
}

/**
 * Fault-injection probe: resolved once per run attempt, before any
 * machine state exists. Null injector (the normal case) costs one
 * atomic load. Raises (or aborts) when an injected failure is due;
 * otherwise returns the plan so the caller can arm the in-run faults.
 */
robust::RunFaultPlan
probeFaults(const prog::Program &program,
            const config::MachineConfig &cfg)
{
    robust::RunFaultPlan plan;
    if (robust::FaultInjector *inj = robust::FaultInjector::active())
        plan = inj->planFor(program.name(), cfg.notation());
    if (plan.failTransient)
        raise(IoError(program.name(),
                      format("injected transient fault for '%s'",
                             program.name().c_str())));
    if (plan.failPersistent)
        raise(ProgramError(
            format("injected persistent fault for '%s'",
                   program.name().c_str())));
    if (plan.allocFail)
        throw std::bad_alloc{};
    if (plan.crashProcess)
        // The injected catastrophe: takes the whole process down, the
        // way a real segfaulting job would. Only the farm supervisor's
        // process isolation can contain it.
        std::abort();
    if (plan.hangSeconds) {
        // A live-but-stuck job: the process keeps running (and
        // heartbeating, in a farm worker) while the run makes no
        // progress. Sleep in short slices so the injected hang stays
        // interruptible by process-level signals only, like a real
        // wedged computation.
        auto until = std::chrono::steady_clock::now() +
                     std::chrono::seconds(plan.hangSeconds);
        while (std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }
    return plan;
}

/**
 * The hardware half of the static partitioning pipeline: run the
 * analyzer over the program text and build the per-pc verdict table
 * the classifier consumes. The analysis is deterministic, so live
 * execution, trace replay and farm workers all see the same table.
 */
std::vector<core::StaticVerdict>
staticVerdictTable(const prog::Program &program)
{
    analysis::AnalysisResult ar = analysis::analyze(program);
    std::vector<core::StaticVerdict> table(
        program.textSize(), core::StaticVerdict::Ambiguous);
    for (const auto &[idx, v] : ar.verdicts)
        table[idx] = v == analysis::Verdict::Local
                         ? core::StaticVerdict::Local
                     : v == analysis::Verdict::NonLocal
                         ? core::StaticVerdict::NonLocal
                         : core::StaticVerdict::Ambiguous;
    return table;
}

// vm cannot depend on core, so the annotation pass publishes
// vm::XVerdict and the runner translates by numeric value. Pin the
// mirror here, where both headers are visible.
static_assert(static_cast<int>(vm::XVerdict::Ambiguous) ==
                  static_cast<int>(core::StaticVerdict::Ambiguous) &&
              static_cast<int>(vm::XVerdict::Local) ==
                  static_cast<int>(core::StaticVerdict::Local) &&
              static_cast<int>(vm::XVerdict::NonLocal) ==
                  static_cast<int>(core::StaticVerdict::NonLocal),
              "XVerdict must mirror StaticVerdict value-for-value");

/**
 * The ingested-stream counterpart of staticVerdictTable: the
 * annotation pass ran once at ingest (over the real dynamic stream,
 * which the ddlint analysis of the reconstructed text cannot see), so
 * the table is a straight per-value translation.
 */
std::vector<core::StaticVerdict>
externalVerdictTable(const vm::ExternalTrace &xt)
{
    const std::vector<vm::XVerdict> &xv = xt.verdicts();
    std::vector<core::StaticVerdict> table(xv.size());
    for (std::size_t i = 0; i < xv.size(); ++i)
        table[i] = static_cast<core::StaticVerdict>(xv[i]);
    return table;
}

/**
 * Shared up-front validation for RunOptions::externalTrace. An
 * external trace *is* the instruction stream, so it cannot coexist
 * with an explicit replay trace, and there is nothing for the live
 * engine to execute.
 */
void
checkExternalOptions(const RunOptions &opts)
{
    if (!opts.externalTrace)
        return;
    if (opts.engine == Engine::Live)
        raise(ConfigError("engine",
                          "an external trace has no functional "
                          "semantics to execute live; use the replay "
                          "or sampled engine"));
    if (opts.trace)
        raise(ConfigError("trace",
                          "RunOptions::trace and externalTrace are "
                          "mutually exclusive; the external trace "
                          "supplies the replay stream itself"));
}

/** Copy the pipeline's counters into @p r (everything except
 *  cycles/committed/ipc, which the engine owns). */
void
extractCounters(SimResult &r, cpu::Pipeline &pipe)
{
    const vm::StreamStats &ss = pipe.streamStats();
    r.loads = ss.loads.value();
    r.stores = ss.stores.value();
    r.localLoads = ss.localLoads.value();
    r.localStores = ss.localStores.value();
    r.meanDynFrameWords = ss.frameWords.mean();
    r.meanStaticFrameWords = ss.meanStaticFrameWords();

    mem::Hierarchy &h = pipe.hierarchy();
    r.l1Accesses = h.l1().accesses.value();
    r.l1Misses = h.l1().misses.value();
    r.l1MissRate = h.l1().missRate();
    if (const mem::Cache *lvc = h.lvc()) {
        r.lvcAccesses = lvc->accesses.value();
        r.lvcMisses = lvc->misses.value();
        r.lvcMissRate = lvc->missRate();
    }
    r.l2Accesses = h.l2().accesses.value();
    r.memAccesses = h.mainMemory().accesses.value();

    r.lsqForwards = pipe.lsq().loadsForwarded.value();
    if (core::MemQueue *lvaq = pipe.lvaq()) {
        r.lvaqForwards = lvaq->loadsForwarded.value();
        r.lvaqFastForwards = lvaq->loadsFastForwarded.value();
        r.lvaqCombined = lvaq->combinedAccesses.value();
        r.lvaqLoads = lvaq->loadsTotal.value();
        r.lvaqSatisfiedFrac = lvaq->queueSatisfiedFrac();
        r.missteered = lvaq->missteeredAccesses.value() +
                       pipe.lsq().missteeredAccesses.value();
    }
    r.classifierAccuracy = pipe.classifier().accuracy();
    r.classified = pipe.classifier().classified.value();
    r.toLvaq = pipe.classifier().toLvaq.value();
    r.staticDecided = pipe.classifier().staticDecided.value();
}

/**
 * Assemble and attach/write the run manifest for an already-final
 * SimResult. @p engine is the *effective* engine string — "live",
 * "replay" or "sampled".
 */
void
attachManifest(SimResult &r, const prog::Program &program,
               const config::MachineConfig &cfg,
               const RunOptions &opts, cpu::Pipeline &pipe,
               const stats::Group &root, double wallSeconds,
               bool usedTrace, const char *engine)
{
    if (!opts.captureManifest && opts.manifestPath.empty())
        return;
    obs::ManifestInfo mi;
    mi.workload = program.name();
    mi.label = opts.label;
    mi.cfg = cfg;
    mi.maxInsts = opts.maxInsts;
    mi.warmupInsts = opts.warmupInsts;
    mi.traceReplay = usedTrace;
    mi.engine = engine;
    mi.maxCycles = opts.maxCycles;
    mi.maxWallSeconds = opts.maxWallSeconds;
    mi.tracePath = opts.tracePath;
    mi.samplePath = opts.samplePath;
    mi.sampleInterval = opts.sampleInterval;
    mi.cycles = r.cycles;
    mi.committed = r.committed;
    mi.ipc = r.ipc;
    mi.lsqLoads = pipe.lsq().loadsTotal.value();
    mi.lsqStores = pipe.lsq().storesTotal.value();
    if (core::MemQueue *lvaq = pipe.lvaq()) {
        mi.lvaqLoads = lvaq->loadsTotal.value();
        mi.lvaqStores = lvaq->storesTotal.value();
    }
    mi.wallSeconds = opts.canonicalManifest ? 0.0 : wallSeconds;
    if (opts.externalTrace) {
        mi.traceSourceFormat = opts.externalTrace->format();
        mi.traceSourcePath = opts.externalTrace->path();
        mi.traceSourceInsts = opts.externalTrace->instCount();
        mi.traceSourceHints = opts.externalTrace->hintsValid();
    }
    if (r.sampling.active) {
        mi.sampled = true;
        mi.samplingPeriod = r.sampling.period;
        mi.samplingDetail = r.sampling.detail;
        mi.samplingWarmup = r.sampling.warmup;
        mi.samplingWindows = r.sampling.windows;
        mi.samplingDetailInsts = r.sampling.detailInsts;
        mi.samplingDetailCycles = r.sampling.detailCycles;
        mi.samplingIpcCi95 = r.sampling.ipcCi95;
    }
    mi.stats = &root;
    if (opts.captureManifest)
        r.manifestJson = obs::manifestToJson(mi);
    if (!opts.manifestPath.empty())
        obs::writeManifestFile(mi, opts.manifestPath);
}

/**
 * The exact engines: live functional execution or trace replay, both
 * bit-identical (the front end is configuration-oblivious). Handles
 * Engine::Auto/Live/Replay.
 */
SimResult
runExact(const prog::Program &program,
         const config::MachineConfig &cfg, const RunOptions &opts)
{
    checkExternalOptions(opts);
    robust::RunFaultPlan plan = probeFaults(program, cfg);

    cfg.validate();

    // The instruction stream: replay the shared recording when one is
    // supplied (or the engine demands one), otherwise execute
    // functionally. An ingested external trace always replays.
    bool wantReplay =
        opts.engine == Engine::Replay || opts.externalTrace ||
        (opts.engine == Engine::Auto && opts.trace);
    std::shared_ptr<const vm::RecordedTrace> trace;
    if (wantReplay) {
        trace = opts.externalTrace
                    ? vm::ExternalTrace::sharedTrace(opts.externalTrace)
                    : opts.trace;
        if (trace) {
            if (&trace->program() != &program)
                panic("RunOptions::trace was recorded from a "
                      "different program");
        } else {
            std::uint64_t cap =
                opts.maxInsts ? opts.maxInsts + opts.warmupInsts : 0;
            trace = std::make_shared<const vm::RecordedTrace>(
                vm::RecordedTrace::record(program, cap));
        }
    }

    stats::Group root(nullptr, "");
    std::optional<vm::Executor> exec;
    std::optional<vm::TraceReplay> replay;
    vm::InstSource *src;
    if (trace)
        src = &replay.emplace(*trace);
    else
        src = &exec.emplace(program);
    cpu::Pipeline pipe(&root, cfg, *src);

    if (cfg.classifier == config::ClassifierKind::StaticHybrid)
        pipe.classifier().setStaticVerdicts(
            opts.externalTrace
                ? externalVerdictTable(*opts.externalTrace)
                : staticVerdictTable(program));

    if (!opts.blackboxPath.empty())
        pipe.enableCommitLog(kBlackboxCommits);
    if (opts.maxCycles != 0 || opts.maxWallSeconds > 0)
        // Armed before warmup: warmup and measurement share budgets.
        pipe.setGuards({opts.maxCycles, opts.maxWallSeconds});
    if (plan.dropWakeupAt != 0)
        pipe.armWakeupDrop(plan.dropWakeupAt);

    std::optional<obs::Sampler> sampler;
    std::optional<obs::PipelineTracer> tracer;
    double wallSeconds = 0.0;
    try {
        if (opts.warmupInsts > 0) {
            pipe.runUntilFetched(opts.warmupInsts);
            pipe.resetStats();
        }

        // Observability attaches after warmup so samples and trace
        // records cover exactly the measured phase.
        if (opts.sampleInterval > 0) {
            sampler.emplace(root, opts.sampleInterval,
                            opts.sampleFilter);
            pipe.setSampler(&*sampler);
        }
        if (!opts.tracePath.empty()) {
            tracer.emplace(opts.tracePath, program.name(),
                           cfg.notation(), opts.label, cfg.robSize);
            pipe.setTracer(&*tracer);
        }

        // maxInsts counts measured instructions, excluding warmup.
        std::uint64_t limit =
            opts.maxInsts ? opts.maxInsts + opts.warmupInsts : 0;
        auto t0 = std::chrono::steady_clock::now();
        pipe.run(limit);
        wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

        if (sampler)
            sampler->finish(pipe.committedInsts.value(),
                            pipe.numCycles.value());
        if (tracer)
            tracer->finish();
        pipe.setSampler(nullptr);
        pipe.setTracer(nullptr);
        if (sampler && !opts.samplePath.empty())
            sampler->dumpFile(opts.samplePath);

        if (plan.corruptTrace && !opts.tracePath.empty())
            robust::FaultInjector::active()->corruptFile(
                opts.tracePath);
        if (opts.verifyTrace && !opts.tracePath.empty()) {
            // Full decode self-check; raises TraceCorruptError on any
            // damage between finalize and here.
            obs::TraceReader verify(opts.tracePath);
            obs::TraceRecord rec;
            while (verify.next(rec)) {
            }
        }
    } catch (const SimError &e) {
        // Leave no torn observability outputs behind, write the
        // crash report, and hand the typed error to the supervisor.
        pipe.setSampler(nullptr);
        pipe.setTracer(nullptr);
        if (tracer)
            tracer->abandon();
        if (!opts.blackboxPath.empty())
            emitBlackbox(opts, program, cfg, pipe, root, e);
        throw;
    }

    SimResult r;
    r.program = program.name();
    r.notation = cfg.notation();
    r.cycles = pipe.numCycles.value();
    r.committed = pipe.committedInsts.value();
    r.ipc = pipe.ipc();
    extractCounters(r, pipe);

    if (opts.captureStats)
        r.statsText = stats::toText(root);

    attachManifest(r, program, cfg, opts, pipe, root, wallSeconds,
                   static_cast<bool>(trace),
                   trace ? "replay" : "live");
    return r;
}

/**
 * The sampled engine: SMARTS-style interval sampling. Every
 * SamplingPlan::period instructions the pipeline runs a detailed
 * warm-up followed by a measured window; the rest of the period
 * fast-forwards through the functional source with no timing model at
 * all (stream characterization stays exact — every skipped
 * instruction is still recorded). One persistent pipeline carries the
 * microarchitectural state (caches, classifier history) across gaps,
 * and the per-window warm-up re-fills the in-flight structures before
 * each measurement — the "detailed warm-up" SMARTS variant.
 *
 * IPC is the ratio estimator sum(window insts)/sum(window cycles);
 * the 95% confidence half-width over per-window IPCs lands in
 * SimResult::sampling.ipcCi95. cycles is back-derived from the
 * estimate so the manifest invariant ipc == committed/cycles holds.
 */
SimResult
runSampled(const prog::Program &program,
           const config::MachineConfig &cfg, const RunOptions &opts)
{
    const SamplingPlan &sp = opts.sampling;
    if (sp.period == 0 || sp.detail == 0)
        raise(ConfigError("sampling",
                          "sampled engine needs a non-zero sampling "
                          "period and detail window"));
    // Checked as two subtraction-safe comparisons: the obvious
    // `warmup + detail > period` wraps around for plans near
    // UINT64_MAX and would wave an impossible plan through (the
    // fast-forward length `period - warmup - detail` then underflows
    // to an astronomically long skip).
    if (sp.warmup > sp.period || sp.detail > sp.period - sp.warmup)
        raise(ConfigError(
            "sampling",
            format("sampling warmup (%llu) + detail (%llu) must fit "
                   "within the period (%llu)",
                   static_cast<unsigned long long>(sp.warmup),
                   static_cast<unsigned long long>(sp.detail),
                   static_cast<unsigned long long>(sp.period))));
    if (opts.warmupInsts > 0)
        raise(ConfigError("warmup_insts",
                          "the sampled engine warms up per window "
                          "(SamplingPlan::warmup); a whole-run warmup "
                          "phase does not compose with sampling"));
    if (!opts.tracePath.empty() || opts.verifyTrace)
        raise(ConfigError("trace_path",
                          "a pipeline lifecycle trace of a sampled "
                          "run would cover only the detailed windows; "
                          "use an exact engine"));

    checkExternalOptions(opts);
    robust::RunFaultPlan plan = probeFaults(program, cfg);

    cfg.validate();

    std::shared_ptr<const vm::RecordedTrace> trace =
        opts.externalTrace
            ? vm::ExternalTrace::sharedTrace(opts.externalTrace)
            : opts.trace;
    stats::Group root(nullptr, "");
    std::optional<vm::Executor> exec;
    std::optional<vm::TraceReplay> replay;
    vm::InstSource *src;
    if (trace) {
        if (&trace->program() != &program)
            panic("RunOptions::trace was recorded from a different "
                  "program");
        src = &replay.emplace(*trace);
    } else {
        src = &exec.emplace(program);
    }
    cpu::Pipeline pipe(&root, cfg, *src);

    if (cfg.classifier == config::ClassifierKind::StaticHybrid)
        pipe.classifier().setStaticVerdicts(
            opts.externalTrace
                ? externalVerdictTable(*opts.externalTrace)
                : staticVerdictTable(program));

    if (!opts.blackboxPath.empty())
        pipe.enableCommitLog(kBlackboxCommits);
    if (opts.maxCycles != 0 || opts.maxWallSeconds > 0)
        pipe.setGuards({opts.maxCycles, opts.maxWallSeconds});
    if (plan.dropWakeupAt != 0)
        pipe.armWakeupDrop(plan.dropWakeupAt);

    std::optional<obs::Sampler> sampler;
    const std::uint64_t limit = opts.maxInsts; // 0 = whole program
    std::uint64_t ffSkipped = 0;
    std::uint64_t diSum = 0;
    std::uint64_t dcSum = 0;
    std::vector<double> winIpc;
    double wallSeconds = 0.0;

    // Instructions consumed from the source so far: fetched in detail
    // plus functionally skipped.
    auto consumed = [&] { return pipe.fetchedCount() + ffSkipped; };

    // Deterministic jitter on the fast-forward length (xorshift64,
    // fixed seed): loop workloads have iteration periods that alias
    // with a fixed sampling period, biasing every window onto the
    // same phase offset. Randomising each skip within [skip/2,
    // 3*skip/2) keeps the mean sampling rate while decorrelating
    // window placement from program periodicity. The fixed seed keeps
    // sampled runs reproducible run-to-run.
    std::uint64_t rngState = 0x9e3779b97f4a7c15ull;
    auto nextRand = [&rngState] {
        rngState ^= rngState << 13;
        rngState ^= rngState >> 7;
        rngState ^= rngState << 17;
        return rngState;
    };

    try {
        if (opts.sampleInterval > 0) {
            sampler.emplace(root, opts.sampleInterval,
                            opts.sampleFilter);
            pipe.setSampler(&*sampler);
        }

        auto t0 = std::chrono::steady_clock::now();
        while (!src->halted() && (limit == 0 || consumed() < limit)) {
            // Detailed (but unmeasured) warm-up: re-fill the ROB and
            // queues so the window sees steady state, not a restart
            // transient.
            std::uint64_t w = sp.warmup;
            if (limit)
                w = std::min(w, limit - consumed());
            if (w > 0)
                pipe.runUntilFetched(pipe.fetchedCount() + w);
            if (src->halted() || (limit && consumed() >= limit))
                break;

            // Measured window.
            std::uint64_t d = sp.detail;
            if (limit)
                d = std::min(d, limit - consumed());
            std::uint64_t c0 = pipe.numCycles.value();
            std::uint64_t i0 = pipe.committedInsts.value();
            pipe.runUntilFetched(pipe.fetchedCount() + d);
            std::uint64_t dc = pipe.numCycles.value() - c0;
            std::uint64_t di = pipe.committedInsts.value() - i0;
            if (dc > 0 && di > 0) {
                dcSum += dc;
                diSum += di;
                winIpc.push_back(static_cast<double>(di) / dc);
            }

            // Drain the in-flight window (its cycles are not part of
            // the measurement), then fast-forward the remainder of
            // the period functionally.
            pipe.run(pipe.fetchedCount());
            std::uint64_t skip = sp.period - sp.warmup - sp.detail;
            if (skip > 1)
                skip = skip / 2 + nextRand() % skip;
            if (limit && consumed() < limit)
                skip = std::min(skip, limit - consumed());
            else if (limit)
                skip = 0;
            // Functional warming: caches and the region predictor
            // keep tracking the stream, so the next window's warm-up
            // only has to refill the pipeline — not rebuild megabytes
            // of cold tag state.
            ffSkipped += exec ? pipe.fastForward(*exec, skip)
                              : pipe.fastForward(*replay, skip);
        }
        // Drain whatever the final partial window left in flight.
        pipe.run(pipe.fetchedCount());
        wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

        if (sampler) {
            sampler->finish(pipe.committedInsts.value(),
                            pipe.numCycles.value());
            pipe.setSampler(nullptr);
            if (!opts.samplePath.empty())
                sampler->dumpFile(opts.samplePath);
        }
    } catch (const SimError &e) {
        pipe.setSampler(nullptr);
        if (!opts.blackboxPath.empty())
            emitBlackbox(opts, program, cfg, pipe, root, e);
        throw;
    }

    const std::uint64_t totalInsts = consumed();
    double ipcEst = dcSum > 0
                        ? static_cast<double>(diSum) / dcSum
                        : pipe.ipc(); // program shorter than a window
    SimResult r;
    r.program = program.name();
    r.notation = cfg.notation();
    r.committed = totalInsts;
    // Integer cycles first, then the IPC recomputed from them, so the
    // manifest invariant ipc == committed/cycles holds exactly.
    r.cycles = ipcEst > 0
                   ? static_cast<std::uint64_t>(
                         std::llround(totalInsts / ipcEst))
                   : pipe.numCycles.value();
    if (r.cycles == 0)
        r.cycles = pipe.numCycles.value();
    r.ipc = r.cycles ? static_cast<double>(r.committed) / r.cycles
                     : 0.0;

    r.sampling.active = true;
    r.sampling.period = sp.period;
    r.sampling.detail = sp.detail;
    r.sampling.warmup = sp.warmup;
    r.sampling.windows = winIpc.size();
    r.sampling.detailInsts = diSum;
    r.sampling.detailCycles = dcSum;
    if (winIpc.size() > 1) {
        double mean = 0.0;
        for (double v : winIpc)
            mean += v;
        mean /= static_cast<double>(winIpc.size());
        double var = 0.0;
        for (double v : winIpc)
            var += (v - mean) * (v - mean);
        var /= static_cast<double>(winIpc.size() - 1);
        r.sampling.ipcCi95 =
            1.96 * std::sqrt(var /
                             static_cast<double>(winIpc.size()));
    }

    extractCounters(r, pipe);
    if (opts.captureStats)
        r.statsText = stats::toText(root);

    attachManifest(r, program, cfg, opts, pipe, root, wallSeconds,
                   static_cast<bool>(trace), "sampled");
    return r;
}

} // namespace

SimResult
run(const prog::Program &program, const config::MachineConfig &cfg,
    const RunOptions &opts)
{
    if (opts.engine == Engine::Sampled)
        return runSampled(program, cfg, opts);
    return runExact(program, cfg, opts);
}

} // namespace ddsim::sim
