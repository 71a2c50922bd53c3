#include "sim/sweep.hh"

#include <algorithm>
#include <chrono>
#include <new>
#include <ostream>
#include <thread>
#include <utility>

#include "obs/manifest.hh"
#include "obs/version.hh"
#include "util/atomic_file.hh"
#include "util/json.hh"
#include "util/log.hh"
#include "util/str.hh"

namespace ddsim::sim {

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Recovered: return "recovered";
      case JobStatus::Quarantined: return "quarantined";
    }
    return "?";
}

ErrorClass
classifyError(const std::exception_ptr &e)
{
    try {
        std::rethrow_exception(e);
    } catch (const SimError &se) {
        return {se.kind(), se.what(), se.transient()};
    } catch (const std::bad_alloc &ba) {
        // Memory pressure in a loaded sweep: concurrent jobs finish
        // and free theirs, so a retry has a real chance.
        return {"alloc", ba.what(), true};
    } catch (const std::exception &ex) {
        return {"unknown", ex.what(), false};
    } catch (...) {
        return {"unknown", "non-exception throw", false};
    }
}

SweepRunner::SweepRunner(unsigned workers) : pool(workers) {}

SweepRunner::~SweepRunner()
{
    // Jobs still in flight write into `slots`, which must outlive
    // them: drain the pool before the deque is destroyed.
    pool.wait();
}

void
SweepRunner::runJobWithRetry(SweepJob job, Slot *slot, TraceCache *tc,
                             const RetryPolicy &policy)
{
    // Bounded retry with exponential backoff. Only transiently
    // classified failures retry; simulation is deterministic, so
    // a deadlock or config error would just fail identically
    // again, while an I/O hiccup or allocation failure may pass.
    std::uint64_t backoff = policy.backoffMs;
    for (int attempt = 1;; ++attempt) {
        slot->attempts = attempt;
        try {
            if (tc) {
                std::uint64_t cap =
                    job.opts.maxInsts
                        ? job.opts.maxInsts + job.opts.warmupInsts
                        : 0;
                job.opts.trace = tc->get(job.program, cap);
            }
            slot->result = run(*job.program, job.cfg, job.opts);
            slot->error = nullptr;
            return;
        } catch (...) {
            slot->error = std::current_exception();
            slot->lastError = classifyError(slot->error);
            if (!slot->lastError.transient ||
                attempt >= policy.maxAttempts)
                return;
        }
        if (backoff > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
        backoff = std::min(backoff * 2, policy.maxBackoffMs);
    }
}

std::size_t
SweepRunner::submit(SweepJob job)
{
    if (!job.program)
        panic("SweepRunner::submit: job has no program");
    std::size_t index = slots.size();
    slots.emplace_back();
    // deque never relocates elements, so this pointer stays valid
    // while submit() grows the grid under the workers.
    Slot *slot = &slots.back();
    // Trace resolution runs on the worker, not here: the first job to
    // reach a program records its trace while workers on other
    // programs keep simulating. External traces bring their own
    // stream — recording their reconstructed program would be wrong.
    TraceCache *tc = shareTraces && !job.opts.trace &&
                             !job.opts.externalTrace
                         ? &traces
                         : nullptr;
    RetryPolicy policy = retryPolicy;
    pool.submit([slot, tc, policy, job = std::move(job)]() mutable {
        runJobWithRetry(std::move(job), slot, tc, policy);
    });
    return index;
}

std::size_t
SweepRunner::submit(std::shared_ptr<const prog::Program> program,
                    const config::MachineConfig &cfg,
                    const RunOptions &opts)
{
    return submit(SweepJob{std::move(program), cfg, opts});
}

std::vector<SimResult>
SweepRunner::collect()
{
    pool.wait();
    std::vector<SimResult> results;
    results.reserve(slots.size());
    std::exception_ptr firstError;
    for (Slot &slot : slots) {
        if (slot.error && !firstError)
            firstError = slot.error;
        results.push_back(std::move(slot.result));
    }
    slots.clear();
    if (firstError)
        std::rethrow_exception(firstError);
    return results;
}

SweepOutcome
SweepRunner::collectOutcome()
{
    pool.wait();
    SweepOutcome out;
    out.results.reserve(slots.size());
    out.jobs.reserve(slots.size());
    for (Slot &slot : slots) {
        JobOutcome jo;
        jo.attempts = slot.attempts;
        jo.error = slot.lastError;
        if (slot.error) {
            jo.status = JobStatus::Quarantined;
            ++out.numQuarantined;
            out.degraded = true;
            // Placeholder keeps indices; the flag keeps it from being
            // mistaken for a legitimate zero-stat result downstream.
            out.results.emplace_back();
            out.results.back().quarantined = true;
        } else {
            jo.status = slot.attempts > 1 ? JobStatus::Recovered
                                          : JobStatus::Ok;
            if (jo.status == JobStatus::Recovered)
                ++out.numRecovered;
            out.results.push_back(std::move(slot.result));
        }
        out.jobs.push_back(std::move(jo));
    }
    slots.clear();
    return out;
}

std::vector<SimResult>
SweepRunner::runAll(std::vector<SweepJob> jobs, unsigned workers)
{
    SweepRunner runner(workers);
    for (SweepJob &job : jobs)
        runner.submit(std::move(job));
    return runner.collect();
}

namespace {

void
writeSweepManifestDoc(const std::string &title,
                      const std::vector<SimResult> &results,
                      const std::vector<JobOutcome> *jobs,
                      bool degraded, std::size_t numQuarantined,
                      std::size_t numRecovered, std::ostream &os)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", obs::kSweepManifestSchema);
    w.field("title", title);
    w.key("generator");
    w.beginObject();
    w.field("name", obs::simulatorName());
    w.field("version", obs::simulatorVersion());
    w.field("git", obs::gitDescribe());
    w.endObject();
    w.field("num_runs", static_cast<std::uint64_t>(results.size()));
    if (jobs) {
        w.field("degraded", degraded);
        w.field("num_quarantined",
                static_cast<std::uint64_t>(numQuarantined));
        w.field("num_recovered",
                static_cast<std::uint64_t>(numRecovered));
        w.key("jobs");
        w.beginArray();
        for (std::size_t i = 0; i < jobs->size(); ++i) {
            const JobOutcome &jo = (*jobs)[i];
            w.beginObject();
            w.field("index", static_cast<std::uint64_t>(i));
            w.field("status", jobStatusName(jo.status));
            w.field("attempts",
                    static_cast<std::uint64_t>(jo.attempts));
            if (jo.error.kind.empty()) {
                w.key("error");
                w.valueNull();
            } else {
                w.key("error");
                w.beginObject();
                w.field("kind", jo.error.kind);
                w.field("message", jo.error.message);
                w.field("transient", jo.error.transient);
                w.endObject();
            }
            w.endObject();
        }
        w.endArray();
    }
    w.key("runs");
    w.beginArray();
    for (const SimResult &r : results) {
        if (r.manifestJson.empty())
            w.valueNull();
        else
            w.rawValue(trim(r.manifestJson));
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace

void
writeSweepManifest(const std::string &title,
                   const std::vector<SimResult> &results,
                   std::ostream &os)
{
    writeSweepManifestDoc(title, results, nullptr, false, 0, 0, os);
}

void
writeSweepManifest(const std::string &title, const SweepOutcome &outcome,
                   std::ostream &os)
{
    writeSweepManifestDoc(title, outcome.results, &outcome.jobs,
                          outcome.degraded, outcome.numQuarantined,
                          outcome.numRecovered, os);
}

void
writeSweepManifestFile(const std::string &title,
                       const std::vector<SimResult> &results,
                       const std::string &path)
{
    AtomicFile file(path);
    writeSweepManifest(title, results, file.stream());
    file.commit();
}

void
writeSweepManifestFile(const std::string &title,
                       const SweepOutcome &outcome,
                       const std::string &path)
{
    AtomicFile file(path);
    writeSweepManifest(title, outcome, file.stream());
    file.commit();
}

std::shared_ptr<const vm::RecordedTrace>
TraceCache::get(const std::shared_ptr<const prog::Program> &program,
                std::uint64_t maxInsts)
{
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mu);
        std::shared_ptr<Entry> &slot =
            cache[Key{program.get(), maxInsts}];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }
    // Record outside the map lock: only callers wanting this same
    // trace wait; other programs record concurrently.
    std::call_once(entry->once, [&] {
        entry->pin = program;
        entry->trace = std::make_shared<const vm::RecordedTrace>(
            vm::RecordedTrace::record(*program, maxInsts));
        entry->bytes =
            entry->trace->wordCount() * sizeof(std::uint32_t);
    });
    {
        std::lock_guard<std::mutex> lock(mu);
        entry->lastUse = ++useClock;
        if (!entry->counted) {
            // First completion of this recording (a re-recorded
            // evictee counts again — that is what recordings()
            // observes).
            entry->counted = true;
            totalBytes += entry->bytes;
            ++numRecorded;
        }
        evictLocked(entry.get());
    }
    return entry->trace;
}

void
TraceCache::evictLocked(const Entry *keep)
{
    if (byteBudget == 0)
        return;
    while (totalBytes > byteBudget) {
        auto victim = cache.end();
        for (auto it = cache.begin(); it != cache.end(); ++it) {
            Entry *e = it->second.get();
            // Only completed recordings carry counted bytes; never
            // evict the entry being returned to the caller.
            if (e == keep || !e->counted)
                continue;
            if (victim == cache.end() ||
                e->lastUse < victim->second->lastUse)
                victim = it;
        }
        if (victim == cache.end())
            return; // Only the kept (possibly over-budget) trace left.
        totalBytes -= victim->second->bytes;
        // Jobs still replaying the evicted trace hold their own
        // shared_ptr; only the cache reference goes away.
        cache.erase(victim);
    }
}

std::size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cache.size();
}

std::size_t
TraceCache::recordings() const
{
    std::lock_guard<std::mutex> lock(mu);
    return numRecorded;
}

void
TraceCache::setByteBudget(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mu);
    byteBudget = bytes;
    evictLocked(nullptr);
}

std::size_t
TraceCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return totalBytes;
}

std::shared_ptr<const prog::Program>
ProgramCache::get(const std::string &key, const Builder &build)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache
                 .emplace(key, std::make_shared<const prog::Program>(
                                   build()))
                 .first;
    }
    return it->second;
}

std::size_t
ProgramCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cache.size();
}

} // namespace ddsim::sim
