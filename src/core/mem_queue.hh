/**
 * @file
 * MemQueue: one memory access queue plus its port-scheduled cache.
 * Instantiated twice per decoupled machine — once as the conventional
 * LSQ in front of the L1 data cache, once as the LVAQ in front of the
 * LVC — exactly the symmetric structure of Figure 1(b).
 *
 * Semantics follow sim-outorder (Section 3.1):
 *  - a load may access its cache once its own address and the
 *    addresses of all earlier stores *in this queue* are known;
 *  - a load whose bytes are fully covered by an earlier store with
 *    ready data is satisfied by in-queue forwarding in one cycle;
 *  - stores write their cache at commit, competing for the same ports.
 *
 * On top of that, the LVAQ instance adds the paper's two
 * optimizations: fast data forwarding (offset matching before address
 * generation) and access combining in the port scheduler.
 *
 * Load scheduling is event-driven, like the ROB's wakeup: a load is
 * examined only in a tick where it can act. Every resident load that
 * has not issued sits in exactly one place:
 *  - the age-ordered ready set, while it can try to act this cycle
 *    (a load denied a port stays there and retries every cycle);
 *  - nowhere, until setAddress() delivers its own address;
 *  - a timer, until its own address becomes effective (addrKnownAt);
 *  - the barrier set, while an older store's address is unknown; the
 *    oldest such store is the conservative disambiguation barrier,
 *    and the barrier's advance in tick() releases the loads it passes;
 *  - the waiter list of one older store: its fast-forward source, or
 *    the youngest older overlapping store, whose data it awaits (also
 *    on a timer once the data's cycle is known) or whose commit it
 *    awaits (partial overlap); any change to that store -- data,
 *    commit, cancel, release, re-address -- wakes it.
 * A wake only makes a load re-examine itself, so a spurious wake is
 * harmless and only a missed one could change timing. The timing
 * model, and every counter, is bit-identical to the original scan
 * that visited every resident load every cycle.
 *
 * Stores are not rescanned either: the barrier is the head of an
 * age-ordered deque of stores with still-unknown addresses, and the
 * youngest-older-store search walks the resident stores only when a
 * counting filter over their 8-byte address chunks says one may
 * overlap the load.
 */

#ifndef DDSIM_CORE_MEM_QUEUE_HH_
#define DDSIM_CORE_MEM_QUEUE_HH_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/combining.hh"
#include "core/queue_entry.hh"
#include "mem/cache.hh"
#include "stats/group.hh"
#include "stats/histogram.hh"
#include "stats/stat.hh"

namespace ddsim::core {

/** Scheduling policy knobs for one queue. */
struct QueuePolicy
{
    int ports = 1;
    int combining = 1;              ///< Max accesses per port grant.
    int banks = 0;                  ///< 0 = ideal; else interleaved.
    bool fastForward = false;
    Cycle forwardLatency = 1;
    Cycle mispredictPenalty = 8;    ///< Extra latency when missteered.
};

/** A completed load to hand back to the ROB. */
struct LoadCompletion
{
    int slot = -1;
    int robIdx = -1;
    Cycle readyAt = 0;
};

/** "No scheduled event" sentinel for event-driven cycle skipping. */
inline constexpr Cycle kNoEvent = ~Cycle{0};

/** One memory access queue (LSQ or LVAQ). */
class MemQueue : public stats::Group
{
  public:
    /**
     * Per-tick scheduling summary, advisory input to the pipeline's
     * cycle skip-ahead. nextEvent is the earliest future cycle at
     * which this queue can make progress from *already-pushed* state
     * (an address or store datum arriving, or a denied port retry);
     * progress that needs a new external push (setAddress,
     * setStoreData, commitStore, cancel) is reported through
     * takeExternalEvent() instead. stalledLoads counts the loads that
     * took a disambiguation stall this tick (the loads parked behind
     * the barrier); while the queue is left unticked every skipped
     * cycle accrues the same stalls.
     */
    struct TickInfo
    {
        Cycle nextEvent = kNoEvent;
        std::uint64_t stalledLoads = 0;
    };

    /**
     * @param cache The cache this queue's ports reach.
     * @param altCache Cache used by missteered accesses (the "other"
     *        stream's cache); may be nullptr when classification is
     *        exact.
     */
    MemQueue(stats::Group *parent, const std::string &name, int size,
             mem::Cache *cache, mem::Cache *altCache,
             const QueuePolicy &policy);

    bool full() const { return count == capacity; }
    int occupancy() const { return count; }
    int size() const { return capacity; }

    /**
     * Allocate a queue slot for a just-dispatched memory instruction.
     * The caller must check full() first. Performs the fast-forward
     * match for loads when the policy enables it.
     *
     * @return The slot index.
     */
    int allocate(InstSeq seq, int robIdx, bool isLoad,
                 std::uint8_t accessSize, RegId baseReg,
                 std::int32_t offset, std::uint32_t baseVersion);

    /** Address generation finished for @p slot. */
    void setAddress(int slot, Addr addr, Cycle when, bool missteered);

    /** The store's data operand became available. */
    void setStoreData(int slot, Cycle readyAt);

    /**
     * Kill a replica (Replicate steering, paper footnote 3): this
     * copy was inserted speculatively and the access belongs to the
     * other queue. The slot stays allocated for ordering but is inert
     * until released.
     */
    void cancel(int slot);

    /**
     * Per-cycle load processing: issue eligible loads to the cache (or
     * forward them) and report completions. Examines only the loads
     * that can act (see the file comment) and charges one
     * disambiguation stall per load parked behind the barrier. Called
     * once per simulated cycle; skipTo() stands in for cycles the
     * pipeline leaves unticked.
     */
    void tick(Cycle now, std::vector<LoadCompletion> &completions,
              TickInfo *info = nullptr);

    /**
     * Replay the queue-side effects of leaving the queue unticked for
     * cycles (@p from, @p to]: each load that stalled on
     * disambiguation in the tick at @p from stalls again every skipped
     * cycle, and the occupancy histogram keeps sampling every 64
     * cycles. Only valid while the queue is quiescent (the pipeline
     * skips only when no allocate/release/setAddress/setStoreData/
     * commitStore/cancel lands in the window).
     */
    void skipTo(Cycle from, Cycle to, std::uint64_t stalledLoads);

    /**
     * Earliest cycle at which state pushed from outside since the last
     * call (setAddress, setStoreData, commitStore, cancel) can change
     * this queue's behaviour. Consumed: resets to kNoEvent.
     */
    Cycle takeExternalEvent()
    {
        Cycle e = extEvent;
        extEvent = kNoEvent;
        return e;
    }

    /**
     * Try to write a committing store to the cache. @return false if
     * no port could be granted this cycle (the caller stalls commit).
     */
    bool commitStore(int slot, Cycle now);

    /** Free @p slot. Entries must be released oldest-first. */
    void release(int slot);

    const QueueEntry &entry(int slot) const
    {
        return entries[static_cast<std::size_t>(slot)];
    }

    /** Fraction of loads satisfied in-queue (paper: 50-90% for LVAQ). */
    double queueSatisfiedFrac() const;

    // Stats.
    stats::Scalar allocated;
    stats::Scalar loadsTotal;
    stats::Scalar storesTotal;
    stats::Scalar loadsForwarded;       ///< Normal in-queue forwards.
    stats::Scalar loadsFastForwarded;   ///< Offset-matched forwards.
    stats::Scalar loadsFromCache;
    stats::Scalar combinedAccesses;     ///< Accesses riding a group.
    stats::Scalar portDenials;          ///< Port-full rejections.
    stats::Scalar bankConflicts;        ///< Banked-mode denials.
    stats::Scalar disambiguationStalls; ///< Load-blocked cycles.
    stats::Scalar missteeredAccesses;
    stats::Scalar cancelledReplicas;    ///< Killed copies (Replicate).
    stats::Histogram occupancyHist;

  private:
    /** Address chunks of the store-overlap filter. */
    static constexpr unsigned kChunkShift = 3;
    static constexpr std::size_t kFilterSize = 1024;

    int capacity;
    mem::Cache *cache;
    mem::Cache *altCache;
    QueuePolicy policy;
    std::vector<QueueEntry> entries;
    int head = 0;
    int tail = 0;
    int count = 0;
    PortScheduler scheduler;
    Cycle lastSampled = 0;

    // ---- Indexes (derived state; the entries array stays the truth).
    /**
     * Resident stores whose address was unknown as of the last tick,
     * in age order. The front (after popping resolved/cancelled/stale
     * heads) is the conservative disambiguation barrier: a load is
     * blocked iff it is younger than the front store.
     */
    std::deque<std::pair<int, InstSeq>> noAddrStores;
    /**
     * All resident stores' slots in age order (cancelled ones included
     * and skipped at use), walked youngest-first by the fast-forward
     * offset match at allocate and by youngestOlderStore().
     */
    std::deque<int> storesByAge;
    /**
     * Counting filter over the 8-byte address chunks touched by
     * known-address, non-cancelled resident stores (an access spans
     * at most two), hashed into kFilterSize buckets. A zero bucket
     * proves that no such store overlaps a load there, so
     * youngestOlderStore() walks storesByAge only when one might.
     */
    std::vector<std::uint32_t> chunkFilter;

    // ---- Load scheduling (see the file comment).
    /** Where a pending load waits. */
    enum class Wait : std::uint8_t
    {
        None,    ///< For its own address (or not a pending load).
        Ready,   ///< In readyBits.
        Timed,   ///< For its own address's cycle, wakeAt.
        Store,   ///< On storeWaiters[store] (and at wakeAt if known).
        Barrier, ///< In barrierBits.
    };
    struct LoadWait
    {
        Wait wait = Wait::None;
        Cycle wakeAt = kNoEvent;
    };
    /** A timer entry; stale once its load's LoadWait moved on. */
    struct Timer
    {
        Cycle at;
        InstSeq seq;
        int slot;
        bool operator>(const Timer &o) const { return at > o.at; }
    };

    std::vector<LoadWait> loadWait;     ///< Per slot.
    std::vector<std::uint64_t> readyBits;   ///< One bit per slot.
    std::vector<std::uint64_t> barrierBits; ///< One bit per slot.
    std::uint64_t barrierParked = 0;    ///< Set bits in barrierBits.
    std::vector<Timer> timers;          ///< Min-heap on Timer::at.
    /** Per store slot: the loads parked on it (possibly stale). */
    std::vector<std::vector<int>> storeWaiters;

    /** Earliest effect cycle of external pushes since last taken. */
    Cycle extEvent = kNoEvent;

    int positionOf(int slot) const;

    /** Add @p delta for store @p e's chunks in chunkFilter. */
    void filterStore(const QueueEntry &e, int delta);
    /**
     * Youngest store older than @p load overlapping its bytes, or -1.
     * Pre-condition (guaranteed by the disambiguation barrier): every
     * older store's address is known.
     */
    int youngestOlderStore(const QueueEntry &load) const;

    /** Make pending load @p slot re-examine itself next tick. */
    void wake(int slot);
    /** Wake every load parked on store @p slot. */
    void wakeWaitersOf(int slot);
    /** Take @p slot out of the ready and barrier sets. */
    void unschedule(int slot);
    /** Park @p slot: in state @p w, with a timer at @p at if known. */
    void park(int slot, Wait w, Cycle at = kNoEvent);
    /** Park @p slot on store @p store's waiter list (and at @p at). */
    void parkOnStore(int slot, int store, Cycle at);
    /** Is @p t still the wake-up of the load it names? */
    bool live(const Timer &t) const;
    /** Call @p f(slot) on each set bit of @p bits, oldest first,
     *  until it returns false. */
    template <class F>
    void forEachByAge(const std::vector<std::uint64_t> &bits, F &&f);

    /**
     * Examine one ready load: complete it, leave it ready after a
     * denied port, or park it on the one event it waits for.
     */
    void processLoad(int slot, Cycle now, InstSeq barrierSeq,
                     std::vector<LoadCompletion> &completions);

    /** Issue one load to the cache via the port scheduler. */
    bool tryCacheAccess(QueueEntry &e, int pos, Cycle now);
};

} // namespace ddsim::core

#endif // DDSIM_CORE_MEM_QUEUE_HH_
