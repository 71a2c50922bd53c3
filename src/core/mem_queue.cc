#include "core/mem_queue.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <ranges>

#include "core/fast_forward.hh"
#include "util/log.hh"

namespace ddsim::core {

MemQueue::MemQueue(stats::Group *parent, const std::string &name,
                   int size, mem::Cache *cache, mem::Cache *altCache,
                   const QueuePolicy &policy)
    : stats::Group(parent, name),
      allocated(this, "allocated", "entries allocated"),
      loadsTotal(this, "loads", "loads passed through this queue"),
      storesTotal(this, "stores", "stores passed through this queue"),
      loadsForwarded(this, "loads_forwarded",
                     "loads satisfied by in-queue store forwarding"),
      loadsFastForwarded(this, "loads_fast_forwarded",
                         "loads satisfied by offset-matched fast "
                         "forwarding"),
      loadsFromCache(this, "loads_from_cache",
                     "loads that accessed the cache"),
      combinedAccesses(this, "combined_accesses",
                       "accesses merged into another port grant"),
      portDenials(this, "port_denials",
                  "port requests denied (all ports busy)"),
      bankConflicts(this, "bank_conflicts",
                    "requests denied by a busy bank (banked mode)"),
      disambiguationStalls(this, "disambiguation_stalls",
                           "load-cycles blocked on unknown older "
                           "store addresses"),
      missteeredAccesses(this, "missteered",
                         "accesses steered to the wrong queue"),
      cancelledReplicas(this, "cancelled_replicas",
                        "replicated copies killed at resolution"),
      occupancyHist(this, "occupancy", "queue occupancy distribution",
                    65, 1),
      capacity(size),
      cache(cache),
      altCache(altCache),
      policy(policy),
      entries(static_cast<std::size_t>(size)),
      scheduler(policy.ports, policy.combining,
                cache->params().lineBytes, policy.banks)
{
    if (size < 1)
        panic("memory queue needs at least one entry");
    auto n = static_cast<std::size_t>(size);
    loadWait.resize(n);
    readyBits.assign((n + 63) / 64, 0);
    barrierBits.assign((n + 63) / 64, 0);
    timers.reserve(n);
    storeWaiters.resize(n);
    chunkFilter.assign(kFilterSize, 0);
}

int
MemQueue::positionOf(int slot) const
{
    return (slot - head + capacity) % capacity;
}

void
MemQueue::filterStore(const QueueEntry &e, int delta)
{
    if (!e.addrKnown || e.cancelled || e.size == 0)
        return; // Not a store a load can hit.
    Addr lo = e.addr >> kChunkShift;
    Addr hi = (e.addr + e.size - 1) >> kChunkShift;
    for (Addr c = lo; c <= hi; ++c)
        chunkFilter[c % kFilterSize] += static_cast<std::uint32_t>(delta);
}

int
MemQueue::youngestOlderStore(const QueueEntry &load) const
{
    if (load.size == 0)
        return -1;
    Addr lo = load.addr >> kChunkShift;
    Addr hi = (load.addr + load.size - 1) >> kChunkShift;
    bool maybe = false;
    for (Addr c = lo; c <= hi && !maybe; ++c)
        maybe = chunkFilter[c % kFilterSize] != 0;
    if (!maybe)
        return -1; // No live store touches these chunks.
    for (int slot : storesByAge | std::views::reverse) {
        const QueueEntry &st = entries[static_cast<std::size_t>(slot)];
        if (st.seq >= load.seq || st.cancelled || !st.addrKnown ||
            st.size == 0)
            continue; // Younger, inert, or overlapping nothing.
        if (st.overlaps(load))
            return slot;
    }
    return -1;
}

int
MemQueue::allocate(InstSeq seq, int robIdx, bool isLoad,
                   std::uint8_t accessSize, RegId baseReg,
                   std::int32_t offset, std::uint32_t baseVersion)
{
    if (full())
        panic("MemQueue::allocate on a full queue");

    int slot = tail;
    tail = (tail + 1) % capacity;
    ++count;
    ++allocated;

    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    e = QueueEntry{};
    e.valid = true;
    e.seq = seq;
    e.robIdx = robIdx;
    e.isLoad = isLoad;
    e.isStore = !isLoad;
    e.size = accessSize;
    e.baseReg = baseReg;
    e.offset = offset;
    e.baseVersion = baseVersion;

    loadWait[static_cast<std::size_t>(slot)] = LoadWait{};

    if (isLoad) {
        ++loadsTotal;
        if (policy.fastForward) {
            // Candidates: resident stores only, youngest first (the
            // original scan walked all older slots but skipped
            // non-stores, so the result is identical).
            int match = findFastForwardStore(
                entries, storesByAge | std::views::reverse, e);
            if (match >= 0) {
                const QueueEntry &st =
                    entries[static_cast<std::size_t>(match)];
                e.fastFwdSlot = match;
                e.fastFwdSeq = st.seq;
                wake(slot); // May forward before any address exists.
                if (st.dataReady) // Its forward is due from then on.
                    extEvent = std::min(extEvent, st.dataReadyAt);
            }
        }
        // Otherwise the load has nothing to do until setAddress.
    } else {
        ++storesTotal;
        noAddrStores.emplace_back(slot, seq);
        storesByAge.push_back(slot);
    }
    return slot;
}

void
MemQueue::setAddress(int slot, Addr addr, Cycle when, bool missteered)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid)
        panic("setAddress on an invalid queue slot");
    if (e.isStore && e.addrKnown) {
        filterStore(e, -1);  // Re-addressing: replace the old entry.
        wakeWaitersOf(slot); // Its overlaps may have changed.
    }
    // A load bound to a fast-forward source ignores its own address
    // until that store leaves; the store's cancel or release wakes it.
    if (e.isLoad &&
        !(loadWait[static_cast<std::size_t>(slot)].wait == Wait::Store &&
          e.fastFwdSlot >= 0))
        wake(slot);
    e.addr = addr;
    e.addrKnown = true;
    e.addrKnownAt = when;
    if (missteered) {
        e.missteered = true;
        ++missteeredAccesses;
    }
    if (e.isStore)
        filterStore(e, +1);
    extEvent = std::min(extEvent, when);
}

void
MemQueue::setStoreData(int slot, Cycle readyAt)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid || !e.isStore)
        panic("setStoreData on a non-store queue slot");
    e.dataReady = true;
    e.dataReadyAt = readyAt;
    wakeWaitersOf(slot);
    extEvent = std::min(extEvent, readyAt);
}

void
MemQueue::cancel(int slot)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid)
        panic("cancel of an invalid queue slot");
    if (e.cancelled)
        return;
    if (e.isStore)
        filterStore(e, -1);
    e.cancelled = true;
    ++cancelledReplicas;
    if (e.isStore)
        wakeWaitersOf(slot);
    else
        unschedule(slot);
    extEvent = 0; // Barrier and fast-forward waiters re-evaluate.
}

bool
MemQueue::tryCacheAccess(QueueEntry &e, int pos, Cycle now)
{
    auto grant = scheduler.request(e.addr, AccessKind::Load, pos);
    if (!grant.granted) {
        ++portDenials;
        if (grant.bankConflict)
            ++bankConflicts;
        return false;
    }

    Cycle done;
    if (grant.combined) {
        // Ride the leader's wide access: same line, same completion.
        ++combinedAccesses;
        done = scheduler.groupCompletion(grant.groupId);
    } else {
        mem::Cache *target = e.missteered && altCache ? altCache : cache;
        Cycle start = e.missteered ? now + policy.mispredictPenalty : now;
        done = target->access(e.addr, false, start);
        scheduler.setGroupCompletion(grant.groupId, done);
    }
    ++loadsFromCache;
    e.issued = true;
    e.completed = true;
    e.completeAt = done;
    e.servedKind = QueueEntry::kServedCache;
    e.servedAt = now;
    e.combinedGrant = grant.combined;
    return true;
}

void
MemQueue::wake(int slot)
{
    const QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    LoadWait &w = loadWait[static_cast<std::size_t>(slot)];
    if (!e.isLoad || e.cancelled || e.issued || w.wait == Wait::Ready)
        return;
    unschedule(slot);
    w.wait = Wait::Ready;
    readyBits[static_cast<std::size_t>(slot) / 64] |=
        std::uint64_t{1} << (slot % 64);
}

void
MemQueue::wakeWaitersOf(int slot)
{
    std::vector<int> &waiters =
        storeWaiters[static_cast<std::size_t>(slot)];
    for (int load : waiters)
        if (loadWait[static_cast<std::size_t>(load)].wait == Wait::Store)
            wake(load);
    waiters.clear();
}

void
MemQueue::unschedule(int slot)
{
    auto word = static_cast<std::size_t>(slot) / 64;
    std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    readyBits[word] &= ~bit;
    if (barrierBits[word] & bit) {
        barrierBits[word] &= ~bit;
        --barrierParked;
    }
    loadWait[static_cast<std::size_t>(slot)] = LoadWait{};
}

void
MemQueue::park(int slot, Wait w, Cycle at)
{
    unschedule(slot);
    loadWait[static_cast<std::size_t>(slot)] = LoadWait{w, at};
    if (w == Wait::Barrier) {
        barrierBits[static_cast<std::size_t>(slot) / 64] |=
            std::uint64_t{1} << (slot % 64);
        ++barrierParked;
    }
    if (at != kNoEvent) {
        timers.push_back(
            {at, entries[static_cast<std::size_t>(slot)].seq, slot});
        std::push_heap(timers.begin(), timers.end(), std::greater<>{});
    }
}

void
MemQueue::parkOnStore(int slot, int store, Cycle at)
{
    park(slot, Wait::Store, at);
    storeWaiters[static_cast<std::size_t>(store)].push_back(slot);
}

bool
MemQueue::live(const Timer &t) const
{
    const QueueEntry &e = entries[static_cast<std::size_t>(t.slot)];
    const LoadWait &w = loadWait[static_cast<std::size_t>(t.slot)];
    return e.valid && e.seq == t.seq && w.wakeAt == t.at &&
           (w.wait == Wait::Timed || w.wait == Wait::Store);
}

template <class F>
void
MemQueue::forEachByAge(const std::vector<std::uint64_t> &bits, F &&f)
{
    // Slots [head, capacity) are older than slots [0, head). Each word
    // is snapshot before its bits are visited: f may clear the bit it
    // is given, and never touches another.
    auto scan = [&](int lo, int hi) {
        for (int base = lo & ~63; base < hi; base += 64) {
            std::uint64_t word = bits[static_cast<std::size_t>(base) / 64];
            if (lo > base)
                word &= ~std::uint64_t{0} << (lo - base);
            if (hi - base < 64)
                word &= (std::uint64_t{1} << (hi - base)) - 1;
            for (; word; word &= word - 1)
                if (!f(base + std::countr_zero(word)))
                    return false;
        }
        return true;
    };
    if (scan(head, capacity))
        scan(0, head);
}

void
MemQueue::processLoad(int slot, Cycle now, InstSeq barrierSeq,
                      std::vector<LoadCompletion> &completions)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    auto complete = [&](Cycle at, std::uint8_t kind) {
        e.issued = true;
        e.completed = true;
        e.completeAt = at;
        e.servedKind = kind;
        e.servedAt = now;
        completions.push_back({slot, e.robIdx, at});
        unschedule(slot);
    };
    // Wait for store @p s's data: at its cycle once that is known, or
    // earlier if anything else happens to the store.
    auto awaitData = [&](const QueueEntry &s, int sSlot) {
        parkOnStore(slot, sSlot, s.dataReady ? s.dataReadyAt : kNoEvent);
    };

    // --- Fast data forwarding: may complete before addresses. ---
    if (e.fastFwdSlot >= 0) {
        QueueEntry &s =
            entries[static_cast<std::size_t>(e.fastFwdSlot)];
        if (s.valid && s.seq == e.fastFwdSeq && !s.cancelled) {
            if (s.dataReady && s.dataReadyAt <= now) {
                ++loadsFastForwarded;
                complete(now + policy.forwardLatency,
                         QueueEntry::kServedFastForward);
            } else {
                // Wait for the store's data; either way this load
                // never consults the cache.
                awaitData(s, e.fastFwdSlot);
            }
            return;
        }
        // The matched store left the queue (committed); its value is
        // in the cache now -- fall through to the normal path.
        e.fastFwdSlot = -1;
    }

    // --- Normal path: needs this load's address. ---
    if (!e.addrKnown) {
        park(slot, Wait::None); // setAddress wakes it.
        return;
    }
    if (e.addrKnownAt > now) {
        park(slot, Wait::Timed, e.addrKnownAt);
        return;
    }
    if (e.seq > barrierSeq) {
        park(slot, Wait::Barrier); // Charged a stall every tick.
        return;
    }

    // All older store addresses are known: the youngest overlapping
    // store decides (committed -> read the cache; covering -> forward
    // in-queue; partial overlap -> wait for its commit).
    int pos = positionOf(slot);
    int storeSlot = youngestOlderStore(e);
    if (storeSlot >= 0) {
        QueueEntry &st = entries[static_cast<std::size_t>(storeSlot)];
        if (!st.committed) {
            if (!e.coveredBy(st)) {
                // Partial overlap: wait for the store's commit.
                parkOnStore(slot, storeSlot, kNoEvent);
                return;
            }
            if (!(st.dataReady && st.dataReadyAt <= now)) {
                awaitData(st, storeSlot);
                return;
            }
            // As in sim-outorder, a load satisfied by in-queue
            // forwarding still issues through a cache port; only the
            // latency is the 1-cycle forward. (Fast data forwarding
            // above is what bypasses the port.)
            auto grant =
                scheduler.request(e.addr, AccessKind::Forward, pos);
            if (!grant.granted) {
                ++portDenials;
                if (grant.bankConflict)
                    ++bankConflicts;
                return; // Stays ready: ports reset next cycle.
            }
            e.combinedGrant = grant.combined;
            if (grant.combined)
                ++combinedAccesses;
            else
                scheduler.setGroupCompletion(
                    grant.groupId, now + policy.forwardLatency);
            ++loadsForwarded;
            complete(now + policy.forwardLatency,
                     QueueEntry::kServedForward);
            return;
        }
        // Committed: the value is already in the cache.
    }

    // Cache access, subject to port availability; a denied load stays
    // ready (ports reset next cycle).
    if (tryCacheAccess(e, pos, now)) {
        completions.push_back({slot, e.robIdx, e.completeAt});
        unschedule(slot);
    }
}

void
MemQueue::tick(Cycle now, std::vector<LoadCompletion> &completions,
               TickInfo *infoOut)
{
    scheduler.newCycle(now);
    if (now >= lastSampled + 64) {
        occupancyHist.sample(static_cast<std::uint64_t>(count));
        lastSampled = now;
    }

    // Advance the disambiguation barrier: drop released, cancelled
    // and address-resolved stores from the front. An address, once
    // known, never becomes unknown again, so popping is final. The
    // surviving front is the oldest store whose address is unknown as
    // of this cycle; exactly the loads younger than it are blocked —
    // the same set the original progressive walk blocked.
    while (!noAddrStores.empty()) {
        auto [slot, seq] = noAddrStores.front();
        const QueueEntry &st = entries[static_cast<std::size_t>(slot)];
        if (st.valid && st.seq == seq && !st.cancelled &&
            (!st.addrKnown || st.addrKnownAt > now))
            break;
        noAddrStores.pop_front();
    }
    InstSeq barrierSeq = ~InstSeq{0};
    Cycle barrierEvent = kNoEvent;
    if (!noAddrStores.empty()) {
        auto [slot, seq] = noAddrStores.front();
        const QueueEntry &st = entries[static_cast<std::size_t>(slot)];
        barrierSeq = seq;
        if (st.addrKnown) // In flight: resolves at a known cycle.
            barrierEvent = st.addrKnownAt;
    }

    // Wake what became due: the parked loads the barrier no longer
    // covers (the barrier only moves to younger stores), then the
    // expired timers.
    if (barrierParked != 0)
        forEachByAge(barrierBits, [&](int slot) {
            if (entries[static_cast<std::size_t>(slot)].seq > barrierSeq)
                return false;
            wake(slot);
            return true;
        });
    while (!timers.empty() && timers.front().at <= now) {
        Timer t = timers.front();
        std::pop_heap(timers.begin(), timers.end(), std::greater<>{});
        timers.pop_back();
        if (live(t))
            wake(t.slot);
    }

    // Examine the ready loads oldest-first: port requests keep the
    // age order of the original walk, so combining groups and bank
    // conflicts are unchanged.
    forEachByAge(readyBits, [&](int slot) {
        processLoad(slot, now, barrierSeq, completions);
        return true;
    });

    // Every load parked behind the barrier stalls this cycle.
    disambiguationStalls += barrierParked;

    if (!infoOut)
        return;
    TickInfo info;
    info.stalledLoads = barrierParked;
    if (barrierParked != 0)
        info.nextEvent = barrierEvent; // kNoEvent while the barrier
                                       // store's address generation
                                       // has not issued.
    while (!timers.empty() && !live(timers.front())) {
        std::pop_heap(timers.begin(), timers.end(), std::greater<>{});
        timers.pop_back();
    }
    if (!timers.empty())
        info.nextEvent = std::min(info.nextEvent, timers.front().at);
    for (std::uint64_t w : readyBits)
        if (w)
            info.nextEvent = std::min(info.nextEvent, now + 1); // Ports.
    *infoOut = info;
}

void
MemQueue::skipTo(Cycle from, Cycle to, std::uint64_t stalledLoads)
{
    if (to <= from)
        return;
    // The per-cycle model ticked every cycle in (from, to]: each tick
    // re-charged the same disambiguation stalls (nothing changes in a
    // quiescent window) and re-sampled occupancy once 64 cycles had
    // passed since the last sample. Occupancy is constant across the
    // window, so the catch-up samples all record the current count.
    disambiguationStalls += stalledLoads * (to - from);
    while (to >= lastSampled + 64) {
        occupancyHist.sample(static_cast<std::uint64_t>(count));
        lastSampled += 64;
    }
}

bool
MemQueue::commitStore(int slot, Cycle now)
{
    scheduler.newCycle(now);
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid || !e.isStore)
        panic("commitStore on a non-store queue slot");
    if (e.committed || e.cancelled)
        return true;

    auto grant =
        scheduler.request(e.addr, AccessKind::Store, positionOf(slot));
    if (!grant.granted) {
        ++portDenials;
        if (grant.bankConflict)
            ++bankConflicts;
        return false;
    }
    if (grant.combined) {
        ++combinedAccesses;
    } else {
        mem::Cache *target = e.missteered && altCache ? altCache : cache;
        Cycle start = e.missteered ? now + policy.mispredictPenalty : now;
        Cycle done = target->access(e.addr, true, start);
        scheduler.setGroupCompletion(grant.groupId, done);
    }
    e.committed = true;
    e.servedKind = QueueEntry::kServedCache;
    e.servedAt = now;
    e.combinedGrant = grant.combined;
    wakeWaitersOf(slot);
    extEvent = std::min(extEvent, now + 1); // Unblocks partial waits.
    return true;
}

void
MemQueue::release(int slot)
{
    QueueEntry &e = entries[static_cast<std::size_t>(slot)];
    if (!e.valid)
        panic("release of an invalid queue slot");
    if (slot != head)
        panic("queue entries must be released oldest-first "
              "(slot %d, head %d)", slot, head);
    if (e.isStore) {
        filterStore(e, -1);
        wakeWaitersOf(slot); // Fast-forward waiters fall through.
        // Releases run oldest-first, so this store is the front.
        if (!storesByAge.empty() && storesByAge.front() == slot)
            storesByAge.pop_front();
    } else {
        unschedule(slot);
    }
    e.valid = false;
    head = (head + 1) % capacity;
    --count;
}

double
MemQueue::queueSatisfiedFrac() const
{
    double fwd =
        loadsForwarded.report() + loadsFastForwarded.report();
    return stats::safeRatio(fwd, loadsTotal.report());
}

} // namespace ddsim::core
