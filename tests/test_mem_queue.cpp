/**
 * @file
 * MemQueue tests: allocation/release discipline, disambiguation,
 * store-to-load forwarding, fast forwarding, port limits, combining
 * on the cache ports, and store commit behaviour; one test per wake
 * reason of the event-driven load scheduler; and seeded random
 * sequences checked cycle by cycle against a naive reference queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "config/machine_config.hh"
#include "core/fast_forward.hh"
#include "core/mem_queue.hh"
#include "isa/regs.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "stats/group.hh"
#include "util/log.hh"
#include "util/rng.hh"

using namespace ddsim;
using namespace ddsim::core;
namespace reg = ddsim::isa::reg;

namespace {

struct Rig
{
    stats::Group root{nullptr, ""};
    mem::MainMemory memory{&root, 50};
    mem::Cache cache;
    MemQueue q;
    InstSeq nextSeq = 0;
    std::vector<LoadCompletion> done;

    explicit Rig(QueuePolicy policy, int size = 16)
        : cache(&root, "c",
                config::CacheParams{2048, 1, 32, 1, policy.ports},
                &memory),
          q(&root, "q", size, &cache, nullptr, policy)
    {}

    int
    addLoad(RegId base = reg::sp, std::int32_t off = 0,
            std::uint32_t ver = 1, std::uint8_t size = 4)
    {
        InstSeq seq = nextSeq++;
        return q.allocate(seq, static_cast<int>(seq) + 1, true, size,
                          base, off, ver);
    }

    int
    addStore(RegId base = reg::sp, std::int32_t off = 0,
             std::uint32_t ver = 1, std::uint8_t size = 4)
    {
        InstSeq seq = nextSeq++;
        return q.allocate(seq, static_cast<int>(seq) + 1, false, size,
                          base, off, ver);
    }

    std::vector<LoadCompletion>
    tick(Cycle now)
    {
        done.clear();
        q.tick(now, done);
        return done;
    }
};

QueuePolicy
basicPolicy(int ports = 2)
{
    QueuePolicy p;
    p.ports = ports;
    p.combining = 1;
    p.fastForward = false;
    p.forwardLatency = 1;
    return p;
}

const Addr stackAddr = layout::StackBase - 256;

} // namespace

TEST(MemQueue, LoadIssuesOnceAddressKnown)
{
    Rig r(basicPolicy());
    int s = r.addLoad();
    EXPECT_TRUE(r.tick(0).empty());     // no address yet
    r.q.setAddress(s, stackAddr, 1, false);
    auto done = r.tick(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, s);
    // Cold miss: 1 (hit lat) + 50 (memory).
    EXPECT_EQ(done[0].readyAt, 1u + 1u + 50u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, AddressNotReadyUntilItsCycle)
{
    Rig r(basicPolicy());
    int s = r.addLoad();
    r.q.setAddress(s, stackAddr, 5, false);
    EXPECT_TRUE(r.tick(4).empty());
    EXPECT_EQ(r.tick(5).size(), 1u);
}

TEST(MemQueue, LoadBlockedByUnknownOlderStoreAddress)
{
    Rig r(basicPolicy());
    int st = r.addStore();
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 1, false);
    EXPECT_TRUE(r.tick(1).empty());     // store address unknown
    EXPECT_GT(r.q.disambiguationStalls.value(), 0u);
    r.q.setAddress(st, stackAddr + 64, 2, false);
    EXPECT_EQ(r.tick(2).size(), 1u);    // different line, proceeds
}

TEST(MemQueue, StoreToLoadForwarding)
{
    Rig r(basicPolicy());
    int st = r.addStore();
    int ld = r.addLoad();
    r.q.setAddress(st, stackAddr, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    r.q.setStoreData(st, 3);
    EXPECT_TRUE(r.tick(2).empty());     // data not ready until 3
    auto done = r.tick(3);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].readyAt, 4u);     // 1-cycle forward
    EXPECT_EQ(r.q.loadsForwarded.value(), 1u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 0u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, PartialOverlapWaitsForCommit)
{
    Rig r(basicPolicy());
    int st = r.addStore(reg::sp, 0, 1, 1); // byte store
    int ld = r.addLoad(reg::sp, 0, 1, 4);  // word load, overlaps
    r.q.setAddress(st, stackAddr + 1, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    r.q.setStoreData(st, 1);
    EXPECT_TRUE(r.tick(2).empty());     // cannot forward a partial
    EXPECT_TRUE(r.q.commitStore(st, 3));
    auto done = r.tick(4);
    ASSERT_EQ(done.size(), 1u);         // reads merged value from cache
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, PortLimitDelaysLoads)
{
    Rig r(basicPolicy(1));
    int a = r.addLoad(reg::sp, 0);
    int b = r.addLoad(reg::sp, 64);
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setAddress(b, stackAddr + 64, 1, false);
    auto first = r.tick(1);
    EXPECT_EQ(first.size(), 1u);        // one port -> one load
    EXPECT_GT(r.q.portDenials.value(), 0u);
    auto second = r.tick(2);
    EXPECT_EQ(second.size(), 1u);
}

TEST(MemQueue, TwoPortsServiceTwoLoads)
{
    Rig r(basicPolicy(2));
    int a = r.addLoad(reg::sp, 0);
    int b = r.addLoad(reg::sp, 64);
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setAddress(b, stackAddr + 64, 1, false);
    EXPECT_EQ(r.tick(1).size(), 2u);
}

TEST(MemQueue, CombiningLetsSameLineLoadsShareAPort)
{
    QueuePolicy p = basicPolicy(1);
    p.combining = 2;
    Rig r(p);
    int a = r.addLoad(reg::sp, 0);
    int b = r.addLoad(reg::sp, 4);
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setAddress(b, stackAddr + 4, 1, false); // same 32B line
    auto done = r.tick(1);
    EXPECT_EQ(done.size(), 2u);
    EXPECT_EQ(r.q.combinedAccesses.value(), 1u);
    EXPECT_EQ(r.cache.accesses.value(), 1u);    // one wide access
    // Both complete at the same time.
    EXPECT_EQ(done[0].readyAt, done[1].readyAt);
}

TEST(MemQueue, FastForwardCompletesBeforeAddressGeneration)
{
    QueuePolicy p = basicPolicy(2);
    p.fastForward = true;
    Rig r(p);
    int st = r.addStore(reg::sp, 8, 7);
    int ld = r.addLoad(reg::sp, 8, 7);  // offset-matched at allocate
    // Note: neither address has been computed.
    r.q.setStoreData(st, 2);
    auto done = r.tick(2);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, ld);
    EXPECT_EQ(done[0].readyAt, 3u);
    EXPECT_EQ(r.q.loadsFastForwarded.value(), 1u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, FastForwardDisabledByPolicy)
{
    Rig r(basicPolicy(2)); // fastForward = false
    r.addStore(reg::sp, 8, 7);
    int ld = r.addLoad(reg::sp, 8, 7);
    EXPECT_EQ(r.q.entry(ld).fastFwdSlot, -1);
}

TEST(MemQueue, FastForwardWaitsForStoreData)
{
    QueuePolicy p = basicPolicy(2);
    p.fastForward = true;
    Rig r(p);
    int st = r.addStore(reg::sp, 8, 7);
    r.addLoad(reg::sp, 8, 7);
    EXPECT_TRUE(r.tick(0).empty());
    r.q.setStoreData(st, 5);
    EXPECT_TRUE(r.tick(4).empty());
    EXPECT_EQ(r.tick(5).size(), 1u);
}

TEST(MemQueue, FastForwardFallsBackWhenStoreLeft)
{
    QueuePolicy p = basicPolicy(2);
    p.fastForward = true;
    Rig r(p);
    int st = r.addStore(reg::sp, 8, 7);
    int ld = r.addLoad(reg::sp, 8, 7);
    EXPECT_EQ(r.q.entry(ld).fastFwdSlot, st);
    // The store's address resolves, data arrives, it commits and
    // leaves the queue before the load fires.
    r.q.setAddress(st, stackAddr + 8, 1, false);
    r.q.setStoreData(st, 1);
    EXPECT_TRUE(r.q.commitStore(st, 2));
    r.q.release(st);
    // Now the load needs its own address and the cache.
    EXPECT_TRUE(r.tick(3).empty());
    r.q.setAddress(ld, stackAddr + 8, 4, false);
    auto done = r.tick(4);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
    EXPECT_EQ(r.q.loadsFastForwarded.value(), 0u);
}

TEST(MemQueue, StoreCommitNeedsPort)
{
    Rig r(basicPolicy(1));
    int a = r.addStore(reg::sp, 0);
    int b = r.addStore(reg::sp, 64);
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setAddress(b, stackAddr + 64, 1, false);
    r.q.setStoreData(a, 1);
    r.q.setStoreData(b, 1);
    EXPECT_TRUE(r.q.commitStore(a, 2));
    EXPECT_FALSE(r.q.commitStore(b, 2)); // port exhausted this cycle
    EXPECT_TRUE(r.q.commitStore(b, 3));
    EXPECT_EQ(r.cache.writeAccesses.value(), 2u);
}

TEST(MemQueue, CommittingStoreTwiceIsIdempotent)
{
    Rig r(basicPolicy(1));
    int a = r.addStore();
    r.q.setAddress(a, stackAddr, 1, false);
    r.q.setStoreData(a, 1);
    EXPECT_TRUE(r.q.commitStore(a, 2));
    EXPECT_TRUE(r.q.commitStore(a, 2));
    EXPECT_EQ(r.cache.writeAccesses.value(), 1u);
}

TEST(MemQueue, ReleaseMustBeInOrder)
{
    setQuiet(true);
    Rig r(basicPolicy());
    r.addLoad();
    int b = r.addLoad();
    EXPECT_THROW(r.q.release(b), PanicError);
}

TEST(MemQueue, FullAndOccupancy)
{
    Rig r(basicPolicy(), 2);
    EXPECT_FALSE(r.q.full());
    int a = r.addLoad();
    r.addLoad();
    EXPECT_TRUE(r.q.full());
    EXPECT_EQ(r.q.occupancy(), 2);
    r.q.release(a);
    EXPECT_FALSE(r.q.full());
    EXPECT_EQ(r.q.occupancy(), 1);
}

TEST(MemQueue, WrapAroundKeepsOrderAndMatching)
{
    // Exercise the circular buffer across several wrap-arounds.
    Rig r(basicPolicy(2), 4);
    for (int round = 0; round < 6; ++round) {
        int st = r.addStore(reg::sp, 0, 1);
        int ld = r.addLoad(reg::sp, 0, 1);
        Cycle base = static_cast<Cycle>(round) * 10 + 1;
        r.q.setAddress(st, stackAddr, base, false);
        r.q.setAddress(ld, stackAddr, base, false);
        r.q.setStoreData(st, base);
        auto done = r.tick(base + 1);
        ASSERT_EQ(done.size(), 1u) << "round " << round;
        EXPECT_TRUE(r.q.commitStore(st, base + 2));
        r.q.release(st);
        r.q.release(ld);
    }
    EXPECT_EQ(r.q.loadsForwarded.value(), 6u);
    EXPECT_EQ(r.q.occupancy(), 0);
}

TEST(MemQueue, PanicsOnBadSlotUsage)
{
    setQuiet(true);
    Rig r(basicPolicy(2));
    int ld = r.addLoad();
    EXPECT_THROW(r.q.setStoreData(ld, 1), PanicError);
    EXPECT_THROW(r.q.commitStore(ld, 1), PanicError);
}

// ---- Adversarial same-line traffic: many stores piled onto one
// address chunk stress the store index and the unknown-address
// barrier in ways the average workload never does.

TEST(MemQueue, SameLineOnlyYoungestOlderStoreForwards)
{
    Rig r(basicPolicy(2), 16);
    // Five word stores to the same address; only the youngest has
    // ready data. A covering load must forward from it.
    int st[5];
    for (int i = 0; i < 5; ++i) {
        st[i] = r.addStore();
        r.q.setAddress(st[i], stackAddr, 1, false);
    }
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 1, false);
    r.q.setStoreData(st[4], 1);
    auto done = r.tick(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slot, ld);
    EXPECT_EQ(r.q.loadsForwarded.value(), 1u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, SameLineYoungestWithoutDataBlocksLoad)
{
    Rig r(basicPolicy(2), 16);
    // The three older stores all have ready data, but the youngest
    // overlapping store decides — and its data is not ready, so the
    // load must wait (never forward stale data from an older store).
    int st[4];
    for (int i = 0; i < 4; ++i) {
        st[i] = r.addStore();
        r.q.setAddress(st[i], stackAddr, 1, false);
        if (i < 3)
            r.q.setStoreData(st[i], 1);
    }
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 1, false);
    EXPECT_TRUE(r.tick(1).empty());
    EXPECT_TRUE(r.tick(2).empty());
    r.q.setStoreData(st[3], 3);
    auto done = r.tick(3);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 1u);
}

TEST(MemQueue, BarrierTracksOldestUnknownStoreOutOfOrder)
{
    Rig r(basicPolicy(2), 16);
    // Four stores with unknown addresses; resolving them youngest
    // first must keep the load blocked until the *oldest* resolves.
    int st[4];
    for (int i = 0; i < 4; ++i)
        st[i] = r.addStore();
    int ld = r.addLoad(reg::sp, 128);
    r.q.setAddress(ld, stackAddr + 128, 1, false);
    for (int i = 3; i >= 1; --i) {
        EXPECT_TRUE(r.tick(static_cast<Cycle>(4 - i)).empty());
        r.q.setAddress(st[i], stackAddr + 8 * i,
                       static_cast<Cycle>(4 - i), false);
    }
    EXPECT_TRUE(r.tick(4).empty()); // st[0] still unknown
    EXPECT_EQ(r.q.disambiguationStalls.value(), 4u);
    r.q.setAddress(st[0], stackAddr, 5, false);
    auto done = r.tick(5); // disjoint addresses: cache access
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, ChunkSpanningStoreCoversLoadsOnBothSides)
{
    Rig r(basicPolicy(2), 16);
    // A word store straddling an 8-byte chunk boundary (bytes +6..+9)
    // must be visible to byte loads landing in either chunk.
    int st = r.addStore(reg::sp, 6, 1, 4);
    r.q.setAddress(st, stackAddr + 6, 1, false);
    r.q.setStoreData(st, 1);
    int lo = r.addLoad(reg::sp, 6, 1, 1);
    int hi = r.addLoad(reg::sp, 9, 1, 1);
    r.q.setAddress(lo, stackAddr + 6, 1, false);
    r.q.setAddress(hi, stackAddr + 9, 1, false);
    auto done = r.tick(1);
    EXPECT_EQ(done.size(), 2u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 2u);
    EXPECT_EQ(r.cache.accesses.value(), 0u);
}

TEST(MemQueue, CancelledSameLineStoreNeitherBlocksNorForwards)
{
    Rig r(basicPolicy(2), 16);
    // A cancelled replica with a never-resolved address must not act
    // as a barrier; a cancelled resolved store must not forward.
    int unresolved = r.addStore();
    int resolved = r.addStore();
    r.q.setAddress(resolved, stackAddr, 1, false);
    r.q.setStoreData(resolved, 1);
    r.q.cancel(unresolved);
    r.q.cancel(resolved);
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 1, false);
    auto done = r.tick(1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 0u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, ReleasedStoreLeavesTheIndex)
{
    Rig r(basicPolicy(2), 16);
    // Once a same-address store commits and releases, the load must
    // fall through to the cache (which now holds the value) instead
    // of chasing a stale index entry.
    int st = r.addStore();
    r.q.setAddress(st, stackAddr, 1, false);
    r.q.setStoreData(st, 1);
    EXPECT_TRUE(r.q.commitStore(st, 1));
    r.q.release(st);
    int ld = r.addLoad();
    r.q.setAddress(ld, stackAddr, 2, false);
    auto done = r.tick(2);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 0u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueue, QueueSatisfiedFraction)
{
    QueuePolicy p = basicPolicy(2);
    p.fastForward = true;
    Rig r(p);
    // One forwarded load, one cache load.
    int st = r.addStore(reg::sp, 8, 7);
    r.addLoad(reg::sp, 8, 7);
    int other = r.addLoad(reg::sp, 128, 7);
    r.q.setStoreData(st, 1);
    r.q.setAddress(st, stackAddr + 8, 1, false);
    r.q.setAddress(other, stackAddr + 128, 1, false);
    r.tick(1);
    r.tick(2);
    EXPECT_DOUBLE_EQ(r.q.queueSatisfiedFrac(), 0.5);
}

// ---- Wake reasons: the event-driven queue examines a waiting load
// only when the one thing it waits on resolves. Each test drives the
// queue the way cpu::Pipeline does (tick, then skip to the reported
// next event with skipTo) and pins the completion cycle, the next
// event and the disambiguation stall count.

namespace {

/** Tick @p r at @p now and return the tick summary. */
MemQueue::TickInfo
tickInfo(Rig &r, Cycle now)
{
    MemQueue::TickInfo info;
    r.done.clear();
    r.q.tick(now, r.done, &info);
    return info;
}

/** Leave the queue unticked through cycles (@p from, @p to). */
void
skipUntil(Rig &r, Cycle from, Cycle to, const MemQueue::TickInfo &info)
{
    r.q.skipTo(from, to - 1, info.stalledLoads);
}

} // namespace

TEST(MemQueueWake, OwnAddressArrival)
{
    Rig r(basicPolicy());
    int ld = r.addLoad();
    EXPECT_EQ(tickInfo(r, 1).nextEvent, kNoEvent); // Awaits setAddress.
    r.q.setAddress(ld, stackAddr, 5, false);
    EXPECT_EQ(r.q.takeExternalEvent(), 5u);
    MemQueue::TickInfo info = tickInfo(r, 2);
    EXPECT_TRUE(r.done.empty());
    EXPECT_EQ(info.nextEvent, 5u);
    skipUntil(r, 2, 5, info);
    tickInfo(r, 5);
    ASSERT_EQ(r.done.size(), 1u);
    EXPECT_EQ(r.done[0].readyAt, 5u + 1u + 50u); // Cold miss.
    EXPECT_EQ(r.q.disambiguationStalls.value(), 0u);
}

TEST(MemQueueWake, BarrierStoreAddress)
{
    Rig r(basicPolicy());
    int st = r.addStore();
    int ld = r.addLoad(reg::sp, 64);
    r.q.setAddress(ld, stackAddr + 64, 1, false);
    MemQueue::TickInfo info = tickInfo(r, 1);
    EXPECT_EQ(info.stalledLoads, 1u);
    EXPECT_EQ(info.nextEvent, kNoEvent); // Store's AGU not issued.
    tickInfo(r, 2);
    r.q.setAddress(st, stackAddr, 6, false); // Disjoint.
    info = tickInfo(r, 3);
    EXPECT_EQ(info.stalledLoads, 1u);
    EXPECT_EQ(info.nextEvent, 6u);
    EXPECT_EQ(r.q.disambiguationStalls.value(), 3u);
    skipUntil(r, 3, 6, info); // Cycles 4 and 5 stall too.
    EXPECT_EQ(r.q.disambiguationStalls.value(), 5u);
    info = tickInfo(r, 6);
    ASSERT_EQ(r.done.size(), 1u);
    EXPECT_EQ(r.done[0].slot, ld);
    EXPECT_EQ(r.done[0].readyAt, 6u + 1u + 50u);
    EXPECT_EQ(info.stalledLoads, 0u);
    EXPECT_EQ(r.q.disambiguationStalls.value(), 5u);
}

TEST(MemQueueWake, BarrierAdvancesStoreByStore)
{
    // Two unknown stores: resolving the older one moves the barrier
    // to the younger one, and the load keeps stalling until both are
    // known.
    Rig r(basicPolicy());
    int st0 = r.addStore();
    int st1 = r.addStore(reg::sp, 8);
    int ld = r.addLoad(reg::sp, 64);
    r.q.setAddress(ld, stackAddr + 64, 1, false);
    r.q.setAddress(st0, stackAddr, 2, false);
    MemQueue::TickInfo info = tickInfo(r, 1);
    EXPECT_EQ(info.nextEvent, 2u);
    info = tickInfo(r, 2); // st0 known; st1 is the barrier now.
    EXPECT_EQ(info.stalledLoads, 1u);
    EXPECT_EQ(info.nextEvent, kNoEvent);
    r.q.setAddress(st1, stackAddr + 8, 9, false);
    info = tickInfo(r, 3);
    EXPECT_EQ(info.nextEvent, 9u);
    skipUntil(r, 3, 9, info);
    tickInfo(r, 9);
    ASSERT_EQ(r.done.size(), 1u);
    EXPECT_EQ(r.done[0].slot, ld);
    EXPECT_EQ(r.done[0].readyAt, 9u + 1u + 50u);
    EXPECT_EQ(r.q.disambiguationStalls.value(), 8u); // Cycles 1-8.
}

TEST(MemQueueWake, FastForwardStoreData)
{
    QueuePolicy p = basicPolicy();
    p.fastForward = true;
    Rig r(p);
    int st = r.addStore(reg::sp, 8, 7);
    int ld = r.addLoad(reg::sp, 8, 7);
    EXPECT_EQ(tickInfo(r, 1).nextEvent, kNoEvent); // Data unknown.
    r.q.setStoreData(st, 7);
    EXPECT_EQ(r.q.takeExternalEvent(), 7u);
    MemQueue::TickInfo info = tickInfo(r, 2);
    EXPECT_EQ(info.nextEvent, 7u);
    skipUntil(r, 2, 7, info);
    tickInfo(r, 7);
    ASSERT_EQ(r.done.size(), 1u);
    EXPECT_EQ(r.done[0].slot, ld);
    EXPECT_EQ(r.done[0].readyAt, 8u);
    EXPECT_EQ(r.q.loadsFastForwarded.value(), 1u);
    EXPECT_EQ(r.q.disambiguationStalls.value(), 0u);
}

TEST(MemQueueWake, FastForwardIgnoresBarrier)
{
    // A fast-forwarded load never waits on disambiguation: an older
    // store with an unknown address does not stall it.
    QueuePolicy p = basicPolicy();
    p.fastForward = true;
    Rig r(p);
    r.addStore(reg::t0, 0, 1); // Unknown address, other base.
    int st = r.addStore(reg::sp, 8, 7);
    r.addLoad(reg::sp, 8, 7);
    r.q.setStoreData(st, 4);
    MemQueue::TickInfo info = tickInfo(r, 1);
    EXPECT_EQ(info.stalledLoads, 0u);
    EXPECT_EQ(info.nextEvent, 4u);
    skipUntil(r, 1, 4, info);
    tickInfo(r, 4);
    ASSERT_EQ(r.done.size(), 1u);
    EXPECT_EQ(r.done[0].readyAt, 5u);
    EXPECT_EQ(r.q.disambiguationStalls.value(), 0u);
}

TEST(MemQueueWake, ForwardingStoreData)
{
    Rig r(basicPolicy());
    int st = r.addStore();
    int ld = r.addLoad();
    r.q.setAddress(st, stackAddr, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    EXPECT_EQ(tickInfo(r, 1).nextEvent, kNoEvent); // Data unknown.
    r.q.setStoreData(st, 6);
    MemQueue::TickInfo info = tickInfo(r, 2);
    EXPECT_EQ(info.nextEvent, 6u);
    skipUntil(r, 2, 6, info);
    tickInfo(r, 6);
    ASSERT_EQ(r.done.size(), 1u);
    EXPECT_EQ(r.done[0].slot, ld);
    EXPECT_EQ(r.done[0].readyAt, 7u);
    EXPECT_EQ(r.q.loadsForwarded.value(), 1u);
    EXPECT_EQ(r.q.disambiguationStalls.value(), 0u);
}

TEST(MemQueueWake, PartialOverlapStoreCommit)
{
    Rig r(basicPolicy());
    int st = r.addStore(reg::sp, 0, 1, 1); // Byte store...
    int ld = r.addLoad(reg::sp, 0, 1, 4);  // ...inside a word load.
    r.q.setAddress(st, stackAddr + 1, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    r.q.setStoreData(st, 1);
    // The commit is an external push: no self-scheduled event.
    MemQueue::TickInfo info = tickInfo(r, 1);
    EXPECT_EQ(info.nextEvent, kNoEvent);
    r.q.takeExternalEvent();
    skipUntil(r, 1, 10, info);
    ASSERT_TRUE(r.q.commitStore(st, 10)); // Write miss: line at 61.
    EXPECT_EQ(r.q.takeExternalEvent(), 11u);
    tickInfo(r, 11);
    ASSERT_EQ(r.done.size(), 1u);
    EXPECT_EQ(r.done[0].slot, ld);
    EXPECT_EQ(r.done[0].readyAt, 61u); // Merges into the fill.
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
    EXPECT_EQ(r.q.disambiguationStalls.value(), 0u);
}

TEST(MemQueueWake, PartialOverlapStoreCancel)
{
    // A Replicate cancel of the overlapping store releases the load to
    // the cache at the next tick.
    Rig r(basicPolicy());
    int st = r.addStore(reg::sp, 0, 1, 1);
    int ld = r.addLoad(reg::sp, 0, 1, 4);
    r.q.setAddress(st, stackAddr + 1, 1, false);
    r.q.setAddress(ld, stackAddr, 1, false);
    MemQueue::TickInfo info = tickInfo(r, 1);
    EXPECT_EQ(info.nextEvent, kNoEvent);
    skipUntil(r, 1, 4, info);
    r.q.cancel(st);
    EXPECT_EQ(r.q.takeExternalEvent(), 0u);
    tickInfo(r, 4);
    ASSERT_EQ(r.done.size(), 1u);
    EXPECT_EQ(r.done[0].slot, ld);
    EXPECT_EQ(r.done[0].readyAt, 4u + 1u + 50u);
    EXPECT_EQ(r.q.disambiguationStalls.value(), 0u);
}

TEST(MemQueueWake, FastForwardStoreRelease)
{
    // The fast-forward source commits and leaves without its data ever
    // arriving (the queue allows it; the pipeline never does it): the
    // release wakes the load onto the normal path.
    QueuePolicy p = basicPolicy();
    p.fastForward = true;
    Rig r(p);
    int st = r.addStore(reg::sp, 8, 7);
    int ld = r.addLoad(reg::sp, 8, 7);
    r.q.setAddress(ld, stackAddr + 8, 1, false);
    r.q.setAddress(st, stackAddr + 72, 1, false); // Another line.
    EXPECT_EQ(tickInfo(r, 1).nextEvent, kNoEvent);
    ASSERT_TRUE(r.q.commitStore(st, 1));
    EXPECT_EQ(tickInfo(r, 2).nextEvent, kNoEvent); // Still bound.
    EXPECT_TRUE(r.done.empty());
    r.q.release(st);
    tickInfo(r, 3);
    ASSERT_EQ(r.done.size(), 1u);
    EXPECT_EQ(r.done[0].slot, ld);
    EXPECT_EQ(r.done[0].readyAt, 3u + 1u + 50u);
    EXPECT_EQ(r.q.loadsFastForwarded.value(), 0u);
    EXPECT_EQ(r.q.loadsFromCache.value(), 1u);
}

TEST(MemQueueWake, DeniedPortRetriesEveryCycle)
{
    Rig r(basicPolicy(1));
    int a = r.addLoad(reg::sp, 0);
    int b = r.addLoad(reg::sp, 64);
    int c = r.addLoad(reg::sp, 128);
    for (int s : {a, b, c})
        r.q.setAddress(s, stackAddr + 64 * (s - a), 1, false);
    for (Cycle now = 1; now <= 3; ++now) {
        MemQueue::TickInfo info = tickInfo(r, now);
        ASSERT_EQ(r.done.size(), 1u) << now;
        EXPECT_EQ(r.done[0].slot, a + static_cast<int>(now) - 1);
        EXPECT_EQ(r.done[0].readyAt, now + 1u + 50u);
        EXPECT_EQ(info.nextEvent, now < 3 ? now + 1 : kNoEvent);
    }
    EXPECT_EQ(r.q.portDenials.value(), 3u); // b at 1, c at 1 and 2.
    EXPECT_EQ(r.q.disambiguationStalls.value(), 0u);
}

// ---- Seeded random sequences against a naive reference queue that
// visits every resident load every cycle and answers every question
// by scanning the whole queue: the model the event-driven MemQueue
// must reproduce completion for completion and counter for counter.

namespace {

/** The test-only naive model of one memory access queue. */
class NaiveQueue
{
  public:
    struct Counters
    {
        std::uint64_t allocated = 0, loads = 0, stores = 0,
                      forwarded = 0, fastForwarded = 0, fromCache = 0,
                      combined = 0, portDenials = 0, bankConflicts = 0,
                      stalls = 0, missteered = 0, cancelled = 0;
        std::vector<std::uint64_t> occupancySamples;
    } c;

    NaiveQueue(int size, mem::Cache *cache, mem::Cache *altCache,
               const QueuePolicy &policy)
        : capacity(size), cache(cache), altCache(altCache),
          policy(policy), entries(static_cast<std::size_t>(size)),
          scheduler(policy.ports, policy.combining,
                    cache->params().lineBytes, policy.banks)
    {}

    int
    allocate(InstSeq seq, int robIdx, bool isLoad, std::uint8_t size,
             RegId base, std::int32_t offset, std::uint32_t version)
    {
        int slot = (head + count) % capacity;
        ++count;
        ++c.allocated;
        QueueEntry &e = at(slot);
        e = QueueEntry{};
        e.valid = true;
        e.seq = seq;
        e.robIdx = robIdx;
        e.isLoad = isLoad;
        e.isStore = !isLoad;
        e.size = size;
        e.baseReg = base;
        e.offset = offset;
        e.baseVersion = version;
        if (!isLoad) {
            ++c.stores;
            return slot;
        }
        ++c.loads;
        if (policy.fastForward) {
            std::vector<int> older; // Youngest first.
            for (int p = count - 2; p >= 0; --p)
                older.push_back((head + p) % capacity);
            int match = findFastForwardStore(entries, older, e);
            if (match >= 0) {
                e.fastFwdSlot = match;
                e.fastFwdSeq = at(match).seq;
            }
        }
        return slot;
    }

    void
    setAddress(int slot, Addr addr, Cycle when, bool missteered)
    {
        QueueEntry &e = at(slot);
        e.addr = addr;
        e.addrKnown = true;
        e.addrKnownAt = when;
        if (missteered) {
            e.missteered = true;
            ++c.missteered;
        }
    }

    void
    setStoreData(int slot, Cycle readyAt)
    {
        at(slot).dataReady = true;
        at(slot).dataReadyAt = readyAt;
    }

    void
    cancel(int slot)
    {
        if (!at(slot).cancelled)
            ++c.cancelled;
        at(slot).cancelled = true;
    }

    void
    release(int slot)
    {
        at(slot).valid = false;
        head = (head + 1) % capacity;
        --count;
    }

    bool
    commitStore(int slot, Cycle now)
    {
        scheduler.newCycle(now);
        QueueEntry &e = at(slot);
        if (e.committed || e.cancelled)
            return true;
        auto g = scheduler.request(e.addr, AccessKind::Store,
                                   position(slot));
        if (!deny(g)) {
            if (g.combined) {
                ++c.combined;
            } else {
                scheduler.setGroupCompletion(
                    g.groupId, access(e, true, now));
            }
            e.committed = true;
            return true;
        }
        return false;
    }

    /** One cycle: every resident load, oldest first. */
    MemQueue::TickInfo
    tick(Cycle now, std::vector<LoadCompletion> &done)
    {
        scheduler.newCycle(now);
        if (now >= lastSampled + 64) {
            c.occupancySamples.push_back(
                static_cast<std::uint64_t>(count));
            lastSampled = now;
        }
        MemQueue::TickInfo info;
        auto want = [&info](Cycle t) {
            info.nextEvent = std::min(info.nextEvent, t);
        };
        for (int p = 0; p < count; ++p) {
            int slot = (head + p) % capacity;
            QueueEntry &e = at(slot);
            if (!e.isLoad || e.cancelled || e.issued)
                continue;
            if (e.fastFwdSlot >= 0) {
                const QueueEntry &s = at(e.fastFwdSlot);
                if (s.valid && s.seq == e.fastFwdSeq && !s.cancelled) {
                    if (s.dataReady && s.dataReadyAt <= now) {
                        ++c.fastForwarded;
                        finish(e, slot, now + policy.forwardLatency, done);
                    } else if (s.dataReady) {
                        want(s.dataReadyAt);
                    }
                    continue;
                }
                e.fastFwdSlot = -1;
            }
            if (!e.addrKnown)
                continue;
            if (e.addrKnownAt > now) {
                want(e.addrKnownAt);
                continue;
            }
            // Disambiguation: every older live store's address must
            // be known by now.
            const QueueEntry *blocker = nullptr;
            for (int q = 0; q < p && !blocker; ++q) {
                const QueueEntry &s = at((head + q) % capacity);
                if (s.isStore && !s.cancelled &&
                    (!s.addrKnown || s.addrKnownAt > now))
                    blocker = &s;
            }
            if (blocker) {
                ++c.stalls;
                ++info.stalledLoads;
                if (blocker->addrKnown)
                    want(blocker->addrKnownAt);
                continue;
            }
            // The youngest older overlapping live store decides.
            const QueueEntry *st = nullptr;
            for (int q = p - 1; q >= 0 && !st; --q) {
                const QueueEntry &s = at((head + q) % capacity);
                if (s.isStore && !s.cancelled && s.size != 0 &&
                    s.overlaps(e))
                    st = &s;
            }
            if (st && !st->committed) {
                if (!e.coveredBy(*st))
                    continue;
                if (!(st->dataReady && st->dataReadyAt <= now)) {
                    if (st->dataReady)
                        want(st->dataReadyAt);
                    continue;
                }
                auto g = scheduler.request(e.addr, AccessKind::Forward, p);
                if (deny(g)) {
                    want(now + 1);
                    continue;
                }
                Cycle readyAt = now + policy.forwardLatency;
                if (g.combined)
                    ++c.combined;
                else
                    scheduler.setGroupCompletion(g.groupId, readyAt);
                ++c.forwarded;
                finish(e, slot, readyAt, done);
                continue;
            }
            auto g = scheduler.request(e.addr, AccessKind::Load, p);
            if (deny(g)) {
                want(now + 1);
                continue;
            }
            Cycle readyAt;
            if (g.combined) {
                ++c.combined;
                readyAt = scheduler.groupCompletion(g.groupId);
            } else {
                readyAt = access(e, false, now);
                scheduler.setGroupCompletion(g.groupId, readyAt);
            }
            ++c.fromCache;
            finish(e, slot, readyAt, done);
        }
        return info;
    }

    const QueueEntry &entry(int slot) const
    {
        return entries[static_cast<std::size_t>(slot)];
    }

  private:
    int capacity;
    mem::Cache *cache;
    mem::Cache *altCache;
    QueuePolicy policy;
    std::vector<QueueEntry> entries;
    PortScheduler scheduler;
    int head = 0;
    int count = 0;
    Cycle lastSampled = 0;

    QueueEntry &at(int slot)
    {
        return entries[static_cast<std::size_t>(slot)];
    }
    int position(int slot) const
    {
        return (slot - head + capacity) % capacity;
    }
    bool
    deny(const PortScheduler::Grant &g)
    {
        if (g.granted)
            return false;
        ++c.portDenials;
        if (g.bankConflict)
            ++c.bankConflicts;
        return true;
    }
    Cycle
    access(const QueueEntry &e, bool write, Cycle now)
    {
        mem::Cache *target = e.missteered && altCache ? altCache : cache;
        return target->access(
            e.addr, write,
            e.missteered ? now + policy.mispredictPenalty : now);
    }
    static void
    finish(QueueEntry &e, int slot, Cycle readyAt,
           std::vector<LoadCompletion> &done)
    {
        e.issued = true;
        e.completed = true;
        e.completeAt = readyAt;
        done.push_back({slot, e.robIdx, readyAt});
    }
};

/** The event-driven queue and the naive one, side by side. */
struct Twin
{
    stats::Group root{nullptr, ""};
    mem::MainMemory memA{&root, 20}, memB{&root, 20};
    mem::Cache cacheA, altA, cacheB, altB;
    MemQueue q;
    NaiveQueue ref;

    Twin(const QueuePolicy &p, int size, const config::CacheParams &cp)
        : cacheA(&root, "ca", cp, &memA), altA(&root, "aa", cp, &memA),
          cacheB(&root, "cb", cp, &memB), altB(&root, "ab", cp, &memB),
          q(&root, "q", size, &cacheA, &altA, p),
          ref(size, &cacheB, &altB, p)
    {}

    void
    expectSameCounters(const std::string &where) const
    {
        SCOPED_TRACE(where);
        const NaiveQueue::Counters &c = ref.c;
        EXPECT_EQ(q.allocated.value(), c.allocated);
        EXPECT_EQ(q.loadsTotal.value(), c.loads);
        EXPECT_EQ(q.storesTotal.value(), c.stores);
        EXPECT_EQ(q.loadsForwarded.value(), c.forwarded);
        EXPECT_EQ(q.loadsFastForwarded.value(), c.fastForwarded);
        EXPECT_EQ(q.loadsFromCache.value(), c.fromCache);
        EXPECT_EQ(q.combinedAccesses.value(), c.combined);
        EXPECT_EQ(q.portDenials.value(), c.portDenials);
        EXPECT_EQ(q.bankConflicts.value(), c.bankConflicts);
        EXPECT_EQ(q.disambiguationStalls.value(), c.stalls);
        EXPECT_EQ(q.missteeredAccesses.value(), c.missteered);
        EXPECT_EQ(q.cancelledReplicas.value(), c.cancelled);
        ASSERT_EQ(q.occupancyHist.samples(), c.occupancySamples.size());
        std::vector<std::uint64_t> buckets(
            static_cast<std::size_t>(q.occupancyHist.numBuckets()), 0);
        for (std::uint64_t v : c.occupancySamples)
            ++buckets.at(v);
        for (int i = 0; i < q.occupancyHist.numBuckets(); ++i)
            EXPECT_EQ(q.occupancyHist.bucket(i),
                      buckets[static_cast<std::size_t>(i)])
                << "occupancy bucket " << i;
        EXPECT_EQ(cacheA.accesses.value(), cacheB.accesses.value());
        EXPECT_EQ(altA.accesses.value(), altB.accesses.value());
    }
};

/** One random scenario; adds the loads it completed to @p completed. */
void
runRandomScenario(std::uint64_t seed, std::uint64_t &completed)
{
    Rng rng(seed);
    auto pick = [&rng](int n) {
        return static_cast<int>(rng.next() % static_cast<unsigned>(n));
    };
    QueuePolicy p;
    p.ports = 1 + pick(3);
    p.combining = 1 + pick(3);
    p.banks = pick(3) == 0 ? 2 << pick(2) : 0;
    p.fastForward = pick(2) == 0;
    p.forwardLatency = 1 + static_cast<Cycle>(pick(2));
    p.mispredictPenalty = static_cast<Cycle>(pick(6));
    int size = 4 + pick(29);
    config::CacheParams cp{1024, 2, 32, 1 + static_cast<Cycle>(pick(2)),
                           p.ports};
    cp.banks = p.banks;
    Twin t(p, size, cp);
    SCOPED_TRACE("seed " + std::to_string(seed) + " ports " +
                 std::to_string(p.ports) + " C " +
                 std::to_string(p.combining) + " banks " +
                 std::to_string(p.banks) + " ff " +
                 std::to_string(p.fastForward) + " size " +
                 std::to_string(size));

    struct Op
    {
        int slot;
        bool isLoad;
        Addr addr;
        bool addrSent = false;
        bool dataSent = false;
    };
    std::deque<Op> ops; // Resident, oldest first.
    InstSeq nextSeq = 0;
    std::vector<LoadCompletion> doneA, doneB;
    const RegId bases[] = {reg::sp, reg::t0};

    for (Cycle now = 1; now < 3000; ++now) {
        // Memory stage.
        doneA.clear();
        doneB.clear();
        MemQueue::TickInfo info;
        t.q.tick(now, doneA, &info);
        MemQueue::TickInfo refInfo = t.ref.tick(now, doneB);
        ASSERT_EQ(doneA.size(), doneB.size()) << "cycle " << now;
        for (std::size_t i = 0; i < doneA.size(); ++i) {
            EXPECT_EQ(doneA[i].slot, doneB[i].slot) << "cycle " << now;
            EXPECT_EQ(doneA[i].readyAt, doneB[i].readyAt)
                << "cycle " << now;
        }
        ASSERT_EQ(info.nextEvent, refInfo.nextEvent) << "cycle " << now;
        ASSERT_EQ(info.stalledLoads, refInfo.stalledLoads)
            << "cycle " << now;
        completed += doneA.size();

        // Commit stage: retire finished heads, oldest first.
        for (int k = 0; k < 2 && !ops.empty(); ++k) {
            const Op &h = ops.front();
            const QueueEntry &e = t.q.entry(h.slot);
            if (h.isLoad) {
                if (!e.cancelled && !(e.completed && e.completeAt <= now))
                    break;
            } else if (!e.cancelled) {
                if (!(e.addrKnown && e.addrKnownAt <= now &&
                      e.dataReady && e.dataReadyAt <= now))
                    break;
                bool a = t.q.commitStore(h.slot, now);
                ASSERT_EQ(a, t.ref.commitStore(h.slot, now));
                if (!a)
                    break;
            }
            t.q.release(h.slot);
            t.ref.release(h.slot);
            ops.pop_front();
        }

        // Issue stage: addresses, store data, Replicate cancels.
        for (Op &o : ops) {
            const QueueEntry &e = t.q.entry(o.slot);
            if (e.cancelled || e.completed)
                continue;
            if (!o.addrSent && pick(4) == 0) {
                bool miss = pick(10) == 0;
                Cycle when = now + 1 + static_cast<Cycle>(pick(3));
                t.q.setAddress(o.slot, o.addr, when, miss);
                t.ref.setAddress(o.slot, o.addr, when, miss);
                o.addrSent = true;
            }
            if (!o.isLoad && !o.dataSent && pick(5) == 0) {
                Cycle at = now + static_cast<Cycle>(pick(6)) - 1;
                t.q.setStoreData(o.slot, at);
                t.ref.setStoreData(o.slot, at);
                o.dataSent = true;
            }
            if (!e.committed && pick(60) == 0) {
                t.q.cancel(o.slot);
                t.ref.cancel(o.slot);
            }
        }

        // Dispatch: same-base accesses at a few frame offsets, so
        // fast forwarding, forwarding and partial overlaps all occur.
        for (int k = pick(3); k > 0 && t.q.occupancy() < size; --k) {
            bool isLoad = pick(5) < 3;
            RegId base = bases[pick(4) == 0 ? 1 : 0];
            auto off = static_cast<std::int32_t>(4 * pick(6));
            std::uint8_t width = pick(4) == 0 ? 1 : 4;
            Addr addr = stackAddr + (base == reg::sp ? 0 : 4096) +
                        static_cast<Addr>(off) + (width == 1 ? 1 : 0);
            auto version = static_cast<std::uint32_t>(now / 40);
            InstSeq seq = nextSeq++;
            int a = t.q.allocate(seq, static_cast<int>(seq), isLoad,
                                 width, base, off, version);
            int b = t.ref.allocate(seq, static_cast<int>(seq), isLoad,
                                   width, base, off, version);
            ASSERT_EQ(a, b);
            ASSERT_EQ(t.q.entry(a).fastFwdSlot, t.ref.entry(b).fastFwdSlot);
            ops.push_back({a, isLoad, addr});
        }

        // Sometimes leave the queue unticked up to its next event,
        // as the pipeline's skip-ahead does, while the reference
        // keeps ticking every cycle.
        Cycle ext = t.q.takeExternalEvent();
        Cycle target = std::min(info.nextEvent, ext);
        if (pick(3) == 0 && target > now + 1 && target != kNoEvent &&
            target - now < 200) {
            t.q.skipTo(now, target - 1, info.stalledLoads);
            for (Cycle c = now + 1; c < target; ++c) {
                doneB.clear();
                t.ref.tick(c, doneB);
                ASSERT_TRUE(doneB.empty()) << "skipped cycle " << c;
            }
            now = target - 1;
        }
    }
    t.expectSameCounters("end");
}

} // namespace

TEST(MemQueueRandom, MatchesNaiveReferenceEveryCycle)
{
    std::uint64_t completed = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        runRandomScenario(seed, completed);
        if (::testing::Test::HasFatalFailure() ||
            ::testing::Test::HasFailure())
            break;
    }
    EXPECT_GT(completed, 10000u); // The scenarios do real work.
}
