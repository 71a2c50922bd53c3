/**
 * @file
 * Fast data forwarding (Section 2.2.2): match a load to an older store
 * in the LVAQ *by offset*, before either effective address has been
 * computed. Within a function frame the stack pointer does not change,
 * so two accesses with the same base register, the same version of
 * that register's value and the same offset are guaranteed to alias —
 * no later verification is required.
 */

#ifndef DDSIM_CORE_FAST_FORWARD_HH_
#define DDSIM_CORE_FAST_FORWARD_HH_

#include <cstdint>
#include <vector>

#include "core/queue_entry.hh"

namespace ddsim::core {

/**
 * Byte ranges [offset, offset+size) of @p store and @p load disjoint?
 */
inline bool
disjointByOffset(const QueueEntry &store, const QueueEntry &load)
{
    std::int64_t sLo = store.offset;
    std::int64_t sHi = sLo + store.size;
    std::int64_t lLo = load.offset;
    std::int64_t lHi = lLo + load.size;
    return sHi <= lLo || lHi <= sLo;
}

/**
 * Scan older queue entries for a store the load can fast-forward from.
 *
 * @param entries Physical queue storage.
 * @param olderSlots Slots older than the load, youngest first (any
 *        range of slot indices, e.g. a reversed view of the queue's
 *        store list, so no candidate list is copied per load).
 * @param load The just-dispatched load.
 * @return The slot of the matched store, or -1.
 *
 * The scan stops conservatively at the first older store whose
 * relationship to the load cannot be proven from static information:
 * a store with a different base register or a different base-register
 * version. Stores with the same base+version but a provably disjoint
 * byte range are skipped.
 */
template <class SlotRange>
int
findFastForwardStore(const std::vector<QueueEntry> &entries,
                     const SlotRange &olderSlots, const QueueEntry &load)
{
    for (int slot : olderSlots) {
        const QueueEntry &e = entries[static_cast<std::size_t>(slot)];
        if (!e.valid || e.cancelled || !e.isStore)
            continue;

        bool sameBase = e.baseReg == load.baseReg &&
                        e.baseVersion == load.baseVersion;
        if (!sameBase) {
            // Unknown aliasing relationship: the hardware cannot prove
            // anything from the offset fields -- stop the scan.
            return -1;
        }
        if (e.offset == load.offset && e.size == load.size) {
            // Exact match: guaranteed same address, forward from here.
            return slot;
        }
        if (!disjointByOffset(e, load)) {
            // Partial overlap within the frame: cannot forward.
            return -1;
        }
        // Provably disjoint frame slots: keep scanning older stores.
    }
    return -1;
}

} // namespace ddsim::core

#endif // DDSIM_CORE_FAST_FORWARD_HH_
