/**
 * @file
 * Per-line home-node bookkeeping shared by every directory scheme: the
 * FSM state, the acknowledgment counter, the pending requester and the
 * transaction-scoped scratch fields the per-scheme policy units
 * manipulate. One HomeLine per touched line, owned by the
 * MemoryController.
 */

#ifndef LIMITLESS_MEM_HOME_HOME_LINE_HH
#define LIMITLESS_MEM_HOME_HOME_LINE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "proto/packet.hh"
#include "proto/states.hh"
#include "sim/types.hh"

namespace limitless
{

/**
 * Requests a home parks while one of its lines is mid-transaction (see
 * MemParams::deferDepth). The list is only appended to, replayed and
 * cleared, and it is almost always empty, so it is a vector: an empty
 * one owns no heap storage, where a std::deque allocates its block map
 * on construction.
 */
using DeferredRequests = std::vector<PacketPtr>;

/** Re-inject @p parked at the head of @p queue, preserving their
 *  arrival order (they predate anything queued), and empty it. */
inline void
replayInto(DeferredRequests &parked, std::deque<PacketPtr> &queue)
{
    for (auto it = parked.rbegin(); it != parked.rend(); ++it)
        queue.push_front(std::move(*it));
    parked.clear();
}

/** The home side's per-line protocol state. */
struct HomeLine
{
    MemState state = MemState::readOnly;
    std::uint32_t ackCtr = 0;
    NodeId pending = invalidNode;
    bool dataSeen = false;        ///< RT: REPM data arrived
    NodeId evictVictim = invalidNode;
    /** Update-mode write in flight: complete with WACK, stay RO. */
    bool updWrite = false;
    std::uint64_t updOld = 0;
    /** Kernel-injected WUPD: no WACK wanted (fire and forget). */
    bool updSilent = false;
    /** WUPD against a dirty line: apply after the owner's data. */
    bool updApply = false;
    unsigned updWord = 0;
    std::uint8_t updKind = 0;
    std::uint64_t updValue = 0;
    /** RUNC in flight: answer without recording a pointer. */
    bool pendingUncached = false;
    /** Chained-walk bookkeeping. */
    NodeId walkTarget = invalidNode;
    NodeId repcRequester = invalidNode;
    /** Requests parked during a transaction (see MemParams). */
    DeferredRequests deferred;
};

} // namespace limitless

#endif // LIMITLESS_MEM_HOME_HOME_LINE_HH
