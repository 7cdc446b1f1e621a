/**
 * @file
 * Interfaces between a link and the entities at its two ends.
 *
 * CreditSink: the upstream sender of a link tracks credits for the
 * downstream input buffer; when the receiver drains a flit it returns a
 * credit through this interface. Implementations apply the credit with a
 * one-cycle delay so results do not depend on tick ordering.
 *
 * OccupancyProvider: the power-aware policy needs the downstream input
 * buffer utilization B_u (Section 3.3). Receivers expose the
 * time-integral of their buffer occupancy so the controller can compute
 * exact window averages without per-cycle sampling. Architecturally this
 * is the same information the sender's credit counters carry.
 */

#ifndef OENET_LINK_ENDPOINTS_HH
#define OENET_LINK_ENDPOINTS_HH

#include <cstdint>

#include "common/types.hh"

namespace oenet {

/**
 * Running flit and credit counts of one shard domain, kept by the
 * routers, nodes and links the Network assigns to it, so the
 * conservation audit's settle loop reads the whole fabric in O(shards)
 * (Network::fabricFlits, Network::pendingCredits). Only the domain's
 * own thread writes it during a parallel phase, and the driving thread
 * between phases; one cache line each, so shards do not share one.
 */
struct alignas(64) ShardTally
{
    /** Flits that entered the fabric (left a source queue, or were
     *  synthesized as poison tails) minus those that left it
     *  (ejected, retired, dropped). One shard's count may go negative:
     *  a flit can enter in one shard and leave in another. */
    std::int64_t fabricFlits = 0;
    /** Credits returned to a router or node and not yet applied. */
    std::int64_t pendingCredits = 0;
};

/** Count @p delta flits into (or out of) @p tally's fabric; a null
 *  tally (a component outside a Network) keeps none. */
inline void
tallyFlits(ShardTally *tally, std::int64_t delta)
{
    if (tally != nullptr)
        tally->fabricFlits += delta;
}

/** Same for returned-but-unapplied credits. */
inline void
tallyCredits(ShardTally *tally, std::int64_t delta)
{
    if (tally != nullptr)
        tally->pendingCredits += delta;
}

class CreditSink
{
  public:
    virtual ~CreditSink() = default;

    /** Return one credit for @p vc of the sender's output @p port.
     *  Takes effect at cycle @p now + 1. */
    virtual void returnCredit(int port, int vc, Cycle now) = 0;
};

class OccupancyProvider
{
  public:
    virtual ~OccupancyProvider() = default;

    /** Time-integral (flit-cycles) of buffer occupancy at input
     *  @p port since simulation start, evaluated at @p now. */
    virtual double occupancyIntegral(int port, Cycle now) const = 0;

    /** Total flit capacity of the input buffer at @p port. */
    virtual int bufferCapacity(int port) const = 0;
};

} // namespace oenet

#endif // OENET_LINK_ENDPOINTS_HH
