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

#include "common/types.hh"

namespace oenet {

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
