/**
 * @file
 * Fault-model parameters.
 *
 * Everything the fault injector and the link-layer reliability machinery
 * need is collected in one aggregate so SystemConfig can carry it and a
 * bench can sweep it. All fault draws are made from per-link xoshiro
 * streams derived from a single seed (see FaultInjector), so a faulted
 * run is bit-identical at any --jobs value, same discipline as the
 * sweep runner.
 *
 * Fault classes, mirroring the failure modes the paper's budgets guard
 * against:
 *
 *  - Transient flit corruption. Each flit is corrupted with probability
 *    flitErrorProb(ber, kFlitBits) where the BER follows from the
 *    received optical power margin (phy/ber.hh): a link running fast on
 *    reduced light (low VOA level, low Vdd) sees more errors. berScale
 *    multiplies that physical BER; berFloor adds an operating-point
 *    independent BER floor (dirty connector, aging VCSEL) and is the
 *    natural sweep axis for the resilience bench.
 *
 *  - CDR loss of lock. The receiver's clock-data-recovery loses lock at
 *    a geometric rate and needs lockLossOutageCycles to relock; flits
 *    in flight during the outage are corrupted and the link is busy
 *    (modelled as a forced kFreqSwitch phase — same machinery as a
 *    retune).
 *
 *  - Hard link failure (VCSEL death / fiber cut). Permanent; in-flight
 *    flits are lost, the router port goes dead and adaptive routing
 *    routes around it. Either drawn at a geometric rate per link or
 *    scripted precisely via killLink/killCycle.
 *
 *  - Control-plane faults: a VOA response (laser power change) can be
 *    delayed (voaDelayFactor x nominal) or lost entirely; a lost
 *    command is re-issued after voaTimeoutCycles.
 *
 * Reliability layer: flits carry no CRC field. Each send draws
 * corruption from the link's BER and marks the in-flight entry
 * corrupt, standing in for a failed check at the receiver, which
 * NACKs; the sender holds each flit in a retransmission buffer until
 * ACKed and replays on NACK after a bounded exponential backoff
 * (retryBackoffBase doubling up to retryBackoffCap cycles).
 */

#ifndef OENET_FAULT_FAULT_HH
#define OENET_FAULT_FAULT_HH

#include <cstdint>

#include "common/types.hh"
#include "common/units.hh"

namespace oenet {

struct FaultParams
{
    /** Master switch. When false (default) no fault code runs and the
     *  simulator's output is byte-identical to a build without it. */
    bool enabled = false;

    /** Base seed of the per-link fault streams. 0 means "derive from
     *  the experiment's traffic seed" (runExperiment fills it in), so
     *  sweep points stay independently seeded and jobs-invariant. */
    std::uint64_t seed = 0;

    /** Multiplier on the physical margin-derived BER. */
    double berScale = 1.0;

    /** Additive BER floor independent of the operating point. */
    double berFloor = 0.0;

    /** Per-cycle probability a link's CDR loses lock. */
    double lockLossPerCycle = 0.0;

    /** Cycles a link is dark while the CDR relocks. */
    Cycle lockLossOutageCycles = 20;

    /** Per-cycle probability of a permanent link failure. */
    double hardFailPerCycle = 0.0;

    /** Scripted hard failure: link index to kill (kInvalid = none). */
    int killLink = kInvalid;

    /** Cycle at which the scripted failure strikes. */
    Cycle killCycle = 0;

    /** Probability a dispatched VOA command is slow. */
    double voaDelayProb = 0.0;

    /** Response-time multiplier for a slow VOA command. */
    double voaDelayFactor = 4.0;

    /** Probability a dispatched VOA command is lost outright. */
    double voaLossProb = 0.0;

    /** Cycles before a lost VOA command is re-issued. */
    Cycle voaTimeoutCycles = microsToCycles(400.0);

    /** Receiver-side cycles to check CRC and emit the ACK/NACK. */
    Cycle ackProcessingCycles = 2;

    /** First retransmission backoff, cycles; doubles per attempt. */
    Cycle retryBackoffBase = 4;

    /** Backoff ceiling, cycles. */
    Cycle retryBackoffCap = 256;

    /** Windowed flit error rate above which the DVS controller clamps
     *  the link: no further down-transitions. */
    double clampErrorRate = 0.05;

    /** When clamped, also force an up-transition toward full margin. */
    bool clampForceUp = true;

    /** Cycles after which a router reclaims a wormhole stranded by a
     *  dead input link (0 disables reclaim). */
    Cycle orphanTimeoutCycles = 4096;
};

} // namespace oenet

#endif // OENET_FAULT_FAULT_HH
