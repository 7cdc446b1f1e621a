/**
 * @file
 * LinkPowerLedger — struct-of-arrays power accounting for every link
 * of one simulated system, and the only place link power is
 * integrated.
 *
 * Each OpticalLink owns one row, registered at construction: the link
 * *writes* every power change into its row (updateDynamic) and reads
 * its power, energy and flit count back from it. Epoch work — power
 * snapshots, the end-of-run energy aggregation — is then a sequential
 * scan over flat columns instead of a pointer walk over every link.
 *
 * It is also where the leakage + thermal model (phy/thermal.hh) lives:
 * per-link junction temperature, leakage power, and their integrals
 * are ledger columns updated in one batched pass per thermal epoch —
 * never per cycle — alongside per-VC flit counters used to attribute
 * link energy to virtual channels in snapshots and CSV reports.
 *
 * Determinism contract (docs/DETERMINISM.md §3, §5, §6):
 *
 *  - A row is written only by code that already mutates its link: the
 *    shard that owns the link's sender during a parallel phase (a
 *    fault-attached inter-router link's receiver walk runs at the end
 *    of its source router's tick, on the sender's shard too), or the
 *    driving thread between phases. No column is ever written
 *    concurrently (TSan-checked by the sharded CI smokes).
 *  - updateDynamic folds exactly as TimeWeighted::update does — same
 *    operands, same order — so every integral has the bits of the
 *    per-link integrator it replaced.
 *  - advanceThermal() and every total*() aggregate run on the driving
 *    thread between phases and fold in link-id order, so sums are
 *    shard-count invariant.
 *  - With thermal disabled every leakage column stays exactly 0.0 and
 *    no aggregate adds a leakage term, keeping leakage-off outputs
 *    byte-identical to the pre-ledger era.
 */

#ifndef OENET_PHY_POWER_LEDGER_HH
#define OENET_PHY_POWER_LEDGER_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "phy/thermal.hh"

namespace oenet {

class LinkPowerLedger
{
  public:
    /** @p num_vcs sizes every link's per-VC flit row; @p vmax_v is the
     *  full supply the vdd fractions are relative to (the paper's
     *  1.8 V). The defaults (thermal model off) suit a standalone
     *  link. */
    explicit LinkPowerLedger(int num_vcs,
                             const ThermalParams &thermal = ThermalParams{},
                             double vmax_v = 1.8);

    /** Register one link (id = registration order = the network's link
     *  index). @p kind_index is the LinkKind as an int. */
    int addLink(int kind_index, double baseline_mw, int level,
                double initial_mw, double initial_vdd_frac);

    int numLinks() const { return static_cast<int>(dynMw_.size()); }
    int numVcs() const { return numVcs_; }
    bool thermalEnabled() const { return thermal_.enabled; }
    const ThermalParams &thermal() const { return thermal_; }

    // ------------------------------------------------------------------
    // Producer side (the owning link; see determinism note above)
    // ------------------------------------------------------------------

    /** Dynamic power changed to @p mw at @p at. The fold of
     *  TimeWeighted::update — same operands, same order. */
    void updateDynamic(int id, Cycle at, double mw, double vdd_frac)
    {
        auto i = static_cast<std::size_t>(id);
        if (at < dynLast_[i])
            panic("LinkPowerLedger: link %d time went backwards "
                  "(%llu < %llu)",
                  id, static_cast<unsigned long long>(at),
                  static_cast<unsigned long long>(dynLast_[i]));
        dynMwCycles_[i] +=
            dynMw_[i] * static_cast<double>(at - dynLast_[i]);
        dynLast_[i] = at;
        dynMw_[i] = mw;
        vddFrac_[i] = vdd_frac;
    }

    /** Restart the dynamic and leakage integrals and the per-VC/total
     *  flit counters at @p at (OpticalLink::resetStats). */
    void resetDynamic(int id, Cycle at);

    /** The link's stable (or transition-target) level changed. */
    void setLevel(int id, int level)
    {
        brLevel_[static_cast<std::size_t>(id)] = level;
    }

    /** Mark whether the link is *pending*: its power can change with
     *  no call touching it — mid-transition (a phase end falls due), or
     *  fault-attached and not yet failed (a lock loss or hard failure
     *  falls due). Snapshot readers advance exactly the pending links
     *  first (Network::advancePendingPower). A plain per-link flag
     *  column — not a shared dense set — so the write stays owned by
     *  the link's shard like every other column, and readers visit
     *  pending links in id order (trace events those advances emit
     *  must flush in link-id order). */
    void setPending(int id, bool pending)
    {
        pending_[static_cast<std::size_t>(id)] = pending ? 1 : 0;
    }

    /** One flit accepted on @p vc (per-VC energy attribution). */
    void countFlit(int id, int vc)
    {
        if (vc < 0 || vc >= numVcs_)
            panic("LinkPowerLedger: link %d flit on vc %d of %d", id,
                  vc, numVcs_);
        totalFlits_[static_cast<std::size_t>(id)]++;
        vcFlits_[static_cast<std::size_t>(id) *
                     static_cast<std::size_t>(numVcs_) +
                 static_cast<std::size_t>(vc)]++;
    }

    bool isPending(int id) const
    {
        return pending_[static_cast<std::size_t>(id)] != 0;
    }

    // ------------------------------------------------------------------
    // Thermal epoch (driving thread, between phases)
    // ------------------------------------------------------------------

    /**
     * Batched leakage/temperature step at @p now: per link, fold the
     * leakage integral, average the dynamic power over the elapsed
     * epoch, relax the junction temperature toward its equilibrium,
     * and recompute leakage at the new (T, vdd). Flat-array loop in
     * link-id order; no-op when thermal is disabled. Callers must
     * advance pending links to @p now first.
     */
    void advanceThermal(Cycle now);

    // ------------------------------------------------------------------
    // Readers (driving thread, between phases)
    // ------------------------------------------------------------------

    double dynPowerMw(int id) const
    {
        return dynMw_[static_cast<std::size_t>(id)];
    }

    /** Integral of dynamic power, mW-cycles, since construction or the
     *  last resetDynamic. */
    double dynIntegralMwCycles(int id, Cycle now) const
    {
        auto i = static_cast<std::size_t>(id);
        return dynMwCycles_[i] +
               dynMw_[i] * static_cast<double>(now - dynLast_[i]);
    }

    double leakPowerMw(int id) const
    {
        return leakMw_[static_cast<std::size_t>(id)];
    }

    double leakIntegralMwCycles(int id, Cycle now) const
    {
        auto i = static_cast<std::size_t>(id);
        return leakMwCycles_[i] +
               leakMw_[i] * static_cast<double>(now - leakLast_[i]);
    }

    /** Dynamic + leakage power right now, mW — what a thermally aware
     *  policy should budget against. */
    double effectivePowerMw(int id) const
    {
        auto i = static_cast<std::size_t>(id);
        return dynMw_[i] + leakMw_[i];
    }

    double tempC(int id) const
    {
        return tempC_[static_cast<std::size_t>(id)];
    }

    int level(int id) const
    {
        return brLevel_[static_cast<std::size_t>(id)];
    }

    int kindIndex(int id) const
    {
        return kind_[static_cast<std::size_t>(id)];
    }

    double baselineMw(int id) const
    {
        return baselineMw_[static_cast<std::size_t>(id)];
    }

    std::uint64_t totalFlits(int id) const
    {
        return totalFlits_[static_cast<std::size_t>(id)];
    }

    std::uint64_t vcFlits(int id, int vc) const
    {
        return vcFlits_[static_cast<std::size_t>(id) *
                            static_cast<std::size_t>(numVcs_) +
                        static_cast<std::size_t>(vc)];
    }

    // Flat scans in link-id order (the canonical fold order).

    /** Sum of dynamic power over all links, mW. */
    double totalDynMw() const;

    /** Sum of dynamic power integrals over all links, mW-cycles. */
    double totalDynIntegralMwCycles(Cycle now) const;

    /** Sum of leakage power over all links, mW (0 when disabled). */
    double totalLeakMw() const;

    /** Sum of leakage integrals over all links, mW-cycles. */
    double totalLeakIntegralMwCycles(Cycle now) const;

    /** Hottest junction across all links, °C (ambient when cold). */
    double maxTempC() const;

    /**
     * Dynamic energy integral attributed to each VC, mW-cycles:
     * link i's integral split proportionally to its per-VC flit
     * counts (links that carried nothing attribute nothing). Folded
     * in link-id order into @p out (resized to numVcs).
     */
    void attributeVcEnergy(Cycle now, std::vector<double> &out) const;

  private:
    int numVcs_;
    ThermalParams thermal_;
    LeakageModel model_;
    Cycle lastThermal_ = 0;

    // Per-link columns, indexed by link id.
    std::vector<double> dynMw_;
    std::vector<Cycle> dynLast_;
    std::vector<double> dynMwCycles_;
    std::vector<double> dynMarkMwCycles_; ///< integral at last epoch
    std::vector<double> vddFrac_;
    std::vector<double> baselineMw_;
    std::vector<double> tempC_;
    std::vector<double> leakMw_;
    std::vector<Cycle> leakLast_;
    std::vector<double> leakMwCycles_;
    std::vector<std::int16_t> brLevel_;
    std::vector<std::int8_t> kind_;
    std::vector<std::uint64_t> totalFlits_;
    std::vector<std::uint64_t> vcFlits_; ///< numLinks x numVcs

    std::vector<std::uint8_t> pending_; ///< 1 = see setPending
};

} // namespace oenet

#endif // OENET_PHY_POWER_LEDGER_HH
