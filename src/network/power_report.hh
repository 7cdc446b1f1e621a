/**
 * @file
 * Power and utilization reporting over a live Network: aggregates by
 * link kind (injection / ejection / inter-router), level histograms,
 * and per-link detail dumps. Used by examples and benches to explain
 * *where* the savings come from — e.g. the paper's observation that
 * savings persist at saturation because the 1024 injection/ejection
 * fibers stay lightly utilized.
 */

#ifndef OENET_NETWORK_POWER_REPORT_HH
#define OENET_NETWORK_POWER_REPORT_HH

#include <array>
#include <string>
#include <vector>

#include "network/network.hh"

namespace oenet {

/** Aggregate power/utilization for one class of links. */
struct KindReport
{
    LinkKind kind;
    int count = 0;
    double powerMw = 0.0;          ///< instantaneous (dynamic)
    double baselineMw = 0.0;       ///< all-at-max power
    double normalizedPower = 0.0;  ///< powerMw / baselineMw
    double meanLevel = 0.0;        ///< average bit-rate level index
    std::uint64_t totalFlits = 0;  ///< flits carried so far
    double leakageMw = 0.0;        ///< 0 with the thermal model off
    std::vector<int> levelHistogram; ///< links per level index
};

struct PowerReport
{
    Cycle at = 0;
    /** Instantaneous power; includes leakage when the thermal model
     *  is on (effective power), dynamic only otherwise. */
    double totalPowerMw = 0.0;
    double baselinePowerMw = 0.0;
    double normalizedPower = 0.0;
    std::array<KindReport, 3> byKind; ///< indexed by LinkKind order

    // Leakage/thermal extension, populated only when the thermal
    // model is enabled (thermal == true).
    bool thermal = false;
    double leakagePowerMw = 0.0; ///< leakage component of totalPowerMw
    double maxTempC = 0.0;       ///< hottest junction across all links
    /** Dynamic link energy attributed to each VC, mW-cycles
     *  (LinkPowerLedger::attributeVcEnergy). */
    std::vector<double> vcEnergyMwCycles;

    const KindReport &forKind(LinkKind kind) const
    {
        return byKind[static_cast<std::size_t>(kind)];
    }

    /** Multi-line human-readable rendering. */
    std::string toString() const;
};

/**
 * Snapshot the network's power state at @p now, served from the SoA
 * ledger's flat columns (the epoch hot path: no per-link pointer
 * chase).
 */
PowerReport makePowerReport(Network &net, Cycle now);

/** Per-link rows for CSV dumps: name, kind, level, br, power, flits,
 *  and — with the thermal model on — leakage, junction temperature,
 *  and per-VC flit attribution. */
struct LinkRow
{
    std::string name;
    LinkKind kind;
    int level;
    double brGbps;
    double powerMw;
    std::uint64_t totalFlits;
    std::uint64_t transitions;
    double leakageMw = 0.0; ///< 0 with the thermal model off
    double tempC = 0.0;     ///< 0 with the thermal model off
    std::vector<std::uint64_t> vcFlits; ///< empty with thermal off
};

std::vector<LinkRow> collectLinkRows(Network &net, Cycle now);

} // namespace oenet

#endif // OENET_NETWORK_POWER_REPORT_HH
