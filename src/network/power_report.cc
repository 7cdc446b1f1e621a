#include "network/power_report.hh"

#include <cstdio>

namespace oenet {

namespace {

void
initKinds(PowerReport &report, int max_level)
{
    for (std::size_t k = 0; k < report.byKind.size(); k++) {
        report.byKind[k].kind = static_cast<LinkKind>(k);
        report.byKind[k].levelHistogram.assign(
            static_cast<std::size_t>(max_level + 1), 0);
    }
}

void
finishReport(PowerReport &report)
{
    for (auto &kr : report.byKind) {
        if (kr.count > 0) {
            kr.normalizedPower = kr.powerMw / kr.baselineMw;
            kr.meanLevel /= kr.count;
        }
    }
    if (report.baselinePowerMw > 0.0)
        report.normalizedPower =
            report.totalPowerMw / report.baselinePowerMw;
}

} // namespace

PowerReport
makePowerReport(Network &net, Cycle now)
{
    // One advance pass over the pending links, then flat scans of the
    // ledger columns in link-id order.
    net.advancePendingPower(now);
    const LinkPowerLedger &led = net.powerLedger();

    PowerReport report;
    report.at = now;
    initKinds(report, net.levels().maxLevel());

    int n = led.numLinks();
    for (int i = 0; i < n; i++) {
        auto &kr = report.byKind[static_cast<std::size_t>(
            led.kindIndex(i))];
        double p = led.dynPowerMw(i);
        int level = led.level(i);
        kr.count++;
        kr.powerMw += p;
        kr.baselineMw += led.baselineMw(i);
        kr.meanLevel += level;
        kr.totalFlits += led.totalFlits(i);
        kr.levelHistogram[static_cast<std::size_t>(level)]++;
        report.totalPowerMw += p;
        report.baselinePowerMw += led.baselineMw(i);
    }
    if (led.thermalEnabled()) {
        report.thermal = true;
        for (int i = 0; i < n; i++) {
            report.byKind[static_cast<std::size_t>(led.kindIndex(i))]
                .leakageMw += led.leakPowerMw(i);
        }
        report.leakagePowerMw = led.totalLeakMw();
        report.totalPowerMw += report.leakagePowerMw;
        report.maxTempC = led.maxTempC();
        led.attributeVcEnergy(now, report.vcEnergyMwCycles);
    }
    finishReport(report);
    return report;
}

std::string
PowerReport::toString() const
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "power @ cycle %llu: %.1f W of %.1f W baseline "
                  "(%.3f)\n",
                  static_cast<unsigned long long>(at),
                  totalPowerMw / 1000.0, baselinePowerMw / 1000.0,
                  normalizedPower);
    out += buf;
    for (const auto &kr : byKind) {
        if (kr.count == 0)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "  %-12s %4d links  %8.1f mW (%.3f of max)  "
                      "mean level %.2f  levels [",
                      linkKindName(kr.kind), kr.count, kr.powerMw,
                      kr.normalizedPower, kr.meanLevel);
        out += buf;
        for (std::size_t i = 0; i < kr.levelHistogram.size(); i++) {
            std::snprintf(buf, sizeof(buf), "%s%d", i ? " " : "",
                          kr.levelHistogram[i]);
            out += buf;
        }
        out += "]\n";
    }
    if (thermal) {
        std::snprintf(buf, sizeof(buf),
                      "  leakage %.1f mW, hottest junction %.1f C\n",
                      leakagePowerMw, maxTempC);
        out += buf;
    }
    return out;
}

std::vector<LinkRow>
collectLinkRows(Network &net, Cycle now)
{
    std::vector<LinkRow> rows;
    rows.reserve(net.numLinks());
    const LinkPowerLedger &led = net.powerLedger();
    bool thermal = led.thermalEnabled();
    for (std::size_t i = 0; i < net.numLinks(); i++) {
        OpticalLink &link = net.link(i);
        LinkRow row;
        row.name = link.name();
        row.kind = link.kind();
        row.level = link.currentLevel();
        row.brGbps = link.currentBitRateGbps();
        row.powerMw = link.powerMw(now);
        row.totalFlits = link.totalFlits();
        row.transitions = link.numTransitions();
        if (thermal) {
            int id = static_cast<int>(i);
            row.leakageMw = led.leakPowerMw(id);
            row.tempC = led.tempC(id);
            row.vcFlits.reserve(
                static_cast<std::size_t>(led.numVcs()));
            for (int vc = 0; vc < led.numVcs(); vc++)
                row.vcFlits.push_back(led.vcFlits(id, vc));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace oenet
