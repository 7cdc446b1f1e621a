#include "phy/power_ledger.hh"

#include <algorithm>

#include "common/log.hh"

namespace oenet {

LinkPowerLedger::LinkPowerLedger(int num_vcs, const ThermalParams &thermal,
                                 double vmax_v)
    : numVcs_(num_vcs), thermal_(thermal), model_(thermal, vmax_v)
{
    if (num_vcs < 1)
        panic("LinkPowerLedger: numVcs must be >= 1, got %d", num_vcs);
    thermal.validate();
}

int
LinkPowerLedger::addLink(int kind_index, double baseline_mw, int level,
                         double initial_mw, double initial_vdd_frac)
{
    int id = numLinks();
    dynMw_.push_back(initial_mw);
    dynLast_.push_back(0);
    dynMwCycles_.push_back(0.0);
    dynMarkMwCycles_.push_back(0.0);
    vddFrac_.push_back(initial_vdd_frac);
    baselineMw_.push_back(baseline_mw);
    tempC_.push_back(thermal_.ambientC);
    leakMw_.push_back(
        model_.leakageMw(initial_vdd_frac, thermal_.ambientC));
    leakLast_.push_back(0);
    leakMwCycles_.push_back(0.0);
    brLevel_.push_back(static_cast<std::int16_t>(level));
    kind_.push_back(static_cast<std::int8_t>(kind_index));
    totalFlits_.push_back(0);
    vcFlits_.insert(vcFlits_.end(),
                    static_cast<std::size_t>(numVcs_), 0);
    pending_.push_back(0);
    return id;
}

void
LinkPowerLedger::resetDynamic(int id, Cycle at)
{
    auto i = static_cast<std::size_t>(id);
    dynMwCycles_[i] = 0.0;
    dynLast_[i] = at;
    dynMarkMwCycles_[i] = 0.0;
    leakMwCycles_[i] = 0.0;
    leakLast_[i] = at;
    totalFlits_[i] = 0;
    std::fill_n(vcFlits_.begin() +
                    static_cast<std::ptrdiff_t>(
                        i * static_cast<std::size_t>(numVcs_)),
                numVcs_, 0);
}

void
LinkPowerLedger::advanceThermal(Cycle now)
{
    if (!thermal_.enabled)
        return;
    if (now <= lastThermal_)
        return;
    Cycle dt = now - lastThermal_;
    lastThermal_ = now;
    std::size_t n = dynMw_.size();
    for (std::size_t i = 0; i < n; i++) {
        // Fold the (piecewise-constant per epoch) leakage integral.
        leakMwCycles_[i] +=
            leakMw_[i] * static_cast<double>(now - leakLast_[i]);
        leakLast_[i] = now;
        // Dissipation over the elapsed epoch: average dynamic power
        // (from the exact integral delta) plus the epoch's leakage.
        double dyn_int =
            dynMwCycles_[i] +
            dynMw_[i] * static_cast<double>(now - dynLast_[i]);
        double avg_dyn =
            (dyn_int - dynMarkMwCycles_[i]) / static_cast<double>(dt);
        dynMarkMwCycles_[i] = dyn_int;
        // RC relaxation, then leakage at the new operating point —
        // the feedback loop: hotter links leak more, leaking links
        // run hotter. tau >> epoch keeps the discrete loop stable.
        tempC_[i] =
            model_.stepTempC(tempC_[i], avg_dyn + leakMw_[i], dt);
        leakMw_[i] = model_.leakageMw(vddFrac_[i], tempC_[i]);
    }
}

double
LinkPowerLedger::totalDynMw() const
{
    double sum = 0.0;
    for (double v : dynMw_)
        sum += v;
    return sum;
}

double
LinkPowerLedger::totalDynIntegralMwCycles(Cycle now) const
{
    double sum = 0.0;
    std::size_t n = dynMw_.size();
    for (std::size_t i = 0; i < n; i++) {
        sum += dynMwCycles_[i] +
               dynMw_[i] * static_cast<double>(now - dynLast_[i]);
    }
    return sum;
}

double
LinkPowerLedger::totalLeakMw() const
{
    if (!thermal_.enabled)
        return 0.0;
    double sum = 0.0;
    for (double v : leakMw_)
        sum += v;
    return sum;
}

double
LinkPowerLedger::totalLeakIntegralMwCycles(Cycle now) const
{
    if (!thermal_.enabled)
        return 0.0;
    double sum = 0.0;
    std::size_t n = leakMw_.size();
    for (std::size_t i = 0; i < n; i++) {
        sum += leakMwCycles_[i] +
               leakMw_[i] * static_cast<double>(now - leakLast_[i]);
    }
    return sum;
}

double
LinkPowerLedger::maxTempC() const
{
    double t = thermal_.ambientC;
    for (double v : tempC_)
        t = std::max(t, v);
    return t;
}

void
LinkPowerLedger::attributeVcEnergy(Cycle now,
                                   std::vector<double> &out) const
{
    out.assign(static_cast<std::size_t>(numVcs_), 0.0);
    std::size_t n = dynMw_.size();
    for (std::size_t i = 0; i < n; i++) {
        std::uint64_t flits = totalFlits_[i];
        if (flits == 0)
            continue;
        double integral =
            dynMwCycles_[i] +
            dynMw_[i] * static_cast<double>(now - dynLast_[i]);
        const std::uint64_t *row =
            &vcFlits_[i * static_cast<std::size_t>(numVcs_)];
        for (int vc = 0; vc < numVcs_; vc++) {
            out[static_cast<std::size_t>(vc)] +=
                integral *
                (static_cast<double>(row[vc]) /
                 static_cast<double>(flits));
        }
    }
}

} // namespace oenet
