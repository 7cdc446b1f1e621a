#include "link/link.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "fault/fault_injector.hh"
#include "phy/ber.hh"
#include "phy/power_ledger.hh"
#include "sim/kernel.hh"

namespace oenet {

const char *
linkKindName(LinkKind kind)
{
    switch (kind) {
      case LinkKind::kInjection:
        return "injection";
      case LinkKind::kEjection:
        return "ejection";
      case LinkKind::kInterRouter:
        return "inter-router";
    }
    panic("linkKindName: bad kind %d", static_cast<int>(kind));
}

OpticalLink::OpticalLink(std::string name, LinkKind kind,
                         const BitrateLevelTable &levels,
                         const Params &params, LinkPowerLedger &ledger)
    : name_(std::move(name)), kind_(kind), levels_(levels),
      params_(params), powerModel_(params.scheme, params.power),
      ledger_(ledger)
{
    int init = params_.initialLevel;
    if (init == kInvalid)
        init = levels_.maxLevel();
    if (init < 0 || init > levels_.maxLevel())
        fatal("OpticalLink %s: initial level %d out of range",
              name_.c_str(), init);
    fromLevel_ = toLevel_ = init;
    // The row starts at 0 mW; refreshSignals writes the initial
    // operating point's power at cycle 0.
    ledgerId_ = ledger_.addLink(
        static_cast<int>(kind_), maxPowerMw(), init, 0.0,
        levels_.level(init).vddV / params_.power.vmaxV);
    refreshSignals(0);
}

double
OpticalLink::currentBitRateGbps() const
{
    // During a voltage ramp ahead of a frequency increase the link is
    // still clocked at the old rate; in every other phase the wire rate
    // is the target level's.
    int level = phase_ == Phase::kVoltRampUp ? fromLevel_ : toLevel_;
    return levels_.level(level).brGbps;
}

void
OpticalLink::writePower(Cycle at, double mw, double vdd_frac)
{
    ledger_.updateDynamic(ledgerId_, at, mw, vdd_frac);
}

void
OpticalLink::syncPending()
{
    bool transition = phase_ != Phase::kStable && phase_ != Phase::kOff;
    ledger_.setPending(ledgerId_,
                       !failed_ && (transition || faults_ != nullptr));
}

void
OpticalLink::refreshSignals(Cycle at)
{
    // A pending wake-settle power step either lands first (it is due
    // at or before this newer signal) or is superseded by it — e.g. a
    // re-gate or hard failure mid-settle cancels the step up.
    if (pendingPowerAt_ != kNeverCycle) {
        if (pendingPowerAt_ <= at)
            writePower(pendingPowerAt_, pendingPowerMw_,
                       pendingVddFrac_);
        pendingPowerAt_ = kNeverCycle;
    }
    if (wakeSettleEnd_ != kNeverCycle && at >= wakeSettleEnd_)
        wakeSettleEnd_ = kNeverCycle;

    // Operating point used for *power*: voltage is conservatively the
    // higher of the two endpoints mid-transition (it ramps before the
    // frequency rises and after it falls).
    double br_power;
    double v_power;
    switch (phase_) {
      case Phase::kStable:
        br_power = levels_.level(toLevel_).brGbps;
        v_power = levels_.level(toLevel_).vddV;
        break;
      case Phase::kVoltRampUp:
        br_power = levels_.level(fromLevel_).brGbps;
        v_power = levels_.level(toLevel_).vddV;
        break;
      case Phase::kFreqSwitch:
        br_power = levels_.level(toLevel_).brGbps;
        v_power = std::max(levels_.level(fromLevel_).vddV,
                           levels_.level(toLevel_).vddV);
        break;
      case Phase::kVoltRampDown:
        br_power = levels_.level(toLevel_).brGbps;
        v_power = levels_.level(fromLevel_).vddV;
        break;
      case Phase::kOff:
        wakeSettleEnd_ = kNeverCycle;
        writePower(at, params_.offPowerMw, 0.0);
        capacityTw_.update(at, 0.0);
        return;
      default:
        panic("OpticalLink %s: bad phase", name_.c_str());
    }
    double mw = powerModel_.powerMw(br_power, v_power, opticalScale_);
    double vdd_frac = v_power / params_.power.vmaxV;
    if (wakeSettleEnd_ != kNeverCycle) {
        // Still settling after a wake from the gated-off state: the
        // transmitter draws gate-off power until wakeSettleEnd_, then
        // steps to the target point (the step is folded in by the
        // next advance() past the boundary).
        writePower(at, params_.offPowerMw, 0.0);
        pendingPowerAt_ = wakeSettleEnd_;
        pendingPowerMw_ = mw;
        pendingVddFrac_ = vdd_frac;
    } else {
        writePower(at, mw, vdd_frac);
    }
    double capacity =
        enabledNow() ? flitsPerCycle(currentBitRateGbps()) : 0.0;
    capacityTw_.update(at, capacity);
}

void
OpticalLink::enterPhase(Phase phase, Cycle at, Cycle end)
{
    phase_ = phase;
    phaseEnd_ = end;
    if (phase == Phase::kStable) {
        if (traceSink_ && transitionType_) {
            traceSink_->linkTransition(LinkTransitionEvent{
                transitionStart_, at, traceId_, transitionFrom_,
                toLevel_, transitionType_});
        }
        transitionType_ = nullptr;
        fromLevel_ = toLevel_;
    }
    syncPending();
    refreshSignals(at);
}

void
OpticalLink::setTrace(TraceSink *sink, int trace_id)
{
    traceSink_ = sink;
    traceId_ = trace_id;
}

void
OpticalLink::setFault(FaultInjector *faults, int link_id)
{
    faults_ = faults;
    faultId_ = link_id;
    syncPending();
    if (arrivalFlags_ != nullptr)
        *arrivalFlags_ |= arrivalBit_;
}

void
OpticalLink::resetStats(Cycle now)
{
    advance(now);
    ledger_.resetDynamic(ledgerId_, now);
    numTransitions_ = 0;
    flitsCorrupted_ = 0;
    flitRetries_ = 0;
    lockLossEvents_ = 0;
    flitsDroppedOnFail_ = 0;
}

void
OpticalLink::setOff(Cycle now, bool off)
{
    advance(now);
    if (failed_)
        return; // a dead link can be neither gated nor woken
    if (off) {
        if (phase_ != Phase::kStable)
            panic("OpticalLink %s: setOff during transition",
                  name_.c_str());
        if (traceSink_) {
            // Gating is immediate; report a zero-latency event.
            traceSink_->linkTransition(LinkTransitionEvent{
                now, now, traceId_, toLevel_, toLevel_, "off"});
        }
        enterPhase(Phase::kOff, now, kNeverCycle);
    } else {
        if (phase_ != Phase::kOff)
            return;
        // Wake-up: the receiver CDR must reacquire lock. For the first
        // part of the relock the transmitter is still stabilizing and
        // keeps drawing gate-off power (Params::wakeSettleCycles).
        numTransitions_++;
        transitionStart_ = now;
        transitionFrom_ = toLevel_;
        transitionType_ = "wake";
        wakeSettleEnd_ = now + std::min(params_.wakeSettleCycles,
                                        params_.freqTransitionCycles);
        enterPhase(Phase::kFreqSwitch, now,
                   now + params_.freqTransitionCycles);
        advance(now);
        armReceiverTransitionWake();
    }
}

void
OpticalLink::armReceiverTransitionWake()
{
    // With faults attached the receiver advances this link on every
    // poll, so an always-awake receiver would process (and trace) the
    // transition completion at its exact end cycle. A parked receiver
    // must come back for that cycle; later phases of the same
    // transition chain re-arm through nextReceiverEventCycle when it
    // re-parks.
    if (receiver_ != nullptr && faults_ != nullptr &&
        phase_ != Phase::kStable && phase_ != Phase::kOff)
        receiver_->wakeAt(phaseEnd_ > receiverWakeLead_
                              ? phaseEnd_ - receiverWakeLead_
                              : 0);
}

void
OpticalLink::advance(Cycle now)
{
    if (faults_ != nullptr)
        faultAdvance(now);
    phaseAdvance(now);
    if (pendingPowerAt_ <= now) {
        // Wake settle complete: step to the target power at the exact
        // boundary cycle (pendingPowerAt_ == wakeSettleEnd_).
        writePower(pendingPowerAt_, pendingPowerMw_, pendingVddFrac_);
        pendingPowerAt_ = kNeverCycle;
        wakeSettleEnd_ = kNeverCycle;
    }
}

void
OpticalLink::faultAdvance(Cycle now)
{
    if (failed_)
        return;
    Cycle fail_at = faults_->hardFailAtCycle(faultId_);
    Cycle horizon = std::min(now, fail_at);

    // CDR lock losses strictly up to the horizon, at their exact
    // cycles. A loss only bites when the link is stable: during a
    // frequency switch the CDR is relocking anyway and while gated off
    // it is dark, so the event dissolves into the ongoing outage.
    for (;;) {
        Cycle at = faults_->peekLockLoss(faultId_);
        if (at > horizon)
            break;
        faults_->consumeLockLoss(faultId_);
        phaseAdvance(at);
        if (phase_ != Phase::kStable)
            continue;
        lockLossEvents_++;
        Cycle outage = faults_->params().lockLossOutageCycles;
        transitionStart_ = at;
        transitionFrom_ = toLevel_;
        transitionType_ = "lock_loss";
        enterPhase(Phase::kFreqSwitch, at, at + outage);
        // Flits on the wire during the outage arrive scrambled.
        for (int i = 0; i < inflightCount_; ++i) {
            InFlight &f =
                inflight_[(inflightHead_ + i) % kInflightCap];
            if (f.arrives > at)
                f.corrupt = true;
        }
        if (traceSink_) {
            traceSink_->faultEvent(FaultEvent{
                at, traceId_, "lock_loss", 0,
                static_cast<double>(outage)});
        }
    }

    if (fail_at <= now) {
        phaseAdvance(fail_at);
        failLink(fail_at);
    }
}

void
OpticalLink::failLink(Cycle at)
{
    failed_ = true;
    // Any transition underway will never complete; drop its pending
    // trace report rather than fabricating a completion.
    transitionType_ = nullptr;
    int lost = inflightCount_;
    flitsDroppedOnFail_ += static_cast<std::uint64_t>(lost);
    flitsDroppedOnFailLifetime_ += static_cast<std::uint64_t>(lost);
    inflightCount_ = 0;
    enterPhase(Phase::kOff, at, kNeverCycle);
    if (traceSink_) {
        traceSink_->faultEvent(FaultEvent{at, traceId_, "hard_fail", 0,
                                          static_cast<double>(lost)});
    }
}

void
OpticalLink::phaseAdvance(Cycle now)
{
    while (phase_ != Phase::kStable && phase_ != Phase::kOff &&
           phaseEnd_ <= now) {
        Cycle at = phaseEnd_;
        switch (phase_) {
          case Phase::kVoltRampUp:
            enterPhase(Phase::kFreqSwitch, at,
                       at + params_.freqTransitionCycles);
            break;
          case Phase::kFreqSwitch:
            if (toLevel_ >= fromLevel_) {
                enterPhase(Phase::kStable, at, at);
            } else {
                enterPhase(Phase::kVoltRampDown, at,
                           at + params_.voltTransitionCycles);
            }
            break;
          case Phase::kVoltRampDown:
            enterPhase(Phase::kStable, at, at);
            break;
          default:
            panic("OpticalLink %s: advancing stable phase",
                  name_.c_str());
        }
    }
}

bool
OpticalLink::canAcceptSlow(Cycle now)
{
    advance(now);
    if (!enabledNow() || inflightCount_ >= kInflightCap)
        return false;
    return static_cast<double>(now) + 1.0 > nextFree_ + 1e-9;
}

void
OpticalLink::accept(Cycle now, const Flit &flit)
{
    advance(now);
    if (!enabledNow())
        panic("OpticalLink %s: accept while disabled", name_.c_str());
    if (inflightCount_ >= kInflightCap)
        panic("OpticalLink %s: in-flight ring overflow", name_.c_str());
    if (static_cast<double>(now) + 1.0 <= nextFree_ + 1e-9)
        panic("OpticalLink %s: accept while serializing", name_.c_str());

    // Serialization begins the instant the transmitter frees up, which
    // may fall fractionally inside this cycle; keeping the fraction is
    // what makes the saturated rate equal the level's bit rate.
    double cpf = cyclesPerFlit(currentBitRateGbps());
    nextFree_ = std::max(nextFree_, static_cast<double>(now)) + cpf;

    Cycle arrives = params_.propagationCycles +
                    static_cast<Cycle>(std::ceil(nextFree_ - 1e-9));
    if (arrives <= lastArrival_)
        arrives = lastArrival_ + 1;
    lastArrival_ = arrives;

    int slot = (inflightHead_ + inflightCount_) % kInflightCap;
    InFlight &f = inflight_[slot];
    f.flit = flit;
    f.arrives = arrives;
    f.attempts = 0;
    f.corrupt = faults_ != nullptr &&
                faults_->drawFlitCorrupt(faultId_, flitCorruptProb());
    if (f.corrupt)
        flitsCorrupted_++;
    inflightCount_++;

    windowFlits_++;
    ledger_.countFlit(ledgerId_, flit.vc);

    // Wake edge: a parked receiver must tick when this flit lands
    // (even a corrupt copy — the receiver's poll at `arrives` is what
    // drives the CRC/NACK replay at its exact cycle).
    if (arrivalFlags_ != nullptr)
        *arrivalFlags_ |= arrivalBit_;
    if (receiver_)
        receiver_->wakeAt(arrives > receiverWakeLead_
                              ? arrives - receiverWakeLead_
                              : 0);
}

Cycle
OpticalLink::nextReceiverEventCycle() const
{
    Cycle next = kNeverCycle;
    if (inflightCount_ > 0)
        next = inflight_[inflightHead_].arrives;
    if (faults_ != nullptr && !failed_) {
        // An every-cycle poller would discover these during its
        // hasArrival() walk; a parked receiver must come back at the
        // same cycles so counters and trace emission land identically.
        next = std::min(next, faults_->peekLockLoss(faultId_));
        next = std::min(next, faults_->hardFailAtCycle(faultId_));
        if (phase_ != Phase::kStable && phase_ != Phase::kOff)
            next = std::min(next, phaseEnd_);
    }
    return next;
}

double
OpticalLink::flitCorruptProb() const
{
    const FaultParams &fp = faults_->params();
    // Received optical power as a fraction of full power: the VOA
    // level for modulator links, the drive voltage for directly
    // modulated VCSELs.
    int level = phase_ == Phase::kVoltRampUp ? fromLevel_ : toLevel_;
    double frac = powerModel_.scheme() == LinkScheme::kModulator
                      ? opticalScale_
                      : levels_.level(level).vddV / params_.power.vmaxV;
    double margin = opticalMargin(frac, levels_.level(level).brGbps,
                                  params_.power.brMaxGbps);
    double ber = fp.berScale * berFromMargin(margin) + fp.berFloor;
    if (ber > 0.5)
        ber = 0.5;
    return flitErrorProb(ber, kFlitBits);
}

void
OpticalLink::reliabilityAdvance(Cycle now)
{
    advance(now); // scheduled faults first; a failure drops the ring
    const FaultParams &fp = faults_->params();
    while (inflightCount_ > 0) {
        InFlight &head = inflight_[inflightHead_];
        if (!head.corrupt || head.arrives > now)
            break;
        if (phase_ == Phase::kOff)
            break; // replay resumes when the link wakes
        // The corrupt copy reached the receiver at head.arrives, fails
        // its CRC there, and the NACK flies back; the sender replays
        // from its retransmission buffer after a bounded exponential
        // backoff, re-occupying the transmitter for one flit time.
        head.attempts++;
        flitRetries_++;
        windowRetries_++;
        if (traceSink_) {
            traceSink_->faultEvent(FaultEvent{head.arrives, traceId_,
                                              "corrupt", head.attempts,
                                              0.0});
        }
        Cycle nack = head.arrives + params_.propagationCycles +
                     fp.ackProcessingCycles;
        int shift = std::min(head.attempts - 1, 20);
        Cycle backoff =
            std::min(fp.retryBackoffCap, fp.retryBackoffBase << shift);
        double start =
            std::max(nextFree_, static_cast<double>(nack + backoff));
        if (!enabledNow())
            start = std::max(start, static_cast<double>(phaseEnd_));
        nextFree_ = start + cyclesPerFlit(currentBitRateGbps());
        Cycle arrives = params_.propagationCycles +
                        static_cast<Cycle>(std::ceil(nextFree_ - 1e-9));
        if (arrives <= head.arrives)
            arrives = head.arrives + 1;
        head.arrives = arrives;
        if (arrives > lastArrival_)
            lastArrival_ = arrives;
        head.corrupt =
            faults_->drawFlitCorrupt(faultId_, flitCorruptProb());
        if (head.corrupt)
            flitsCorrupted_++;
        if (traceSink_) {
            traceSink_->faultEvent(FaultEvent{
                static_cast<Cycle>(start), traceId_, "retry",
                head.attempts, static_cast<double>(backoff)});
        }
    }
}

Flit
OpticalLink::popArrival(Cycle now)
{
    if (!hasArrival(now))
        panic("OpticalLink %s: popArrival with nothing arrived",
              name_.c_str());
    Flit flit = inflight_[inflightHead_].flit;
    inflightHead_ = (inflightHead_ + 1) % kInflightCap;
    inflightCount_--;
    return flit;
}

void
OpticalLink::requestLevel(Cycle now, int level)
{
    advance(now);
    if (phase_ != Phase::kStable)
        panic("OpticalLink %s: level request during transition",
              name_.c_str());
    if (level < 0 || level > levels_.maxLevel())
        panic("OpticalLink %s: level %d out of range", name_.c_str(),
              level);
    if (level == toLevel_)
        return;

    fromLevel_ = toLevel_;
    toLevel_ = level;
    ledger_.setLevel(ledgerId_, level);
    numTransitions_++;
    transitionStart_ = now;
    transitionFrom_ = fromLevel_;
    transitionType_ = "level";

    if (level > fromLevel_) {
        // Raise voltage first (link keeps running), then switch
        // frequency (CDR relock disables the link for T_br).
        if (params_.voltTransitionCycles > 0) {
            enterPhase(Phase::kVoltRampUp, now,
                       now + params_.voltTransitionCycles);
        } else {
            enterPhase(Phase::kFreqSwitch, now,
                       now + params_.freqTransitionCycles);
        }
    } else {
        // Drop frequency first, then ramp the voltage down.
        enterPhase(Phase::kFreqSwitch, now,
                   now + params_.freqTransitionCycles);
    }
    // Zero-length phases resolve immediately.
    advance(now);
    armReceiverTransitionWake();
}

bool
OpticalLink::transitionInProgress(Cycle now)
{
    advance(now);
    return phase_ != Phase::kStable;
}

void
OpticalLink::setOpticalScale(Cycle now, double scale)
{
    advance(now);
    if (scale <= 0.0 || scale > 1.0)
        panic("OpticalLink %s: optical scale %f out of (0, 1]",
              name_.c_str(), scale);
    opticalScale_ = scale;
    refreshSignals(now);
}

void
OpticalLink::beginWindow(Cycle now)
{
    advance(now);
    windowFlits_ = 0;
    windowRetries_ = 0;
    windowCapBase_ = capacityTw_.integral(now);
    windowStart_ = now;
}

double
OpticalLink::windowUtilization(Cycle now)
{
    advance(now);
    double cap = capacityTw_.integral(now) - windowCapBase_;
    if (cap <= 1e-9)
        return windowFlits_ > 0 ? 1.0 : 0.0;
    double u = static_cast<double>(windowFlits_) / cap;
    return u > 1.0 ? 1.0 : u;
}

std::uint64_t
OpticalLink::totalFlits() const
{
    return ledger_.totalFlits(ledgerId_);
}

double
OpticalLink::powerMw(Cycle now)
{
    advance(now);
    return ledger_.dynPowerMw(ledgerId_);
}

double
OpticalLink::powerIntegralMwCycles(Cycle now)
{
    advance(now);
    return ledger_.dynIntegralMwCycles(ledgerId_, now);
}

double
OpticalLink::energyMj(Cycle now)
{
    // mW * cycles * seconds/cycle = mW*s = mJ.
    return powerIntegralMwCycles(now) * kSecondsPerCycle;
}

} // namespace oenet
