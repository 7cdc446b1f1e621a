#include "policy/controller.hh"

#include "common/log.hh"
#include "fault/fault_injector.hh"

namespace oenet {

const char *
opticalModeName(OpticalMode mode)
{
    switch (mode) {
      case OpticalMode::kFixed:
        return "fixed";
      case OpticalMode::kTriLevel:
        return "tri-level";
    }
    panic("opticalModeName: bad mode");
}

const char *
policyModeName(PolicyMode mode)
{
    switch (mode) {
      case PolicyMode::kDvs:
        return "dvs";
      case PolicyMode::kProportional:
        return "proportional";
      case PolicyMode::kOnOff:
        return "on-off";
      case PolicyMode::kStatic:
        return "static";
    }
    panic("policyModeName: bad mode");
}

LinkController::LinkController(OpticalLink &link,
                               const OccupancyProvider *downstream,
                               int down_port, const Params &params,
                               std::function<int()> sender_backlog)
    : link_(link), downstream_(downstream), downPort_(down_port),
      params_(params), senderBacklog_(std::move(sender_backlog)),
      policy_(params.policy), laser_(params.laser)
{
    if (downstream_ == nullptr)
        fatal("LinkController(%s): no downstream occupancy provider",
              link.name().c_str());
    if (params_.minLevel < 0 ||
        params_.minLevel > link.levels().maxLevel())
        fatal("LinkController(%s): bad min level %d",
              link.name().c_str(), params_.minLevel);
}

void
LinkController::setTrace(TraceSink *sink, int trace_id)
{
    traceSink_ = sink;
    traceId_ = trace_id;
    laser_.setTrace(sink, trace_id);
}

void
LinkController::setFault(FaultInjector *faults, int link_index)
{
    faults_ = faults;
    laser_.setFault(faults, link_index);
}

void
LinkController::setThermal(const LinkPowerLedger *ledger, int id)
{
    thermal_ = ledger;
    thermalId_ = id;
}

void
LinkController::traceLaser(Cycle now, const char *action, int from,
                           int to) const
{
    if (traceSink_) {
        traceSink_->laserEvent(
            LaserTraceEvent{now, traceId_, action, from, to});
    }
}

void
LinkController::syncLaser(Cycle now)
{
    if (params_.opticalMode != OpticalMode::kTriLevel)
        return;
    int before = static_cast<int>(laser_.level());
    if (laser_.advance(now)) {
        link_.setOpticalScale(now, laser_.scale());
        traceLaser(now, "commit", before,
                   static_cast<int>(laser_.level()));
    }
}

void
LinkController::onWindow(Cycle now)
{
    // Sample this window's statistics (retry counters before
    // beginWindow(), which zeroes them).
    double lu = link_.windowUtilization(now);
    std::uint64_t windowFlits = link_.windowFlits();
    std::uint64_t windowRetries = link_.windowRetries();
    double occ = downstream_->occupancyIntegral(downPort_, now);
    double bu = 0.0;
    Cycle span = now - lastWindowStart_;
    if (span > 0) {
        double cap = static_cast<double>(
            downstream_->bufferCapacity(downPort_));
        bu = (occ - lastOccIntegral_) /
             (static_cast<double>(span) * cap);
    }
    lastOccIntegral_ = occ;
    lastWindowStart_ = now;
    link_.beginWindow(now);

    policy_.observe(lu);
    syncLaser(now);
    if (params_.opticalMode == OpticalMode::kTriLevel) {
        // Observe the transition *target* rate, not the instantaneous
        // wire rate: a P_dec granted against a mid-ramp reading could
        // otherwise strand a fast link without light.
        laser_.observeBitRate(
            link_.levels().level(link_.currentLevel()).brGbps);
    }

    bool busy = link_.transitionInProgress(now);
    LevelDecision decision = LevelDecision::kHold;
    bool escalated = false;
    bool vetoed = false;
    if (!busy) {
        decision = policy_.decide(bu);
        // Sender-backlog escalation: queued demand the utilization
        // metric cannot see forces an upgrade, and a still-draining
        // backlog vetoes a downgrade (see Params for the rationale).
        // The asymmetric pair prevents up/down oscillation on
        // saturated links.
        if (params_.senderBacklogEscalation && senderBacklog_) {
            int backlog = senderBacklog_();
            if (decision != LevelDecision::kUp &&
                backlog >= params_.senderBacklogFlits) {
                decision = LevelDecision::kUp;
                backlogEscalations_++;
                escalated = true;
            } else if (decision == LevelDecision::kDown &&
                       backlog >= params_.senderBacklogFlits / 2) {
                decision = LevelDecision::kHold;
                vetoed = true;
            }
        }
        // Degradation clamp: a window whose retransmission rate
        // exceeds the threshold means the link is short on optical
        // margin at its current operating point. Scaling down would
        // shrink the margin further (lower Vdd / lower light), so the
        // clamp blocks down-transitions and, when configured, forces
        // an upgrade to buy margin back.
        if (faults_ != nullptr) {
            std::uint64_t attempts = windowFlits + windowRetries;
            double rate =
                attempts > 0 ? static_cast<double>(windowRetries) /
                                   static_cast<double>(attempts)
                             : 0.0;
            if (rate > faults_->params().clampErrorRate) {
                LevelDecision before = decision;
                if (faults_->params().clampForceUp)
                    decision = LevelDecision::kUp;
                else if (decision == LevelDecision::kDown)
                    decision = LevelDecision::kHold;
                if (decision != before) {
                    dvsClamps_++;
                    if (traceSink_) {
                        traceSink_->faultEvent(FaultEvent{
                            now, traceId_, "dvs_clamp", 0, rate});
                    }
                }
            }
        }
        // Thermal throttle: the ledger's effective (dynamic + leakage)
        // power view is what makes thermal runaway visible to the
        // policy. A junction at or above the throttle point is forced
        // down a level regardless of measured utilization — dropping
        // Vdd cuts dynamic *and* leakage power, breaking the hotter ->
        // leakier -> hotter loop.
        if (thermal_ != nullptr) {
            lastEffectivePowerMw_ =
                thermal_->effectivePowerMw(thermalId_);
            double temp = thermal_->tempC(thermalId_);
            double limit = thermal_->thermal().throttleC;
            if (limit > 0.0 && temp >= limit &&
                decision != LevelDecision::kDown) {
                decision = LevelDecision::kDown;
                escalated = false;
                thermalThrottles_++;
                if (traceSink_) {
                    traceSink_->faultEvent(FaultEvent{
                        now, traceId_, "thermal_throttle", 0, temp});
                }
            }
        }
    }
    int level = link_.currentLevel();
    if (traceSink_) {
        traceSink_->dvsDecision(DvsDecisionEvent{
            now, traceId_, lu, policy_.averageUtilization(), bu,
            policy_.lowThreshold(bu), policy_.highThreshold(bu),
            busy ? "in-transition" : levelDecisionName(decision),
            escalated, vetoed, level});
    }
    if (busy)
        return;

    if (decision == LevelDecision::kUp &&
        level < link_.levels().maxLevel()) {
        int target = level + 1;
        if (params_.opticalMode == OpticalMode::kTriLevel) {
            double target_br = link_.levels().level(target).brGbps;
            if (target_br >
                maxBitRateForLevel(laser_.guaranteedLevel())) {
                // Not enough guaranteed light for the faster rate:
                // request more optical power (Section 3.3, P_inc
                // semantics). The request preempts any pending P_dec.
                int before = static_cast<int>(laser_.level());
                int pending_before =
                    static_cast<int>(laser_.guaranteedLevel());
                switch (laser_.requestIncrease(now)) {
                  case LaserRequestOutcome::kDispatched:
                    traceLaser(now, "request_up", before, before + 1);
                    break;
                  case LaserRequestOutcome::kPreempted:
                    traceLaser(now, "preempt_down", pending_before,
                               before);
                    break;
                  case LaserRequestOutcome::kPreemptedAndDispatched:
                    traceLaser(now, "preempt_down", pending_before,
                               before);
                    traceLaser(now, "request_up", before, before + 1);
                    break;
                  case LaserRequestOutcome::kAlreadyRising:
                    traceLaser(now, "drop", before, before + 1);
                    break;
                  case LaserRequestOutcome::kAtMax:
                    break;
                }
                if (target_br >
                    maxBitRateForLevel(laser_.guaranteedLevel())) {
                    // Still waiting for light: hold the electrical
                    // level until the VOA responds.
                    opticalStalls_++;
                    return;
                }
                // A preempted decrease restored enough light; the
                // electrical upgrade may proceed this window.
            }
        }
        link_.requestLevel(now, target);
        decisionsUp_++;
    } else if (decision == LevelDecision::kDown &&
               level > params_.minLevel) {
        link_.requestLevel(now, level - 1);
        decisionsDown_++;
    }
}

void
LinkController::onLaserEpoch(Cycle now)
{
    if (params_.opticalMode != OpticalMode::kTriLevel)
        return;
    syncLaser(now);
    // Fold in the level in force right now — the last window's sample
    // may predate an upgrade decided in the same window.
    laser_.observeBitRate(
        link_.levels().level(link_.currentLevel()).brGbps);
    int before = static_cast<int>(laser_.level());
    if (laser_.epochDecision(now))
        traceLaser(now, "request_down", before, before - 1);
}

PolicyEngine::PolicyEngine(Kernel &kernel, Network &net,
                           const Params &params)
    : params_(params)
{
    switch (params_.mode) {
      case PolicyMode::kDvs: {
        for (std::size_t i = 0; i < net.numLinks(); i++) {
            auto [provider, port] = net.downstreamOf(i);
            const LinkSpec &spec = net.linkSpec(i);
            std::function<int()> backlog;
            if (spec.kind == LinkKind::kInjection) {
                Node *node = &net.node(spec.srcNode);
                backlog = [node]() {
                    return static_cast<int>(node->sourceQueueFlits());
                };
            } else {
                Router *router = &net.router(spec.srcRouter);
                int src_port = spec.srcPort.value();
                backlog = [router, src_port]() {
                    return router->bufferedFor(src_port);
                };
            }
            dvs_.push_back(std::make_unique<LinkController>(
                net.link(i), provider, port, params_.link,
                std::move(backlog)));
        }
        if (net.powerLedger().thermalEnabled()) {
            // Controller i drives link i, which is ledger row i.
            for (std::size_t i = 0; i < dvs_.size(); i++)
                dvs_[i]->setThermal(&net.powerLedger(),
                                    static_cast<int>(i));
        }
        kernel.schedulePeriodic(params_.windowCycles,
                                params_.windowCycles,
                                [this](Cycle now) { onWindow(now); });
        if (params_.link.opticalMode == OpticalMode::kTriLevel) {
            Cycle epoch = params_.link.laser.decisionEpochCycles;
            kernel.schedulePeriodic(epoch, epoch, [this](Cycle now) {
                onLaserEpoch(now);
            });
        }
        break;
      }
      case PolicyMode::kProportional: {
        for (std::size_t i = 0; i < net.numLinks(); i++) {
            const LinkSpec &spec = net.linkSpec(i);
            std::function<int()> backlog;
            if (spec.kind == LinkKind::kInjection) {
                Node *node = &net.node(spec.srcNode);
                backlog = [node]() {
                    return static_cast<int>(node->sourceQueueFlits());
                };
            } else {
                Router *router = &net.router(spec.srcRouter);
                int src_port = spec.srcPort.value();
                backlog = [router, src_port]() {
                    return router->bufferedFor(src_port);
                };
            }
            proportional_.push_back(
                std::make_unique<ProportionalController>(
                    net.link(i), params_.proportional,
                    std::move(backlog)));
        }
        kernel.schedulePeriodic(params_.windowCycles,
                                params_.windowCycles,
                                [this](Cycle now) { onWindow(now); });
        break;
      }
      case PolicyMode::kOnOff: {
        for (std::size_t i = 0; i < net.numLinks(); i++) {
            const LinkSpec &spec = net.linkSpec(i);
            std::function<bool()> waiting;
            if (spec.kind == LinkKind::kInjection) {
                Node *node = &net.node(spec.srcNode);
                waiting = [node]() {
                    return node->sourceQueueFlits() > 0;
                };
            } else {
                Router *router = &net.router(spec.srcRouter);
                int port = spec.srcPort.value();
                waiting = [router, port]() {
                    return router->outputWaiting(port);
                };
            }
            onOff_.push_back(std::make_unique<OnOffController>(
                net.link(i), std::move(waiting), params_.onOff));
        }
        kernel.schedulePeriodic(params_.windowCycles,
                                params_.windowCycles,
                                [this](Cycle now) { onWindow(now); });
        // Wake probing runs on a short sub-window cadence: waking only
        // at window boundaries would add seconds of latency.
        Cycle probe = params_.windowCycles / 10;
        if (probe == 0)
            probe = 1;
        kernel.schedulePeriodic(probe, probe, [this](Cycle now) {
            for (auto &c : onOff_)
                c->maybeWake(now);
        });
        break;
      }
      case PolicyMode::kStatic: {
        int level = params_.staticLevel;
        for (std::size_t i = 0; i < net.numLinks(); i++) {
            OpticalLink &link = net.link(i);
            int target =
                level == kInvalid ? link.levels().maxLevel() : level;
            if (link.currentLevel() != target)
                link.requestLevel(0, target);
        }
        break;
      }
    }
}

void
PolicyEngine::onWindow(Cycle now)
{
    for (auto &c : dvs_)
        c->onWindow(now);
    for (auto &c : onOff_)
        c->onWindow(now);
    for (auto &c : proportional_)
        c->onWindow(now);
}

void
PolicyEngine::onLaserEpoch(Cycle now)
{
    for (auto &c : dvs_)
        c->onLaserEpoch(now);
}

std::uint64_t
PolicyEngine::totalDecisionsUp() const
{
    std::uint64_t n = 0;
    for (const auto &c : dvs_)
        n += c->decisionsUp();
    return n;
}

std::uint64_t
PolicyEngine::totalDecisionsDown() const
{
    std::uint64_t n = 0;
    for (const auto &c : dvs_)
        n += c->decisionsDown();
    return n;
}

std::uint64_t
PolicyEngine::totalOpticalStalls() const
{
    std::uint64_t n = 0;
    for (const auto &c : dvs_)
        n += c->opticalStalls();
    return n;
}

std::uint64_t
PolicyEngine::totalDvsClamps() const
{
    std::uint64_t n = 0;
    for (const auto &c : dvs_)
        n += c->dvsClamps();
    return n;
}

std::uint64_t
PolicyEngine::totalThermalThrottles() const
{
    std::uint64_t n = 0;
    for (const auto &c : dvs_)
        n += c->thermalThrottles();
    return n;
}

std::uint64_t
PolicyEngine::totalVoaDelayed() const
{
    std::uint64_t n = 0;
    for (const auto &c : dvs_)
        n += c->laser().voaDelayed();
    return n;
}

std::uint64_t
PolicyEngine::totalVoaLost() const
{
    std::uint64_t n = 0;
    for (const auto &c : dvs_)
        n += c->laser().voaLost();
    return n;
}

std::uint64_t
PolicyEngine::totalVoaRetries() const
{
    std::uint64_t n = 0;
    for (const auto &c : dvs_)
        n += c->laser().voaRetries();
    return n;
}

void
PolicyEngine::setTraceSink(TraceSink *sink)
{
    // kDvs creates one controller per link in link-index order, so the
    // vector index *is* the link's trace id.
    for (std::size_t i = 0; i < dvs_.size(); i++)
        dvs_[i]->setTrace(sink, static_cast<int>(i));
}

void
PolicyEngine::setFaultInjector(FaultInjector *faults)
{
    // Same index correspondence as setTraceSink: controller i drives
    // link i, so the per-link fault stream index is i.
    for (std::size_t i = 0; i < dvs_.size(); i++)
        dvs_[i]->setFault(faults, static_cast<int>(i));
}

} // namespace oenet
