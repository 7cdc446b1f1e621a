#include "core/poe_system.hh"

#include <algorithm>

#include "common/log.hh"
#include "fault/fault_injector.hh"
#include "network/power_report.hh"

namespace oenet {

PoeSystem::PoeSystem(const SystemConfig &config)
    : config_(config), latencyHist_(0.0, 50000.0, 500)
{
    config_.validate();
    kernel_.setIdleElision(config_.idleElision);
    // The traffic pump ticks before routers and nodes so packets created
    // at cycle t can start injecting at cycle t.
    kernel_.addTicking(this);
    network_ = std::make_unique<Network>(kernel_, config_.networkParams());
    network_->setPacketSink(this);
    if (config_.fault.enabled) {
        if (config_.fault.killLink != kInvalid &&
            config_.fault.killLink >=
                static_cast<int>(network_->numLinks())) {
            warn("fault.kill_link %d >= %zu links; no link will die",
                 config_.fault.killLink, network_->numLinks());
        }
        faults_ = std::make_unique<FaultInjector>(
            config_.fault, static_cast<int>(network_->numLinks()));
        network_->setFaultInjector(faults_.get());
    }
    if (config_.powerAware) {
        engine_ = std::make_unique<PolicyEngine>(kernel_, *network_,
                                                 config_.engineParams());
        if (faults_)
            engine_->setFaultInjector(faults_.get());
    }
    traceMux_ = std::make_unique<ShardTraceMux>(kernel_.shardCount());
    pendingEjections_.resize(
        static_cast<std::size_t>(kernel_.shardCount()) + 1);
    kernel_.addPostPass([this](Cycle) {
        traceMux_->flush();
        replayEjections();
    });
}

PoeSystem::~PoeSystem()
{
    if (traceSink_)
        traceSink_->endRun(kernel_.now());
}

void
PoeSystem::setTraffic(std::unique_ptr<TrafficSource> traffic)
{
    traffic_ = std::move(traffic);
    if (traffic_)
        wakeAt(kernel_.now()); // the pump may have parked while idle
}

void
PoeSystem::setTraceSink(TraceSink *sink, Cycle metrics_interval)
{
    // End the run on the outgoing sink: a caller that detaches (e.g.
    // to run the conservation audit's settle cycles untraced) gets
    // its run_end at the detach cycle — exactly where the destructor
    // would have emitted it — and the destructor won't re-emit.
    if (traceSink_ != nullptr && traceSink_ != sink)
        traceSink_->endRun(kernel_.now());
    traceSink_ = sink;
    // Link-layer emissions can fire inside the parallel phase, so the
    // network sees the mux; the engine and this class emit only from
    // the driving thread and go straight to the sink.
    traceMux_->setTarget(sink);
    network_->setTraceSink(sink ? traceMux_.get() : nullptr);
    if (engine_)
        engine_->setTraceSink(sink);
    // Always clear any previously installed hook first: re-attaching
    // with snapshots disabled (interval 0) used to leave the old hook
    // firing into the new sink.
    kernel_.setEpochHook(0, nullptr);
    if (!sink)
        return;
    sink->beginRun(network_->traceLinkTable());
    if (metrics_interval > 0) {
        kernel_.setEpochHook(metrics_interval, [this](Cycle now) {
            emitPowerSnapshot(now);
        });
    }
}

void
PoeSystem::emitPowerSnapshot(Cycle now)
{
    PowerReport report = makePowerReport(*network_, now);
    PowerSnapshotEvent e;
    e.at = now;
    e.numKinds = 0;
    for (const KindReport &kr : report.byKind) {
        auto &out = e.kinds[e.numKinds++];
        out.kind = linkKindName(kr.kind);
        out.count = kr.count;
        out.powerMw = kr.powerMw;
        out.baselineMw = kr.baselineMw;
        out.meanLevel = kr.meanLevel;
        out.totalFlits = kr.totalFlits;
    }
    e.totalPowerMw = report.totalPowerMw;
    e.baselinePowerMw = report.baselinePowerMw;
    e.normalizedPower = report.normalizedPower;
    if (report.thermal) {
        e.hasThermal = true;
        e.leakagePowerMw = report.leakagePowerMw;
        e.maxTempC = report.maxTempC;
        e.vcEnergyMwCycles = report.vcEnergyMwCycles;
    }
    traceSink_->powerSnapshot(e);
}

void
PoeSystem::tick(Cycle now)
{
    if (!traffic_)
        return;
    scratchArrivals_.clear();
    traffic_->arrivals(now, scratchArrivals_);
    for (const PacketDesc &p : scratchArrivals_) {
        network_->injectPacket(p.src, p.dst, p.len, now);
        if (measuring_)
            measuredCreated_++;
    }
}

void
PoeSystem::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; i++)
        kernel_.step();
}

void
PoeSystem::startMeasurement()
{
    measuring_ = true;
    measureEnded_ = false;
    measureStart_ = kernel_.now();
    // Restart link-level cumulative stats so per-link reports
    // (PowerReport totals, energyMj) exclude the warm-up; the start
    // baselines below are captured *after* the reset, so the delta
    // metrics are unchanged by it.
    network_->resetStats(kernel_.now());
    powerIntegralStart_ =
        network_->totalPowerIntegralMwCycles(kernel_.now());
    leakIntegralStart_ =
        network_->totalLeakageIntegralMwCycles(kernel_.now());
    measuredCreated_ = 0;
    measuredEjected_ = 0;
    measuredFlitsEjectedStart_ = network_->flitsEjected();
    latency_.reset();
    latencyHist_.reset();
    transitionsStart_ = totalTransitions();
}

void
PoeSystem::stopMeasurement()
{
    if (!measuring_)
        panic("PoeSystem::stopMeasurement without startMeasurement");
    measuring_ = false;
    measureEnded_ = true;
    measureEnd_ = kernel_.now();
    powerIntegralEnd_ =
        network_->totalPowerIntegralMwCycles(kernel_.now());
    leakIntegralEnd_ =
        network_->totalLeakageIntegralMwCycles(kernel_.now());
    measuredFlitsEjectedEnd_ = network_->flitsEjected();
}

void
PoeSystem::packetEjected(const Flit &tail, Cycle now)
{
    if (Kernel::inShardPass()) {
        auto &buf = pendingEjections_[static_cast<std::size_t>(
            Kernel::shardPassDomain())];
        buf.push_back(
            PendingEjection{Kernel::shardPassOrder(), tail, now});
        return;
    }
    processEjection(tail, now);
}

void
PoeSystem::replayEjections()
{
    ejectScratch_.clear();
    for (auto &buf : pendingEjections_) {
        ejectScratch_.insert(ejectScratch_.end(), buf.begin(),
                             buf.end());
        buf.clear();
    }
    if (ejectScratch_.empty())
        return;
    // Tick orders are unique across domains, so sorting by order
    // replays ejections in the canonical serial node order.
    std::stable_sort(ejectScratch_.begin(), ejectScratch_.end(),
                     [](const PendingEjection &a,
                        const PendingEjection &b) {
                         return a.order < b.order;
                     });
    for (const PendingEjection &p : ejectScratch_)
        processEjection(p.tail, p.at);
    ejectScratch_.clear();
}

void
PoeSystem::processEjection(const Flit &tail, Cycle now)
{
    if (traceSink_) {
        traceSink_->packetRetire(PacketRetireEvent{
            now, tail.packet, tail.src, tail.dst, tail.createdAt,
            now - tail.createdAt, tail.len});
    }
    bool in_window = tail.createdAt >= measureStart_ &&
                     (measuring_ || tail.createdAt < measureEnd_);
    if (!measureEnded_ && !measuring_)
        in_window = false;
    if (!in_window)
        return;
    measuredEjected_++;
    auto lat = static_cast<double>(now - tail.createdAt);
    latency_.add(lat);
    latencyHist_.add(lat);
}

bool
PoeSystem::awaitDrain(Cycle limit)
{
    for (Cycle i = 0; i < limit; i++) {
        if (measuredEjected_ >= measuredCreated_)
            return true;
        kernel_.step();
    }
    return measuredEjected_ >= measuredCreated_;
}

std::uint64_t
PoeSystem::totalTransitions() const
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < network_->numLinks(); i++)
        n += network_->link(i).numTransitions();
    return n;
}

std::uint64_t
PoeSystem::auditConservation(Cycle settle_limit)
{
    // Stop creating packets, then let the fabric settle: in-flight
    // flits eject (or drop at dead ports), returned credits walk back
    // to their pools. Under faults the fabric may never fully drain
    // (stranded wormholes with orphan reclaim off), so the loop is
    // budgeted, and the flit equation below holds at any instant —
    // only the credit check needs quiescence.
    setTraffic(nullptr);
    auto inFabric = [this] {
        return network_->flitsInSystem() - network_->sourceQueuedFlits();
    };
    auto creditsPending = [this] {
        for (int r = 0; r < network_->numRouters(); r++) {
            if (network_->router(r).pendingCreditCount() != 0)
                return true;
        }
        for (int n = 0; n < network_->numNodes(); n++) {
            if (network_->node(n).pendingCreditCount() != 0)
                return true;
        }
        return false;
    };
    for (Cycle i = 0; i < settle_limit; i++) {
        if (inFabric() == 0 && !creditsPending())
            break;
        kernel_.step();
    }

    std::uint64_t violations = 0;

    // Flit conservation (lifetime counters; valid settled or not).
    std::uint64_t injected = network_->flitsInjected();
    std::uint64_t poisoned = network_->poisonedWormholes();
    std::uint64_t ejected = network_->flitsEjected();
    std::uint64_t retired = network_->poisonTailsRetired();
    std::uint64_t dropFail = network_->flitsDroppedOnFailLifetime();
    std::uint64_t dropDead = network_->flitsDroppedDeadPort();
    std::uint64_t inflight = inFabric();
    std::uint64_t lhs = injected + poisoned;
    std::uint64_t rhs = ejected + retired + dropFail + dropDead + inflight;
    if (lhs != rhs) {
        violations++;
        warn("conservation audit: flit ledger imbalance: "
             "injected %llu + poisoned %llu != ejected %llu + "
             "retired %llu + dropped_on_fail %llu + "
             "dropped_dead_port %llu + in_fabric %llu",
             static_cast<unsigned long long>(injected),
             static_cast<unsigned long long>(poisoned),
             static_cast<unsigned long long>(ejected),
             static_cast<unsigned long long>(retired),
             static_cast<unsigned long long>(dropFail),
             static_cast<unsigned long long>(dropDead),
             static_cast<unsigned long long>(inflight));
    }

    // Credit restitution — only meaningful once every flit has left
    // the fabric and every returned credit applied, and only on a
    // fault-free fabric (a hard-failed link legitimately strands the
    // credits of flits it dropped).
    if (inflight != 0 || creditsPending() ||
        network_->failedLinks() != 0) {
        return violations;
    }
    for (int ri = 0; ri < network_->numRouters(); ri++) {
        Router &r = network_->router(ri);
        for (int p = 0; p < r.numPorts(); p++) {
            if (r.outputLink(p) == nullptr)
                continue;
            for (int v = 0; v < r.numVcs(); v++) {
                if (!r.outputVcFree(p, v)) {
                    violations++;
                    warn("conservation audit: %s output %d vc %d "
                         "still allocated at quiescence",
                         r.name().c_str(), p, v);
                }
                if (r.outputCredits(p, v) != r.outputVcCapacity(p, v)) {
                    violations++;
                    warn("conservation audit: %s output %d vc %d "
                         "credits %d != capacity %d",
                         r.name().c_str(), p, v, r.outputCredits(p, v),
                         r.outputVcCapacity(p, v));
                }
            }
        }
    }
    for (int ni = 0; ni < network_->numNodes(); ni++) {
        Node &n = network_->node(ni);
        for (int v = 0; v < n.numVcs(); v++) {
            if (n.injectionCredits(v) != n.injectionVcCapacity()) {
                violations++;
                warn("conservation audit: node %d vc %d injection "
                     "credits %d != capacity %d",
                     ni, v, n.injectionCredits(v),
                     n.injectionVcCapacity());
            }
        }
    }
    return violations;
}

double
PoeSystem::normalizedPowerNow()
{
    return network_->totalPowerMw(kernel_.now()) /
           network_->baselinePowerMw();
}

RunMetrics
PoeSystem::metrics()
{
    RunMetrics m;
    Cycle end = measureEnded_ ? measureEnd_ : kernel_.now();
    double integral_end =
        measureEnded_ ? powerIntegralEnd_
                      : network_->totalPowerIntegralMwCycles(end);
    m.measuredCycles = end > measureStart_ ? end - measureStart_ : 0;

    m.avgLatency = latency_.mean();
    m.maxLatency = latency_.max();
    // Histogram quantiles interpolate within bins; clamp them to the
    // observed range so coarse bins cannot report p95 > max.
    m.p50Latency = std::min(latencyHist_.quantile(0.50), m.maxLatency);
    m.p95Latency = std::min(latencyHist_.quantile(0.95), m.maxLatency);
    m.packetsMeasured = latency_.count();

    if (m.measuredCycles > 0) {
        m.avgPowerMw = (integral_end - powerIntegralStart_) /
                       static_cast<double>(m.measuredCycles);
        // avgPowerMw is *effective* power when the thermal model is
        // on (the total integral then includes leakage); report the
        // leakage component separately as well.
        if (config_.thermal.enabled) {
            double leak_end =
                measureEnded_
                    ? leakIntegralEnd_
                    : network_->totalLeakageIntegralMwCycles(end);
            m.leakagePowerMw = (leak_end - leakIntegralStart_) /
                               static_cast<double>(m.measuredCycles);
        }
        std::uint64_t ejected_end = measureEnded_
                                        ? measuredFlitsEjectedEnd_
                                        : network_->flitsEjected();
        m.throughputFlitsPerCycle =
            static_cast<double>(ejected_end -
                                measuredFlitsEjectedStart_) /
            static_cast<double>(m.measuredCycles);
        m.offeredRate = static_cast<double>(measuredCreated_) /
                        static_cast<double>(m.measuredCycles);
    }
    m.baselinePowerMw = network_->baselinePowerMw();
    if (m.baselinePowerMw > 0.0)
        m.normalizedPower = m.avgPowerMw / m.baselinePowerMw;
    m.powerLatencyProduct = m.normalizedPower * m.avgLatency;

    if (config_.thermal.enabled)
        m.maxTempC = network_->powerLedger().maxTempC();

    m.packetsInjected = network_->packetsInjected();
    m.packetsEjected = network_->packetsEjected();
    m.drained = measuredEjected_ >= measuredCreated_;
    m.transitions = totalTransitions() - transitionsStart_;
    if (engine_) {
        m.decisionsUp = engine_->totalDecisionsUp();
        m.decisionsDown = engine_->totalDecisionsDown();
        m.opticalStalls = engine_->totalOpticalStalls();
        m.dvsClamps = engine_->totalDvsClamps();
        m.voaDelayed = engine_->totalVoaDelayed();
        m.voaLost = engine_->totalVoaLost();
        m.voaRetries = engine_->totalVoaRetries();
        m.thermalThrottles = engine_->totalThermalThrottles();
    }
    if (faults_) {
        m.linkHardFailures = network_->failedLinks();
        m.flitsCorrupted = network_->flitsCorrupted();
        m.flitRetries = network_->flitRetries();
        m.lockLossEvents = network_->lockLossEvents();
        m.flitsDroppedOnFail = network_->flitsDroppedOnFail();
        m.flitsDroppedDeadPort = network_->flitsDroppedDeadPort();
        m.poisonedWormholes = network_->poisonedWormholes();
    }
    return m;
}

} // namespace oenet
