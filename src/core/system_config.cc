#include "core/system_config.hh"

#include "phy/calibration.hh"

#include "common/log.hh"

namespace oenet {

SystemConfig
SystemConfig::fromConfig(const Config &config)
{
    SystemConfig c;
    c.topology = parseTopologyKind(
        config.getString("topology", topologyKindName(c.topology)));
    c.meshX = static_cast<int>(config.getInt("mesh.x", c.meshX));
    c.meshY = static_cast<int>(config.getInt("mesh.y", c.meshY));
    c.clusterSize =
        static_cast<int>(config.getInt("mesh.cluster", c.clusterSize));
    c.fatTreeArity =
        static_cast<int>(config.getInt("topo.arity", c.fatTreeArity));

    c.numVcs = static_cast<int>(config.getInt("router.vcs", c.numVcs));
    c.bufferDepthPerPort = static_cast<int>(
        config.getInt("router.buffer", c.bufferDepthPerPort));
    std::string routing = config.getString("router.routing", "xy");
    if (routing == "xy") {
        c.routing = RoutingAlgo::kXY;
    } else if (routing == "yx") {
        c.routing = RoutingAlgo::kYX;
    } else if (routing == "westfirst") {
        c.routing = RoutingAlgo::kWestFirst;
    } else {
        fatal("router.routing must be xy, yx, or westfirst, got '%s'",
              routing.c_str());
    }

    std::string scheme = config.getString("link.scheme", "modulator");
    if (scheme == "vcsel") {
        c.scheme = LinkScheme::kVcsel;
    } else if (scheme == "modulator") {
        c.scheme = LinkScheme::kModulator;
    } else {
        fatal("link.scheme must be vcsel or modulator, got '%s'",
              scheme.c_str());
    }
    c.brMinGbps = config.getDouble("link.br_min", c.brMinGbps);
    c.brMaxGbps = config.getDouble("link.br_max", c.brMaxGbps);
    c.numLevels =
        static_cast<int>(config.getInt("link.levels", c.numLevels));
    c.freqTransitionCycles = config.getUint("link.tbr",
                                            c.freqTransitionCycles);
    c.voltTransitionCycles = config.getUint("link.tv",
                                            c.voltTransitionCycles);
    c.propagationCycles =
        config.getUint("link.propagation", c.propagationCycles);
    c.wakeSettleCycles =
        config.getUint("link.wake_settle", c.wakeSettleCycles);

    c.thermal.enabled =
        config.getBool("leakage.enabled", c.thermal.enabled);
    c.thermal.subLeakMw =
        config.getDouble("leakage.sub_mw", c.thermal.subLeakMw);
    c.thermal.gateLeakMw =
        config.getDouble("leakage.gate_mw", c.thermal.gateLeakMw);
    c.thermal.refTempC =
        config.getDouble("leakage.ref_temp", c.thermal.refTempC);
    c.thermal.subTempSlopeC =
        config.getDouble("leakage.sub_slope", c.thermal.subTempSlopeC);
    c.thermal.gateTempSlopeC = config.getDouble(
        "leakage.gate_slope", c.thermal.gateTempSlopeC);
    c.thermal.ambientC =
        config.getDouble("thermal.ambient", c.thermal.ambientC);
    c.thermal.thermalResCPerW = config.getDouble(
        "thermal.resistance", c.thermal.thermalResCPerW);
    c.thermal.tauCycles =
        config.getUint("thermal.tau", c.thermal.tauCycles);
    c.thermal.epochCycles =
        config.getUint("thermal.epoch", c.thermal.epochCycles);
    c.thermal.throttleC =
        config.getDouble("thermal.throttle", c.thermal.throttleC);

    c.idleElision = config.getBool("sim.idle_elision", c.idleElision);
    if (config.has("sim.conservation_audit")) {
        c.conservationAudit =
            config.getBool("sim.conservation_audit", false);
    }
    c.shards =
        static_cast<int>(config.getInt("sim.shards", c.shards));
    c.metricsIntervalCycles = config.getUint("trace.metrics_interval",
                                             c.metricsIntervalCycles);

    c.powerAware = config.getBool("policy.enabled", c.powerAware);
    std::string mode = config.getString("policy.mode", "dvs");
    if (mode == "dvs") {
        c.policyMode = PolicyMode::kDvs;
    } else if (mode == "onoff") {
        c.policyMode = PolicyMode::kOnOff;
    } else if (mode == "proportional") {
        c.policyMode = PolicyMode::kProportional;
    } else if (mode == "static") {
        c.policyMode = PolicyMode::kStatic;
    } else {
        fatal("policy.mode must be dvs, proportional, onoff, or "
              "static, got '%s'",
              mode.c_str());
    }
    c.windowCycles = config.getUint("policy.window", c.windowCycles);
    c.policy.thLowUncongested =
        config.getDouble("policy.th_low", c.policy.thLowUncongested);
    c.policy.thHighUncongested =
        config.getDouble("policy.th_high", c.policy.thHighUncongested);
    c.policy.thLowCongested = config.getDouble(
        "policy.th_low_congested", c.policy.thLowCongested);
    c.policy.thHighCongested = config.getDouble(
        "policy.th_high_congested", c.policy.thHighCongested);
    c.policy.buCongested =
        config.getDouble("policy.bu_congested", c.policy.buCongested);
    c.policy.slidingWindows = static_cast<int>(
        config.getInt("policy.sliding", c.policy.slidingWindows));

    std::string optical = config.getString("optical.mode", "fixed");
    if (optical == "fixed") {
        c.opticalMode = OpticalMode::kFixed;
    } else if (optical == "trilevel") {
        c.opticalMode = OpticalMode::kTriLevel;
    } else {
        fatal("optical.mode must be fixed or trilevel, got '%s'",
              optical.c_str());
    }
    c.laser.responseCycles =
        config.getUint("optical.response", c.laser.responseCycles);
    c.laser.decisionEpochCycles = config.getUint(
        "optical.epoch", c.laser.decisionEpochCycles);

    c.staticLevel =
        static_cast<int>(config.getInt("policy.static_level",
                                       c.staticLevel));
    c.senderBacklogEscalation =
        config.getBool("policy.backlog_escalation",
                       c.senderBacklogEscalation);
    c.senderBacklogFlits = static_cast<int>(
        config.getInt("policy.backlog_flits", c.senderBacklogFlits));
    c.minLevel =
        static_cast<int>(config.getInt("policy.min_level", c.minLevel));

    c.proportional.targetUtilization = config.getDouble(
        "policy.target_util", c.proportional.targetUtilization);
    c.proportional.slidingWindows = static_cast<int>(config.getInt(
        "policy.prop_sliding", c.proportional.slidingWindows));

    c.fault.enabled = config.getBool("fault.enabled", c.fault.enabled);
    c.fault.seed = config.getUint("fault.seed", c.fault.seed);
    c.fault.berScale =
        config.getDouble("fault.ber_scale", c.fault.berScale);
    c.fault.berFloor =
        config.getDouble("fault.ber_floor", c.fault.berFloor);
    c.fault.lockLossPerCycle = config.getDouble(
        "fault.lock_loss", c.fault.lockLossPerCycle);
    c.fault.lockLossOutageCycles = config.getUint(
        "fault.lock_outage", c.fault.lockLossOutageCycles);
    c.fault.hardFailPerCycle = config.getDouble(
        "fault.hard_fail", c.fault.hardFailPerCycle);
    c.fault.killLink = static_cast<int>(
        config.getInt("fault.kill_link", c.fault.killLink));
    c.fault.killCycle =
        config.getUint("fault.kill_cycle", c.fault.killCycle);
    c.fault.voaDelayProb =
        config.getDouble("fault.voa_delay", c.fault.voaDelayProb);
    c.fault.voaDelayFactor = config.getDouble(
        "fault.voa_delay_factor", c.fault.voaDelayFactor);
    c.fault.voaLossProb =
        config.getDouble("fault.voa_loss", c.fault.voaLossProb);
    c.fault.voaTimeoutCycles = config.getUint(
        "fault.voa_timeout", c.fault.voaTimeoutCycles);
    c.fault.ackProcessingCycles = config.getUint(
        "fault.ack_cycles", c.fault.ackProcessingCycles);
    c.fault.retryBackoffBase = config.getUint(
        "fault.backoff_base", c.fault.retryBackoffBase);
    c.fault.retryBackoffCap = config.getUint(
        "fault.backoff_cap", c.fault.retryBackoffCap);
    c.fault.clampErrorRate =
        config.getDouble("fault.clamp_rate", c.fault.clampErrorRate);
    c.fault.clampForceUp =
        config.getBool("fault.clamp_force_up", c.fault.clampForceUp);
    c.fault.orphanTimeoutCycles = config.getUint(
        "fault.orphan_timeout", c.fault.orphanTimeoutCycles);

    // Test-chip calibration feed-in (Section 5's stated next step).
    std::string calib = config.getString("link.calibration", "");
    if (!calib.empty()) {
        LinkCalibration cal = loadLinkCalibration(calib);
        c.power = cal.power;
        c.vmaxV = cal.power.vmaxV;
        c.brMaxGbps = cal.power.brMaxGbps;
        if (cal.levels) {
            c.measuredLevels = cal.levels;
            c.brMinGbps = cal.levels->minBitRateGbps();
            c.brMaxGbps = cal.levels->maxBitRateGbps();
            c.numLevels = cal.levels->numLevels();
        }
    }

    c.validate();
    return c;
}

void
SystemConfig::validate() const
{
    auto checkProb = [](const char *name, double p) {
        if (!(p >= 0.0 && p <= 1.0))
            fatal("%s must be a probability in [0, 1], got %g", name, p);
    };

    topologyParams().validate();
    if (numVcs < 1)
        fatal("router.vcs must be >= 1, got %d", numVcs);
    if (topology == TopologyKind::kTorus && numVcs < 2) {
        fatal("topology=torus needs router.vcs >= 2 (dateline escape "
              "VC classes), got %d", numVcs);
    }
    if (routing == RoutingAlgo::kWestFirst &&
        topology == TopologyKind::kTorus) {
        fatal("router.routing=westfirst is a mesh-only turn model; "
              "torus routing must be xy or yx");
    }
    {
        TopologyParams tp = topologyParams();
        int ports = tp.portsPerRouter();
        if (ports > 32) {
            fatal("topology %s needs %d ports per router, above the "
                  "32-port limit (shrink mesh.cluster or topo.arity)",
                  topologyKindName(topology), ports);
        }
        if (ports * numVcs > 64) {
            fatal("%d ports x %d VCs = %d exceeds the router's 64-wide "
                  "allocator masks (shrink router.vcs, mesh.cluster, "
                  "or topo.arity)", ports, numVcs, ports * numVcs);
        }
    }
    if (bufferDepthPerPort < numVcs) {
        fatal("router.buffer (%d) must be >= router.vcs (%d): every "
              "VC needs at least one buffer slot",
              bufferDepthPerPort, numVcs);
    }
    if (shards < 1)
        fatal("sim.shards must be >= 1, got %d", shards);
    if (!(brMinGbps > 0.0))
        fatal("link.br_min must be > 0, got %g", brMinGbps);
    if (!(brMaxGbps >= brMinGbps)) {
        fatal("link.br_max (%g) must be >= link.br_min (%g)",
              brMaxGbps, brMinGbps);
    }
    if (numLevels < 1)
        fatal("link.levels must be >= 1, got %d", numLevels);
    if (!(vmaxV > 0.0))
        fatal("vmax must be > 0, got %g", vmaxV);
    // Zero transition times are legitimate (the no_tv/no_tbr
    // ablations); negative values cannot happen (unsigned).
    if (!(offPowerMw >= 0.0))
        fatal("off power must be >= 0, got %g", offPowerMw);

    int max_level = numLevels - 1;
    if (staticLevel != kInvalid &&
        (staticLevel < 0 || staticLevel > max_level)) {
        fatal("policy.static_level %d out of range [0, %d]",
              staticLevel, max_level);
    }
    if (minLevel < 0 || minLevel > max_level) {
        fatal("policy.min_level %d out of range [0, %d]", minLevel,
              max_level);
    }
    if (powerAware && windowCycles == 0)
        fatal("policy.window must be > 0 when the policy is enabled");
    if (metricsIntervalCycles == 0) {
        fatal("trace.metrics_interval must be > 0 (power snapshots "
              "are only emitted while a trace sink is attached; "
              "detach the sink to disable them, do not zero the "
              "interval)");
    }
    thermal.validate();
    if (opticalMode == OpticalMode::kTriLevel) {
        if (scheme != LinkScheme::kModulator)
            fatal("tri-level optical power requires the modulator "
                  "scheme");
        if (laser.decisionEpochCycles == 0)
            fatal("optical.epoch must be > 0 in tri-level mode");
    }

    checkProb("fault.ber_floor", fault.berFloor);
    if (!(fault.berScale >= 0.0))
        fatal("fault.ber_scale must be >= 0, got %g", fault.berScale);
    checkProb("fault.lock_loss", fault.lockLossPerCycle);
    checkProb("fault.hard_fail", fault.hardFailPerCycle);
    checkProb("fault.voa_delay", fault.voaDelayProb);
    checkProb("fault.voa_loss", fault.voaLossProb);
    if (!(fault.voaDelayProb + fault.voaLossProb <= 1.0)) {
        fatal("fault.voa_delay + fault.voa_loss must be <= 1, got %g",
              fault.voaDelayProb + fault.voaLossProb);
    }
    if (!(fault.voaDelayFactor >= 1.0)) {
        fatal("fault.voa_delay_factor must be >= 1, got %g",
              fault.voaDelayFactor);
    }
    if (fault.killLink != kInvalid && fault.killLink < 0) {
        fatal("fault.kill_link must be a link index or -1, got %d",
              fault.killLink);
    }
    if (fault.retryBackoffCap < fault.retryBackoffBase) {
        fatal("fault.backoff_cap (%llu) must be >= fault.backoff_base "
              "(%llu)",
              static_cast<unsigned long long>(fault.retryBackoffCap),
              static_cast<unsigned long long>(fault.retryBackoffBase));
    }
    checkProb("fault.clamp_rate", fault.clampErrorRate);
}

bool
SystemConfig::conservationAuditEnabled() const
{
    if (conservationAudit.has_value())
        return *conservationAudit;
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

TopologyParams
SystemConfig::topologyParams() const
{
    TopologyParams t;
    t.kind = topology;
    t.meshX = meshX;
    t.meshY = meshY;
    t.clusterSize = clusterSize;
    t.fatTreeArity = fatTreeArity;
    return t;
}

Network::Params
SystemConfig::networkParams() const
{
    Network::Params p;
    p.topo = topologyParams();
    p.router.numVcs = numVcs;
    p.router.bufferDepthPerPort = bufferDepthPerPort;
    p.router.routing = routing;
    p.link.scheme = scheme;
    p.link.power = power;
    p.link.power.vmaxV = vmaxV;
    p.link.power.brMaxGbps = brMaxGbps;
    p.link.freqTransitionCycles = freqTransitionCycles;
    p.link.voltTransitionCycles = voltTransitionCycles;
    p.link.propagationCycles = propagationCycles;
    p.link.offPowerMw = offPowerMw;
    p.link.wakeSettleCycles = wakeSettleCycles;
    // Links start at the maximum rate; the policy scales them down.
    p.link.initialLevel = kInvalid;
    p.levels = measuredLevels
                   ? *measuredLevels
                   : BitrateLevelTable::linear(brMinGbps, brMaxGbps,
                                               numLevels, vmaxV);
    p.shards = shards;
    p.faults = fault.enabled;
    p.thermal = thermal;
    return p;
}

PolicyEngine::Params
SystemConfig::engineParams() const
{
    PolicyEngine::Params p;
    p.mode = policyMode;
    p.windowCycles = windowCycles;
    p.link.policy = policy;
    p.link.opticalMode = opticalMode;
    p.link.laser = laser;
    p.link.minLevel = minLevel;
    p.link.senderBacklogEscalation = senderBacklogEscalation;
    p.link.senderBacklogFlits = senderBacklogFlits;
    p.onOff = onOff;
    p.proportional = proportional;
    p.staticLevel = staticLevel;
    return p;
}

} // namespace oenet
