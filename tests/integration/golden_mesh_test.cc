/**
 * @file
 * Golden-output regression for the topology redesign: the paper's 8x8
 * mesh must produce byte-identical traces and metrics to the
 * pre-redesign implementation. Every trace event and the final run
 * metrics are folded into one FNV-1a fingerprint; the expected values
 * were recorded against the seed build, so any change to link
 * enumeration order, link names, routing decisions, VC allocation, or
 * power accounting shows up as a hash mismatch.
 *
 * If one of these tests fails, the mesh fast path is no longer
 * bit-compatible with published results — that is a bug, not a test to
 * update. Only a deliberate, documented output-format change may
 * re-record the constants.
 *
 * Re-recorded once for the sharded kernel (docs/DETERMINISM.md): the
 * phased step canonicalizes per-cycle trace order — link transitions
 * flush before packet retires within a cycle — so the event *stream*
 * permuted while every CSV, manifest, and metric stayed byte-identical
 * (CI's golden fig5 CSV compare pinned that). The constants are
 * shard-count- and elision-invariant; sharded_kernel_test.cc holds the
 * grid to them.
 */
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/poe_system.hh"
#include "fault/fault_injector.hh"
#include "trace/trace_sinks.hh"

using namespace oenet;

namespace {

struct HashSink final : public TraceSink
{
    std::uint64_t h = 1469598103934665603ull;

    void mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    void mixD(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
    void mixS(const char *s)
    {
        while (*s) {
            h ^= static_cast<unsigned char>(*s++);
            h *= 1099511628211ull;
        }
    }

    void beginRun(const std::vector<TraceLinkInfo> &links) override
    {
        mix(links.size());
        for (const auto &l : links) {
            mix(static_cast<std::uint64_t>(l.id));
            mixS(l.name.c_str());
            mixS(l.kind);
        }
    }
    void linkTransition(const LinkTransitionEvent &e) override
    {
        mix(e.startedAt);
        mix(e.completedAt);
        mix(static_cast<std::uint64_t>(e.linkId));
        mix(static_cast<std::uint64_t>(e.fromLevel));
        mix(static_cast<std::uint64_t>(e.toLevel));
        mixS(e.type);
    }
    void dvsDecision(const DvsDecisionEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixD(e.lu);
        mixD(e.avgLu);
        mixD(e.bu);
        mixD(e.thLow);
        mixD(e.thHigh);
        mixS(e.decision);
        mix(e.backlogEscalated ? 1 : 0);
        mix(e.downgradeVetoed ? 1 : 0);
        mix(static_cast<std::uint64_t>(e.level));
    }
    void laserEvent(const LaserTraceEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixS(e.action);
        mix(static_cast<std::uint64_t>(e.fromLevel));
        mix(static_cast<std::uint64_t>(e.toLevel));
    }
    void packetRetire(const PacketRetireEvent &e) override
    {
        mix(e.at);
        mix(e.packet);
        mix(e.src);
        mix(e.dst);
        mix(e.createdAt);
        mix(e.latency);
        mix(static_cast<std::uint64_t>(e.lenFlits));
    }
    void faultEvent(const FaultEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixS(e.kind);
        mix(static_cast<std::uint64_t>(e.attempts));
        mixD(e.aux);
    }
    void powerSnapshot(const PowerSnapshotEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.numKinds));
        for (int i = 0; i < e.numKinds; i++) {
            mixS(e.kinds[i].kind);
            mix(static_cast<std::uint64_t>(e.kinds[i].count));
            mixD(e.kinds[i].powerMw);
            mixD(e.kinds[i].baselineMw);
            mixD(e.kinds[i].meanLevel);
            mix(e.kinds[i].totalFlits);
        }
        mixD(e.totalPowerMw);
        mixD(e.baselinePowerMw);
        mixD(e.normalizedPower);
    }
};

/** The golden protocol: warm-up, measurement, drain, with @p sink
 *  attached (snapshots every @p metrics_interval cycles). */
RunMetrics
driveGolden(const SystemConfig &cfg, double rate, std::uint64_t seed,
            TraceSink &sink, Cycle metrics_interval)
{
    PoeSystem sys(cfg);
    sys.setTraceSink(&sink, metrics_interval);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(rate, 4, seed), cfg));
    sys.run(1000);
    sys.startMeasurement();
    sys.run(3000);
    sys.stopMeasurement();
    sys.setTraffic(nullptr);
    sys.awaitDrain(20000);
    RunMetrics m = sys.metrics();
    sys.setTraceSink(nullptr);
    return m;
}

std::uint64_t
fingerprintRun(const SystemConfig &cfg, double rate, std::uint64_t seed,
               Cycle metrics_interval = 500, RunMetrics *metrics = nullptr)
{
    HashSink sink;
    RunMetrics m = driveGolden(cfg, rate, seed, sink, metrics_interval);
    if (metrics != nullptr)
        *metrics = m;
    sink.mixD(m.avgLatency);
    sink.mixD(m.p95Latency);
    sink.mixD(m.avgPowerMw);
    sink.mixD(m.normalizedPower);
    sink.mixD(m.throughputFlitsPerCycle);
    sink.mix(m.packetsInjected);
    sink.mix(m.packetsEjected);
    sink.mix(m.transitions);
    sink.mix(m.flitsDroppedDeadPort);
    sink.mix(m.poisonedWormholes);
    return sink.h;
}

/** 4x4x2 west-first with every scheduled fault kind at once: CDR lock
 *  losses and a BER floor keep links changing power between calls,
 *  and a mid-run kill of inter-router link 70 reroutes traffic. */
SystemConfig
lockLossBerAndKill()
{
    SystemConfig fk;
    fk.meshX = 4;
    fk.meshY = 4;
    fk.clusterSize = 2;
    fk.routing = RoutingAlgo::kWestFirst;
    fk.windowCycles = 200;
    fk.fault.enabled = true;
    fk.fault.seed = 99;
    fk.fault.lockLossPerCycle = 2e-4;
    fk.fault.berFloor = 1e-4;
    fk.fault.killLink = 70;
    fk.fault.killCycle = 2500;
    fk.fault.orphanTimeoutCycles = 300;
    return fk;
}

} // namespace

TEST(GoldenMesh, PaperDefaultsMatchPreRedesignBytes)
{
    // 8x8 mesh, 8 nodes per rack, DVS policy — the paper configuration.
    SystemConfig paper;
    EXPECT_EQ(fingerprintRun(paper, 2.0, 7), 0xe2d9530371ba8045ull);
}

TEST(GoldenMesh, WestFirstSmallMeshMatchesPreRedesignBytes)
{
    SystemConfig wf;
    wf.meshX = 4;
    wf.meshY = 4;
    wf.clusterSize = 4;
    wf.routing = RoutingAlgo::kWestFirst;
    wf.windowCycles = 200;
    EXPECT_EQ(fingerprintRun(wf, 1.0, 11), 0x6f8215ec8c6e58e8ull);
}

TEST(GoldenMesh, FaultRerouteMatchesPreRedesignBytes)
{
    // Scripted inter-router link kill exercises the route-around path.
    SystemConfig fk;
    fk.meshX = 4;
    fk.meshY = 4;
    fk.clusterSize = 2;
    fk.routing = RoutingAlgo::kWestFirst;
    fk.windowCycles = 200;
    fk.fault.enabled = true;
    fk.fault.killLink = 70; // an inter-router link on the 4x4x2 system
    fk.fault.killCycle = 1500;
    fk.fault.orphanTimeoutCycles = 300;
    EXPECT_EQ(fingerprintRun(fk, 0.8, 13), 0x61cd1d1fcc437c54ull);
}

TEST(GoldenMesh, LockLossBerAndKillMatchPreLedgerBytes)
{
    // The power snapshots every 250 cycles pin which links each
    // snapshot advances, and in which order, so a fault-attached link
    // the power accounting forgot to bring current permutes the fault
    // events in the stream.
    EXPECT_EQ(fingerprintRun(lockLossBerAndKill(), 0.8, 13, 250),
              0x4243f4255decc0ceull);
}

TEST(GoldenMesh, LockLossBerAndKillJsonlTextMatchesRecordedBytes)
{
    // The same run through the real JSONL writer: HashSink hashes
    // event fields, so only this case pins the text of the fault,
    // transition, dvs, packet and power lines.
    std::ostringstream os;
    {
        JsonlTraceSink sink(os);
        driveGolden(lockLossBerAndKill(), 0.8, 13, sink, 250);
    }
    const std::string text = os.str();
    std::uint64_t h = 1469598103934665603ull;
    for (char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    EXPECT_EQ(text.size(), 3526272u);
    EXPECT_EQ(h, 0xe147f8d57c5fc9f2ull);
}

TEST(GoldenMesh, VcselLockLossAndBerMatchRecordedBytes)
{
    // A VCSEL link's received power follows its supply voltage, so its
    // flit corruption probability changes with every DVS level (and,
    // while the voltage ramps up ahead of a frequency increase, is
    // still the old level's). The measured level table scales vdd
    // faster than the bit rate, giving each level its own margin, and
    // berScale lifts the margin-derived BER (4.4e-4 at the lowest
    // level, 1e-6 at the highest) well above the floor.
    SystemConfig vc;
    vc.meshX = 4;
    vc.meshY = 4;
    vc.clusterSize = 2;
    vc.routing = RoutingAlgo::kWestFirst;
    vc.windowCycles = 200;
    vc.scheme = LinkScheme::kVcsel;
    vc.measuredLevels = BitrateLevelTable({{5.0, 0.81},
                                           {6.0, 1.0},
                                           {7.0, 1.2},
                                           {8.0, 1.4},
                                           {9.0, 1.6},
                                           {10.0, 1.8}});
    vc.fault.enabled = true;
    vc.fault.seed = 41;
    vc.fault.berScale = 1e9;
    vc.fault.berFloor = 1e-5;
    vc.fault.lockLossPerCycle = 2e-4;
    EXPECT_EQ(fingerprintRun(vc, 0.8, 17, 250), 0xe4f9ec8f371fd7cdull);
}

TEST(GoldenMesh, TorusFourVcDatelineMatchesRecordedBytes)
{
    // Dateline VC classes split four VCs into two pairs, so every VC
    // allocation filters its requesters by the class mask their route
    // computed (the restricted path no mesh case reaches).
    SystemConfig tor;
    tor.topology = TopologyKind::kTorus;
    tor.meshX = 4;
    tor.meshY = 4;
    tor.clusterSize = 2;
    tor.numVcs = 4;
    tor.windowCycles = 200;
    EXPECT_EQ(fingerprintRun(tor, 1.5, 23), 0x243c4c62ea61b52eull);
}

TEST(GoldenMesh, CMeshMatchesRecordedBytes)
{
    // A concentrated mesh: 2x2 tile blocks per router, so a different
    // radix and port map from the mesh cases.
    SystemConfig cm;
    cm.topology = TopologyKind::kCMesh;
    cm.meshX = 4;
    cm.meshY = 4;
    cm.clusterSize = 4;
    cm.windowCycles = 200;
    EXPECT_EQ(fingerprintRun(cm, 1.5, 29), 0x2756564f92ff444full);
}

TEST(GoldenMesh, PaperMeshNearSaturationMatchesRecordedBytes)
{
    // The paper fabric at 5.5 pkt/cycle, near its saturation knee:
    // most ports hold flits and contend in both VC and switch
    // allocation every cycle.
    SystemConfig paper;
    EXPECT_EQ(fingerprintRun(paper, 5.5, 31), 0x151b9e6b88ab820bull);
}

TEST(GoldenMesh, FaultedFatTreeMatchesRecordedBytes)
{
    // Faulted bytes beyond the mesh: a k=4 fat tree (single-path
    // up/down routing, so flits routed at the killed edge uplink 40
    // drain through the dead-port drop path) with lock losses and a
    // BER floor. Three shards cut the tree between edge, aggregation
    // and core switches, so the constant holds across shard
    // boundaries too.
    for (int shards : {1, 3}) {
        SystemConfig ft;
        ft.topology = TopologyKind::kFatTree;
        ft.fatTreeArity = 4;
        ft.windowCycles = 200;
        ft.shards = shards;
        ft.fault.enabled = true;
        ft.fault.seed = 57;
        ft.fault.lockLossPerCycle = 2e-4;
        ft.fault.berFloor = 1e-4;
        ft.fault.killLink = 40;
        ft.fault.killCycle = 2000;
        ft.fault.orphanTimeoutCycles = 300;
        EXPECT_EQ(fingerprintRun(ft, 0.6, 19, 250), 0x24f2f40867380415ull)
            << "shards=" << shards;
    }
}

TEST(GoldenMesh, OnOffPolicyMatchesRecordedBytes)
{
    // On/off links sleep once their sliding utilization falls below
    // the threshold and wake when the sender has flits latched or
    // routed toward them (Router::outputWaiting, read only by this
    // policy's wake probe).
    SystemConfig oo;
    oo.meshX = 4;
    oo.meshY = 4;
    oo.clusterSize = 2;
    oo.policyMode = PolicyMode::kOnOff;
    oo.windowCycles = 100;
    RunMetrics m;
    EXPECT_EQ(fingerprintRun(oo, 0.6, 37, 250, &m), 0x184f9b128b0e4991ull);
    EXPECT_GT(m.transitions, 0u);
}

TEST(GoldenMesh, ProportionalPolicyMatchesRecordedBytes)
{
    // Proportional DVS escalates a link whose sender holds a backlog
    // for it (Router::bufferedFor counts the flits routed there).
    SystemConfig pr;
    pr.meshX = 4;
    pr.meshY = 4;
    pr.clusterSize = 2;
    pr.policyMode = PolicyMode::kProportional;
    pr.windowCycles = 100;
    RunMetrics m;
    EXPECT_EQ(fingerprintRun(pr, 1.2, 41, 250, &m), 0xb169a2c306b89ffeull);
    EXPECT_GT(m.transitions, 0u);
}
