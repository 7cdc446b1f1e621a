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

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/poe_system.hh"
#include "fault/fault_injector.hh"

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

std::uint64_t
fingerprintRun(const SystemConfig &cfg, double rate, std::uint64_t seed,
               Cycle metrics_interval = 500)
{
    HashSink sink;
    {
        PoeSystem sys(cfg);
        sys.setTraceSink(&sink, metrics_interval);
        sys.setTraffic(makeTraffic(TrafficSpec::uniform(rate, 4, seed),
                                   cfg));
        sys.run(1000);
        sys.startMeasurement();
        sys.run(3000);
        sys.stopMeasurement();
        sys.setTraffic(nullptr);
        sys.awaitDrain(20000);
        RunMetrics m = sys.metrics();
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
        sys.setTraceSink(nullptr);
    }
    return sink.h;
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
    // Every scheduled fault kind at once: CDR lock losses and a BER
    // floor keep links changing power between calls, and a mid-run
    // kill reroutes traffic. The power snapshots every 250 cycles pin
    // which links each snapshot advances, and in which order, so a
    // fault-attached link the power accounting forgot to bring current
    // permutes the fault events in the stream.
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
    EXPECT_EQ(fingerprintRun(fk, 0.8, 13, 250), 0x4243f4255decc0ceull);
}
