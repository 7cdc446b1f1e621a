/**
 * @file
 * Shard-count invariance: the sharded kernel must produce the same
 * bytes as the single-shard reference — same trace event stream, same
 * metrics — at every shard count, with idle elision on or off, with
 * and without faults. This is the determinism contract of
 * docs/DETERMINISM.md exercised as a soak: an asymmetric 5x3 mesh (so
 * row stripes are uneven and shard 7 leaves shards empty) driven by
 * seeded random traffic, fingerprinted across the full
 * {shards} x {elision} grid. Shard-count invariance here is relative to
 * each test's own single-shard run; GoldenMesh pins absolute bytes.
 */

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/poe_system.hh"

using namespace oenet;

namespace {

/** FNV-1a over every trace event and the final metrics. */
struct FingerprintSink final : public TraceSink
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

    void linkTransition(const LinkTransitionEvent &e) override
    {
        mix(e.startedAt);
        mix(e.completedAt);
        mix(static_cast<std::uint64_t>(e.linkId));
        mix(static_cast<std::uint64_t>(e.toLevel));
        mixS(e.type);
    }
    void dvsDecision(const DvsDecisionEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixD(e.lu);
        mixS(e.decision);
        mix(static_cast<std::uint64_t>(e.level));
    }
    void packetRetire(const PacketRetireEvent &e) override
    {
        mix(e.at);
        mix(e.packet);
        mix(e.latency);
    }
    void faultEvent(const FaultEvent &e) override
    {
        mix(e.at);
        mix(static_cast<std::uint64_t>(e.linkId));
        mixS(e.kind);
    }
    void powerSnapshot(const PowerSnapshotEvent &e) override
    {
        mix(e.at);
        mixD(e.totalPowerMw);
        mixD(e.leakagePowerMw);
        mixD(e.maxTempC);
        for (double v : e.vcEnergyMwCycles)
            mixD(v);
    }
};

SystemConfig
asymmetricMesh(int shards, bool elision)
{
    SystemConfig c;
    c.meshX = 5;
    c.meshY = 3;
    c.clusterSize = 2;
    c.windowCycles = 200;
    c.shards = shards;
    c.idleElision = elision;
    return c;
}

/** Runs the protocol and fingerprints it. With @p audit_failures the
 *  conservation audit runs afterwards (past the fingerprinted trace)
 *  and reports its violation count there. */
std::uint64_t
fingerprint(const SystemConfig &cfg, double rate, std::uint64_t seed,
            std::uint64_t &packets_out,
            std::uint64_t *audit_failures = nullptr)
{
    FingerprintSink sink;
    PoeSystem sys(cfg);
    sys.setTraceSink(&sink, 500);
    sys.setTraffic(
        makeTraffic(TrafficSpec::uniform(rate, 4, seed), cfg));
    sys.run(500);
    sys.startMeasurement();
    sys.run(2500);
    sys.stopMeasurement();
    sys.setTraffic(nullptr);
    sys.awaitDrain(10000);
    RunMetrics m = sys.metrics();
    sink.mixD(m.avgLatency);
    sink.mixD(m.p95Latency);
    sink.mixD(m.avgPowerMw);
    sink.mixD(m.throughputFlitsPerCycle);
    sink.mix(m.packetsInjected);
    sink.mix(m.packetsEjected);
    sink.mix(m.transitions);
    sink.mixD(m.leakagePowerMw);
    sink.mixD(m.maxTempC);
    sink.mix(m.thermalThrottles);
    sys.setTraceSink(nullptr);
    if (audit_failures != nullptr)
        *audit_failures = sys.auditConservation();
    packets_out = m.packetsInjected;
    return sink.h;
}

} // namespace

TEST(ShardedKernel, FingerprintInvariantAcrossShardsAndElision)
{
    // Shard counts straddle the interesting cases: 1 = reference path,
    // 2/4 = balanced and uneven row stripes of the 3-row mesh, 7 = more
    // shards than rows (empty shards).
    for (std::uint64_t seed : {17ull, 400000041ull}) {
        std::uint64_t ref_packets = 0;
        std::uint64_t ref = fingerprint(asymmetricMesh(1, true), 0.8,
                                        seed, ref_packets);
        ASSERT_GT(ref_packets, 0u);
        for (int shards : {1, 2, 4, 7}) {
            for (bool elision : {true, false}) {
                std::uint64_t packets = 0;
                EXPECT_EQ(fingerprint(asymmetricMesh(shards, elision),
                                      0.8, seed, packets),
                          ref)
                    << "shards=" << shards << " elision=" << elision
                    << " seed=" << seed;
                EXPECT_EQ(packets, ref_packets);
            }
        }
    }
}

TEST(ShardedKernel, FingerprintInvariantUnderLinkFailure)
{
    // A scripted inter-router link kill crosses every sharded
    // mechanism at once: failure propagation through the boundary
    // proxy, poison drains, credit reclamation, reroute.
    auto cfg = [](int shards, bool elision) {
        SystemConfig c = asymmetricMesh(shards, elision);
        c.routing = RoutingAlgo::kWestFirst; // route-around capable
        c.fault.enabled = true;
        c.fault.killLink = 64; // an inter-router link on the 5x3x2 mesh
        c.fault.killCycle = 900;
        c.fault.orphanTimeoutCycles = 300;
        return c;
    };
    std::uint64_t ref_packets = 0;
    std::uint64_t ref =
        fingerprint(cfg(1, true), 0.6, 23, ref_packets);
    for (int shards : {2, 4, 7}) {
        for (bool elision : {true, false}) {
            std::uint64_t packets = 0;
            EXPECT_EQ(fingerprint(cfg(shards, elision), 0.6, 23,
                                  packets),
                      ref)
                << "shards=" << shards << " elision=" << elision;
        }
    }
}

TEST(ShardedKernel, FingerprintInvariantWithFaultsAndLeakage)
{
    // Leakage with every scheduled fault kind: fault-attached links
    // keep their power ledger rows, and each thermal epoch advances
    // them, on the driving thread in link-id order, before relaxing
    // temperatures. Lock losses and the kill change link power between
    // epochs, so the leakage feedback sees them at every shard count.
    auto cfg = [](int shards, bool elision) {
        SystemConfig c = asymmetricMesh(shards, elision);
        c.routing = RoutingAlgo::kWestFirst;
        c.thermal.enabled = true;
        c.thermal.epochCycles = 250;
        c.fault.enabled = true;
        c.fault.seed = 99;
        c.fault.lockLossPerCycle = 2e-4;
        c.fault.berFloor = 1e-4;
        c.fault.killLink = 64;
        c.fault.killCycle = 900;
        c.fault.orphanTimeoutCycles = 300;
        return c;
    };
    std::uint64_t ref_packets = 0;
    std::uint64_t ref_audit = 0;
    std::uint64_t ref =
        fingerprint(cfg(1, true), 0.6, 29, ref_packets, &ref_audit);
    ASSERT_GT(ref_packets, 0u);
    EXPECT_EQ(ref_audit, 0u);
    for (int shards : {1, 4}) {
        for (bool elision : {true, false}) {
            std::uint64_t packets = 0;
            std::uint64_t audit = 0;
            EXPECT_EQ(fingerprint(cfg(shards, elision), 0.6, 29, packets,
                                  &audit),
                      ref)
                << "shards=" << shards << " elision=" << elision;
            EXPECT_EQ(audit, 0u)
                << "shards=" << shards << " elision=" << elision;
        }
    }
}

namespace {

/** Proxied links: every kernel component beyond the traffic pump,
 *  the routers and the nodes is a link's boundary shuttle. */
std::size_t
proxiedLinks(PoeSystem &sys)
{
    Network &net = sys.network();
    return sys.kernel().tickingCount() - 1 -
           static_cast<std::size_t>(net.numRouters()) -
           static_cast<std::size_t>(net.numNodes());
}

std::size_t
interRouterLinks(Network &net)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < net.numLinks(); i++)
        n += net.linkSpec(i).kind == LinkKind::kInterRouter ? 1 : 0;
    return n;
}

} // namespace

TEST(ShardedKernel, UnshardedFaultFreeLinksAreProxyFree)
{
    // The default run registers no boundary shuttle at all: the kernel
    // holds the traffic pump, the routers and the nodes, and nothing
    // else.
    PoeSystem sys(asymmetricMesh(1, true));
    EXPECT_EQ(proxiedLinks(sys), 0u);
}

TEST(ShardedKernel, OnlyCrossShardLinksAreProxiedWithoutFaults)
{
    // Two shards cut the 5x3 mesh once: the links across the cut get a
    // shuttle, every link inside a shard stays proxy-free.
    PoeSystem sys(asymmetricMesh(2, true));
    Network &net = sys.network();
    std::size_t crossing = 0;
    for (std::size_t i = 0; i < net.numLinks(); i++) {
        const LinkSpec &spec = net.linkSpec(i);
        if (spec.kind == LinkKind::kInterRouter &&
            net.shardOf(spec.srcRouter) != net.shardOf(spec.dstRouter))
            crossing++;
    }
    EXPECT_GT(crossing, 0u);
    EXPECT_LT(crossing, interRouterLinks(net));
    EXPECT_EQ(proxiedLinks(sys), crossing);
}

TEST(ShardedKernel, FaultModelKeepsEveryInterRouterLinkProxied)
{
    // The reliability layer gives the receiver's poll side effects, so
    // every inter-router link keeps its shuttle — at one shard too.
    for (int shards : {1, 2}) {
        SystemConfig c = asymmetricMesh(shards, true);
        c.fault.enabled = true;
        PoeSystem sys(c);
        EXPECT_EQ(proxiedLinks(sys), interRouterLinks(sys.network()))
            << "shards=" << shards;
    }
}

TEST(ShardedKernel, RepeatedShardedRunsAreReproducible)
{
    // Same binary, same config, threads and all: run-to-run equality
    // (no hidden dependence on scheduling).
    std::uint64_t pa = 0, pb = 0;
    std::uint64_t a = fingerprint(asymmetricMesh(4, true), 0.8, 5, pa);
    std::uint64_t b = fingerprint(asymmetricMesh(4, true), 0.8, 5, pb);
    EXPECT_EQ(a, b);
    EXPECT_EQ(pa, pb);
}
