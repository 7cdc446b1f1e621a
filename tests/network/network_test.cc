/** @file Tests for the assembled network fabric. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "fault/fault_injector.hh"
#include "network/network.hh"

using namespace oenet;

namespace {

struct SinkProbe : PacketSink
{
    std::vector<Flit> tails;
    void packetEjected(const Flit &tail, Cycle) override
    {
        tails.push_back(tail);
    }
};

Network::Params
smallParams()
{
    Network::Params p;
    p.topo.meshX = 2;
    p.topo.meshY = 2;
    p.topo.clusterSize = 2;
    return p;
}

} // namespace

TEST(Network, ConstructionCounts)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    EXPECT_EQ(net.numRouters(), 4);
    EXPECT_EQ(net.numNodes(), 8);
    // 8 inj + 8 ej + 2*2*(1*2) = 8 inter-router.
    EXPECT_EQ(net.numLinks(), 24u);
}

TEST(Network, PaperScaleConstruction)
{
    Kernel kernel;
    Network::Params p; // defaults: 8x8x8
    Network net(kernel, p);
    EXPECT_EQ(net.numNodes(), 512);
    EXPECT_EQ(net.numLinks(), 1248u);
    // Baseline power: 1248 links at ~291 mW.
    EXPECT_NEAR(net.baselinePowerMw(), 1248 * 291.25, 1.0);
}

TEST(Network, DeliversSinglePacket)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    SinkProbe sink;
    net.setPacketSink(&sink);
    net.injectPacket(0, 7, 4, 0); // corner to corner
    kernel.run(100);
    ASSERT_EQ(sink.tails.size(), 1u);
    EXPECT_EQ(sink.tails[0].dst, 7u);
    EXPECT_EQ(net.packetsEjected(), 1u);
    EXPECT_EQ(net.flitsInSystem(), 0u);
}

TEST(Network, DeliversIntraRackPacket)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    SinkProbe sink;
    net.setPacketSink(&sink);
    net.injectPacket(0, 1, 3, 0); // same rack
    kernel.run(60);
    ASSERT_EQ(sink.tails.size(), 1u);
}

TEST(Network, AllPairsDeliver)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    SinkProbe sink;
    net.setPacketSink(&sink);
    int sent = 0;
    for (NodeId s = 0; s < 8; s++) {
        for (NodeId d = 0; d < 8; d++) {
            if (s == d)
                continue;
            net.injectPacket(s, d, 2, kernel.now());
            sent++;
        }
    }
    kernel.run(2000);
    EXPECT_EQ(sink.tails.size(), static_cast<std::size_t>(sent));
    EXPECT_EQ(net.flitsInSystem(), 0u);
    EXPECT_EQ(net.flitsInjected(), net.flitsEjected());
}

TEST(Network, FlitConservationUnderLoad)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    Rng rng(5);
    std::uint64_t injected_flits = 0;
    for (Cycle t = 0; t < 2000; t++) {
        if (rng.bernoulli(0.3)) {
            auto s = static_cast<NodeId>(rng.uniformInt(8));
            NodeId d;
            do {
                d = static_cast<NodeId>(rng.uniformInt(8));
            } while (d == s);
            net.injectPacket(s, d, 4, kernel.now());
            injected_flits += 4;
        }
        kernel.step();
    }
    kernel.run(3000); // drain
    EXPECT_EQ(net.flitsEjected(), injected_flits);
    EXPECT_EQ(net.flitsInSystem(), 0u);
}

TEST(Network, PowerAggregates)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    // All links at max: total power equals the baseline.
    EXPECT_NEAR(net.totalPowerMw(0), net.baselinePowerMw(), 1e-6);
    // Scale one link down: total drops below baseline.
    net.link(0).requestLevel(0, 0);
    kernel.run(200);
    EXPECT_LT(net.totalPowerMw(kernel.now()), net.baselinePowerMw());
}

TEST(Network, PowerIntegralGrowsLinearly)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    double p = net.totalPowerMw(0);
    kernel.run(100);
    EXPECT_NEAR(net.totalPowerIntegralMwCycles(kernel.now()), p * 100,
                1e-6);
}

TEST(Network, DownstreamOfInterRouterLinkIsRouterPort)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    for (std::size_t i = 0; i < net.numLinks(); i++) {
        const LinkSpec &spec = net.linkSpec(i);
        auto [provider, port] = net.downstreamOf(i);
        ASSERT_NE(provider, nullptr) << spec.name;
        if (spec.kind == LinkKind::kInterRouter ||
            spec.kind == LinkKind::kInjection) {
            EXPECT_EQ(provider,
                      static_cast<const OccupancyProvider *>(
                          &net.router(spec.dstRouter)))
                << spec.name;
            EXPECT_EQ(port, spec.dstPort.value());
        } else {
            EXPECT_EQ(provider, static_cast<const OccupancyProvider *>(
                                    &net.node(spec.dstNode)));
        }
    }
}

TEST(Network, WormholeKeepsPacketsContiguousPerPair)
{
    // Packets between the same (src, dst) pair arrive in injection
    // order under deterministic routing.
    Kernel kernel;
    Network net(kernel, smallParams());
    SinkProbe sink;
    net.setPacketSink(&sink);
    for (int i = 0; i < 10; i++)
        net.injectPacket(0, 7, 3, 0);
    kernel.run(500);
    ASSERT_EQ(sink.tails.size(), 10u);
    for (std::size_t i = 1; i < sink.tails.size(); i++)
        EXPECT_GT(sink.tails[i].packet, sink.tails[i - 1].packet);
}

TEST(NetworkDeath, BadEndpointsPanic)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    EXPECT_DEATH(net.injectPacket(0, 99, 1, 0), "endpoints");
}

TEST(NetworkDeath, FaultInjectorNeedsAFaultReadyNetwork)
{
    // Without Params::faults the same-shard links are wired proxy-free:
    // their destination router, not the source router at the end of
    // its tick, would run the reliability layer's receiver walk, at
    // the wrong cycles and out of per-link draw order.
    Kernel kernel;
    Network net(kernel, smallParams());
    FaultInjector faults(FaultParams{},
                         static_cast<int>(net.numLinks()));
    EXPECT_DEATH(net.setFaultInjector(&faults), "Params::faults");
}
