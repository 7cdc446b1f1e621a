/** @file Tests for system link enumeration across fabrics. */

#include <gtest/gtest.h>

#include <set>

#include "network/topology.hh"

using namespace oenet;

TEST(Topology, PaperSystemLinkCounts)
{
    // 8x8 mesh, 8 nodes per rack: 512 injection + 512 ejection +
    // 2*2*(7*8) = 224 inter-router unidirectional links.
    MeshTopology m(8, 8, 8);
    EXPECT_EQ(countLinks(m, LinkKind::kInjection), 512);
    EXPECT_EQ(countLinks(m, LinkKind::kEjection), 512);
    EXPECT_EQ(countLinks(m, LinkKind::kInterRouter), 224);
    EXPECT_EQ(m.enumerateLinks().size(), 1248u);
}

TEST(Topology, InteriorRackOwnsTwentyTransmitters)
{
    // Fig. 3(b)/4(a): 20 fibers per rack = 8 injection + 8 ejection +
    // 4 outgoing inter-router (interior rack).
    MeshTopology m(8, 8, 8);
    auto specs = m.enumerateLinks();
    int rack = m.routerAt(3, 3); // interior
    int tx = 0;
    for (const auto &s : specs) {
        if (s.kind == LinkKind::kInjection &&
            m.routerOf(s.srcNode) == rack)
            tx++;
        if ((s.kind == LinkKind::kEjection ||
             s.kind == LinkKind::kInterRouter) &&
            s.srcRouter == rack)
            tx++;
    }
    EXPECT_EQ(tx, 20);
}

TEST(Topology, CornerRackHasEighteenTransmitters)
{
    MeshTopology m(8, 8, 8);
    auto specs = m.enumerateLinks();
    int tx = 0;
    for (const auto &s : specs) {
        if (s.kind == LinkKind::kInjection &&
            m.routerOf(s.srcNode) == 0)
            tx++;
        if ((s.kind == LinkKind::kEjection ||
             s.kind == LinkKind::kInterRouter) &&
            s.srcRouter == 0)
            tx++;
    }
    EXPECT_EQ(tx, 18); // 8 + 8 + 2 (east, south only)
}

TEST(Topology, InjectionWiring)
{
    MeshTopology m(2, 2, 2);
    auto specs = m.enumerateLinks();
    const LinkSpec &s = specs[3]; // injection link of node 3
    EXPECT_EQ(s.kind, LinkKind::kInjection);
    EXPECT_EQ(s.srcNode, 3u);
    EXPECT_EQ(s.dstRouter, 1);
    EXPECT_EQ(s.dstPort, PortId(1));
}

TEST(Topology, InterRouterPortsArePaired)
{
    // An east link out of (x,y) must land on the west input port of
    // (x+1,y), and so on.
    MeshTopology m(4, 4, 4);
    for (const auto &s : m.enumerateLinks()) {
        if (s.kind != LinkKind::kInterRouter)
            continue;
        auto src_dir = static_cast<Direction>(
            s.srcPort.value() - m.nodesPerCluster());
        auto dst_dir = static_cast<Direction>(
            s.dstPort.value() - m.nodesPerCluster());
        EXPECT_EQ(dst_dir, opposite(src_dir)) << s.name;
        EXPECT_EQ(s.dstRouter,
                  m.neighborRouter(m.routerX(s.srcRouter),
                                   m.routerY(s.srcRouter), src_dir))
            << s.name;
    }
}

TEST(Topology, NamesAreUnique)
{
    MeshTopology m(4, 4, 4);
    std::set<std::string> names;
    for (const auto &s : m.enumerateLinks())
        EXPECT_TRUE(names.insert(s.name).second) << s.name;
}

TEST(Topology, EveryRouterPortConnectedAtMostOnce)
{
    MeshTopology m(8, 8, 8);
    std::set<std::pair<int, int>> in_ports, out_ports;
    for (const auto &s : m.enumerateLinks()) {
        if (s.dstRouter != kInvalid) {
            EXPECT_TRUE(
                in_ports.insert({s.dstRouter, s.dstPort.value()})
                    .second)
                << s.name;
        }
        if (s.srcRouter != kInvalid) {
            EXPECT_TRUE(
                out_ports.insert({s.srcRouter, s.srcPort.value()})
                    .second)
                << s.name;
        }
    }
}

// ---------------------------------------------------------------------
// Torus wrap-link enumeration
// ---------------------------------------------------------------------

TEST(TorusTopology, EveryRouterHasAllFourNeighbors)
{
    TorusTopology t(4, 4, 2);
    // 4x4 torus: every router emits 4 inter-router links (wrap links
    // close the edges), so 4*16 = 64 vs the mesh's 2*2*(3*4) = 48.
    EXPECT_EQ(countLinks(t, LinkKind::kInterRouter), 64);
    MeshTopology m(4, 4, 2);
    EXPECT_EQ(countLinks(m, LinkKind::kInterRouter), 48);
}

TEST(TorusTopology, WrapLinksCloseTheRings)
{
    TorusTopology t(4, 4, 2);
    // East out of the last column wraps to column 0 of the same row.
    EXPECT_EQ(t.neighborRouter(3, 1, Direction::kEast), t.routerAt(0, 1));
    EXPECT_EQ(t.neighborRouter(0, 1, Direction::kWest), t.routerAt(3, 1));
    EXPECT_EQ(t.neighborRouter(2, 0, Direction::kNorth),
              t.routerAt(2, 3));
    EXPECT_EQ(t.neighborRouter(2, 3, Direction::kSouth),
              t.routerAt(2, 0));

    // The wrap links appear in the enumeration with paired ports.
    bool found = false;
    for (const auto &s : t.enumerateLinks()) {
        if (s.kind != LinkKind::kInterRouter)
            continue;
        if (s.srcRouter == t.routerAt(3, 1) &&
            s.srcPort == t.dirPort(Direction::kEast)) {
            EXPECT_EQ(s.dstRouter, t.routerAt(0, 1));
            EXPECT_EQ(s.dstPort, t.dirPort(Direction::kWest));
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(TorusTopology, MinimalRoutingUsesWrap)
{
    TorusTopology t(4, 4, 2);
    RouteOption out[kMaxRouteCandidates];
    // Column 0 -> column 3 is one hop west around the wrap, not three
    // hops east.
    NodeId dst = t.nodeAt(t.routerAt(3, 0), 0);
    ASSERT_EQ(t.routeCandidates(RoutingAlgo::kXY, t.routerAt(0, 0),
                                dst, out),
              1);
    EXPECT_EQ(out[0].port, t.dirPort(Direction::kWest));
    EXPECT_EQ(t.hopCount(t.nodeAt(t.routerAt(0, 0), 0), dst), 2);
}

TEST(TorusTopology, DatelineVcClasses)
{
    TorusTopology t(4, 4, 2);
    EXPECT_EQ(t.numVcClasses(), 2);
    RouteOption out[kMaxRouteCandidates];
    // (0,0) -> column 3 travels backward across the wrap: the wrap
    // still lies ahead, so the next channel is class 0.
    NodeId wrap_dst = t.nodeAt(t.routerAt(3, 0), 0);
    t.routeCandidates(RoutingAlgo::kXY, t.routerAt(0, 0), wrap_dst,
                      out);
    EXPECT_EQ(out[0].vcClass, 0);
    // (1,0) -> column 2 travels forward without wrapping: class 1.
    NodeId near_dst = t.nodeAt(t.routerAt(2, 0), 0);
    t.routeCandidates(RoutingAlgo::kXY, t.routerAt(1, 0), near_dst,
                      out);
    EXPECT_EQ(out[0].vcClass, 1);
    // Ejection at the destination router is unrestricted.
    t.routeCandidates(RoutingAlgo::kXY, t.routerAt(2, 0), near_dst,
                      out);
    EXPECT_EQ(out[0].vcClass, kAnyVcClass);
}

// ---------------------------------------------------------------------
// Concentrated-mesh node mapping
// ---------------------------------------------------------------------

TEST(CMeshTopology, ConcentrationMapping)
{
    // 2x2 routers, concentration 4: nodes tile a 4x4 grid in 2x2
    // blocks. Node ids are row-major over tiles, so node 5 = tile
    // (1,1) -> router (0,0) local 3, node 6 = tile (2,1) -> router
    // (1,0) local 2.
    CMeshTopology c(2, 2, 4);
    EXPECT_EQ(c.blockSide(), 2);
    EXPECT_EQ(c.tileGridWidth(), 4);
    EXPECT_EQ(c.numNodes(), 16);

    EXPECT_EQ(c.routerOf(0), c.routerAt(0, 0));
    EXPECT_EQ(c.attachPort(0), PortId(0));
    EXPECT_EQ(c.routerOf(5), c.routerAt(0, 0));
    EXPECT_EQ(c.attachPort(5), PortId(3));
    EXPECT_EQ(c.routerOf(6), c.routerAt(1, 0));
    EXPECT_EQ(c.attachPort(6), PortId(2));
    EXPECT_EQ(c.routerOf(15), c.routerAt(1, 1));
    EXPECT_EQ(c.attachPort(15), PortId(3));
}

TEST(CMeshTopology, NodeAtInvertsTheMapping)
{
    CMeshTopology c(3, 2, 9);
    for (int n = 0; n < c.numNodes(); n++) {
        auto node = static_cast<NodeId>(n);
        int r = c.routerOf(node);
        PortId local = c.attachPort(node);
        EXPECT_EQ(c.nodeAt(r, local.value()), node);
    }
}

TEST(CMeshTopology, SpatialNeighborsShareARouter)
{
    // The point of concentration: adjacent tiles mostly land on the
    // same router, unlike the linear mesh mapping.
    CMeshTopology c(2, 2, 4);
    EXPECT_EQ(c.routerOf(0), c.routerOf(1));  // (0,0) and (1,0)
    EXPECT_EQ(c.routerOf(0), c.routerOf(4));  // (0,0) and (0,1)
    EXPECT_NE(c.routerOf(1), c.routerOf(2));  // block boundary
    // Every node routes to itself with zero network hops.
    for (int n = 0; n < c.numNodes(); n++) {
        auto node = static_cast<NodeId>(n);
        EXPECT_EQ(c.hopCount(node, node), 1);
    }
}

TEST(CMeshTopology, LinkBudgetShrinksWithConcentration)
{
    // 16 nodes either way; the cmesh trades 16 routers for 4 with
    // 4x the endpoint links per router and far fewer router links.
    CMeshTopology c(2, 2, 4);
    MeshTopology m(4, 4, 1);
    EXPECT_EQ(c.numNodes(), m.numNodes());
    EXPECT_EQ(countLinks(c, LinkKind::kInjection), 16);
    EXPECT_EQ(countLinks(c, LinkKind::kInterRouter), 8);
    EXPECT_EQ(countLinks(m, LinkKind::kInterRouter), 48);
}

// ---------------------------------------------------------------------
// Fat-tree structure
// ---------------------------------------------------------------------

TEST(FatTreeTopology, K4Geometry)
{
    FatTreeTopology f(4);
    EXPECT_EQ(f.numNodes(), 16);   // k^3/4
    EXPECT_EQ(f.numRouters(), 20); // 8 edge + 8 agg + 4 core
    EXPECT_EQ(f.portsPerRouter(), 4);
    EXPECT_EQ(f.numEdge(), 8);
    EXPECT_EQ(f.numAgg(), 8);
    EXPECT_EQ(f.numCore(), 4);
    EXPECT_TRUE(f.isEdge(0));
    EXPECT_TRUE(f.isAgg(8));
    EXPECT_TRUE(f.isCore(16));
    EXPECT_EQ(f.podOf(0), 0);
    EXPECT_EQ(f.podOf(7), 3);
    EXPECT_EQ(f.podOf(8), 0);
}

TEST(FatTreeTopology, LinkBudget)
{
    // k=4: 16 edge<->agg cables plus 16 agg<->core cables, each cable
    // two unidirectional links (the mesh counts links the same way).
    FatTreeTopology f(4);
    EXPECT_EQ(countLinks(f, LinkKind::kInjection), 16);
    EXPECT_EQ(countLinks(f, LinkKind::kEjection), 16);
    EXPECT_EQ(countLinks(f, LinkKind::kInterRouter), 64);
}

TEST(FatTreeTopology, LinksAreBidirectionalPairs)
{
    FatTreeTopology f(4);
    std::set<std::tuple<int, int, int, int>> fwd;
    for (const auto &s : f.enumerateLinks()) {
        if (s.kind == LinkKind::kInterRouter)
            fwd.insert({s.srcRouter, s.srcPort.value(), s.dstRouter,
                        s.dstPort.value()});
    }
    for (const auto &[sr, sp, dr, dp] : fwd)
        EXPECT_TRUE(fwd.count({dr, dp, sr, sp}))
            << "no reverse of r" << sr << ".p" << sp << " -> r" << dr
            << ".p" << dp;
}

TEST(FatTreeTopology, UpDownRoutesDeliverEveryPair)
{
    FatTreeTopology f(4);
    // Walk every (src, dst) pair hop by hop along the wired links and
    // check delivery in the minimal hop count with no down->up turn
    // (the deadlock-freedom invariant of up/down routing).
    auto specs = f.enumerateLinks();
    auto next_hop = [&](int router, PortId port) {
        for (const auto &s : specs) {
            if (s.kind == LinkKind::kInterRouter &&
                s.srcRouter == router && s.srcPort == port)
                return s.dstRouter;
        }
        ADD_FAILURE() << "unwired port r" << router << ".p"
                      << port.value();
        return kInvalid;
    };
    int half = f.arity() / 2;
    for (int s = 0; s < f.numNodes(); s++) {
        for (int d = 0; d < f.numNodes(); d++) {
            auto src = static_cast<NodeId>(s);
            auto dst = static_cast<NodeId>(d);
            int router = f.routerOf(src);
            int hops = 1;
            bool went_down = false;
            for (;;) {
                RouteOption out[kMaxRouteCandidates];
                ASSERT_EQ(f.routeCandidates(RoutingAlgo::kXY, router,
                                            dst, out),
                          1);
                if (f.isEdge(router) && out[0].port.value() < half) {
                    EXPECT_EQ(out[0].port, f.attachPort(dst));
                    break;
                }
                bool down = f.isCore(router) ||
                            (f.isAgg(router) &&
                             out[0].port.value() < half);
                EXPECT_FALSE(went_down && !down)
                    << "down->up turn at router " << router;
                went_down = went_down || down;
                router = next_hop(router, out[0].port);
                ASSERT_NE(router, kInvalid);
                hops++;
                ASSERT_LE(hops, 5) << "route did not converge";
            }
            EXPECT_EQ(hops, f.hopCount(src, dst));
        }
    }
}

// ---------------------------------------------------------------------
// Shard partition maps
// ---------------------------------------------------------------------

namespace {

// Every fabric's partition must cover all routers with valid shard
// ids, keep shard populations balanced (contiguous slices differ by
// at most one router), and assign slices in non-decreasing order so
// boundary links are exactly the slice edges.
void
checkPartition(const Topology &topo, int n_shards)
{
    std::vector<int> map = topo.partition(n_shards);
    ASSERT_EQ(map.size(), static_cast<std::size_t>(topo.numRouters()));
    std::vector<int> population(n_shards, 0);
    int prev = 0;
    for (int shard : map) {
        ASSERT_GE(shard, 0);
        ASSERT_LT(shard, n_shards);
        EXPECT_GE(shard, prev) << "slices must be contiguous";
        prev = shard;
        population[shard]++;
    }
    int lo = topo.numRouters(), hi = 0;
    for (int p : population) {
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    if (n_shards <= topo.numRouters()) {
        EXPECT_LE(hi - lo, 1) << "unbalanced partition";
    }
    // Pure function of (topology, n_shards).
    EXPECT_EQ(topo.partition(n_shards), map);
}

} // namespace

TEST(Partition, CoversBalancesAndRepeats)
{
    MeshTopology mesh(5, 3, 2);
    TorusTopology torus(4, 4, 2);
    CMeshTopology cmesh(4, 4, 4);
    FatTreeTopology ftree(4);
    const std::vector<const Topology *> fabrics = {&mesh, &torus,
                                                   &cmesh, &ftree};
    for (const Topology *t : fabrics) {
        for (int n : {1, 2, 3, 4, 7, 16})
            checkPartition(*t, n);
    }
}

TEST(Partition, SingleShardOwnsEverything)
{
    MeshTopology m(8, 8, 8);
    std::vector<int> map = m.partition(1);
    for (int shard : map)
        EXPECT_EQ(shard, 0);
}

TEST(Partition, MoreShardsThanRoutersLeavesEmptyShards)
{
    MeshTopology m(2, 2, 1);
    std::vector<int> map = m.partition(7);
    ASSERT_EQ(map.size(), 4u);
    // Four routers land in four distinct shards; three shards empty.
    std::set<int> used(map.begin(), map.end());
    EXPECT_EQ(used.size(), 4u);
}

TEST(Partition, MeshRowStripes)
{
    // 4x4 mesh in 4 shards: one row (canonical indices y*X+x) each.
    MeshTopology m(4, 4, 1);
    std::vector<int> map = m.partition(4);
    for (int r = 0; r < 16; r++)
        EXPECT_EQ(map[r], r / 4) << "router " << r;
}
