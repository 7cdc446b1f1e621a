#include "network/network.hh"

#include "common/log.hh"
#include "fault/fault_injector.hh"

namespace oenet {

Network::Network(Kernel &kernel, const Params &params)
    : topo_(makeTopology(params.topo)), levels_(params.levels),
      ledger_(params.router.numVcs, params.thermal,
              params.link.power.vmaxV)
{
    // Routers and nodes.
    routers_.reserve(static_cast<std::size_t>(topo_->numRouters()));
    for (int r = 0; r < topo_->numRouters(); r++) {
        routers_.push_back(std::make_unique<Router>(
            "router" + std::to_string(r), r, *topo_, params.router));
    }
    int vc_depth = params.router.bufferDepthPerPort / params.router.numVcs;
    Node::Params node_params;
    node_params.numVcs = params.router.numVcs;
    node_params.vcDepth = vc_depth;
    nodes_.reserve(static_cast<std::size_t>(topo_->numNodes()));
    for (int n = 0; n < topo_->numNodes(); n++)
        nodes_.push_back(std::make_unique<Node>(static_cast<NodeId>(n),
                                                node_params));

    // The partition is a pure function of (topology, shards), so it is
    // known before any link is wired: it decides which inter-router
    // links need a boundary channel.
    shardOf_ = topo_->partition(kernel.shardCount());
    faultModel_ = params.faults;

    // Tick order: routers, then nodes. Interactions are time-tagged,
    // so this only pins determinism, not semantics. Components land in
    // domain 1 + shard: routers by the partition map, nodes with their
    // router (injection/ejection links never cross shards).
    for (int r = 0; r < topo_->numRouters(); r++) {
        Router *router = routers_[static_cast<std::size_t>(r)].get();
        kernel.addTicking(router);
        kernel.setDomain(router, 1 + shardOf_[static_cast<std::size_t>(r)]);
    }
    for (int n = 0; n < topo_->numNodes(); n++) {
        Node *node = nodes_[static_cast<std::size_t>(n)].get();
        kernel.addTicking(node);
        kernel.setDomain(node, 1 + shardOf_[static_cast<std::size_t>(
                                   topo_->routerOf(static_cast<NodeId>(n)))]);
    }
    // Receiver walks emit trace events under the tick orders that
    // follow every router and node, one per channel in link order, so
    // they sort after all component ticks (docs/DETERMINISM.md §4).
    auto walk_order = static_cast<std::uint32_t>(kernel.tickingCount());
    publish_.resize(static_cast<std::size_t>(kernel.shardCount()));

    // Links. Each registers its row in the SoA power ledger in
    // enumeration order, so ledger ids equal link/trace ids.
    specs_ = topo_->enumerateLinks();
    links_.reserve(specs_.size());
    for (const auto &spec : specs_) {
        auto link = std::make_unique<OpticalLink>(
            spec.name, spec.kind, levels_, params.link, ledger_);
        switch (spec.kind) {
          case LinkKind::kInjection: {
            Node &src = *nodes_[spec.srcNode];
            Router &dst = *routers_[static_cast<std::size_t>(
                spec.dstRouter)];
            src.connectInjection(link.get());
            // The router returns credits to the node; port id unused on
            // the node side.
            dst.connectInput(spec.dstPort.value(), link.get(), &src, 0);
            break;
          }
          case LinkKind::kEjection: {
            Router &src = *routers_[static_cast<std::size_t>(
                spec.srcRouter)];
            Node &dst = *nodes_[spec.dstNode];
            src.connectOutput(spec.srcPort.value(), link.get(),
                              vc_depth);
            dst.connectEjection(link.get(), &src, spec.srcPort.value());
            break;
          }
          case LinkKind::kInterRouter: {
            Router &src = *routers_[static_cast<std::size_t>(
                spec.srcRouter)];
            Router &dst = *routers_[static_cast<std::size_t>(
                spec.dstRouter)];
            src.connectOutput(spec.srcPort.value(), link.get(),
                              vc_depth);
            auto src_shard = static_cast<std::size_t>(
                shardOf_[static_cast<std::size_t>(spec.srcRouter)]);
            auto dst_shard = static_cast<std::size_t>(
                shardOf_[static_cast<std::size_t>(spec.dstRouter)]);
            if (src_shard == dst_shard && !faultModel_) {
                // Proxy-free: without a fault model the receiver's poll
                // has no side effects, so the destination router reads
                // the link itself, like an injection link.
                dst.connectInput(spec.dstPort.value(), link.get(), &src,
                                 spec.srcPort.value());
                break;
            }
            // A shard boundary, or a fault model whose receiver walk
            // must run in the source router (boundary.hh).
            auto chan = std::make_unique<BoundaryChannel>(
                link.get(), &src, spec.srcPort.value(), &dst,
                &publish_[src_shard], &publish_[dst_shard]);
            src.connectOutputBoundary(
                spec.srcPort.value(), chan.get(),
                walk_order + static_cast<std::uint32_t>(channels_.size()));
            dst.connectInputBoundary(spec.dstPort.value(), link.get(),
                                     chan.get(), spec.srcPort.value());
            channels_.push_back(std::move(chan));
            break;
          }
        }
        baselinePowerMw_ += link->maxPowerMw();
        links_.push_back(std::move(link));
    }

    // Post-pass (driving thread, after the barrier): publish what each
    // shard staged this cycle. Each publish is independent of the
    // others, so the visiting order is immaterial.
    if (!channels_.empty()) {
        kernel.addPostPass([this](Cycle now) {
            for (auto &list : publish_) {
                for (BoundaryChannel *c : list)
                    c->publish(now);
                list.clear();
            }
        });
    }

    if (params.thermal.enabled) {
        // Batched thermal epoch on the driving thread (events run
        // between tick phases): bring pending links current, then relax
        // every temperature and leakage column in one flat pass. Epoch
        // events are in the deterministic event order, so temperatures
        // are shard-count invariant.
        Cycle epoch = params.thermal.epochCycles;
        kernel.schedulePeriodic(epoch, epoch, [this](Cycle now) {
            advancePendingPower(now);
            ledger_.advanceThermal(now);
        });
    }
}

std::pair<const OccupancyProvider *, int>
Network::downstreamOf(std::size_t i) const
{
    const LinkSpec &spec = specs_.at(i);
    switch (spec.kind) {
      case LinkKind::kInjection:
      case LinkKind::kInterRouter:
        return {routers_.at(static_cast<std::size_t>(spec.dstRouter))
                    .get(),
                spec.dstPort.value()};
      case LinkKind::kEjection:
        return {nodes_.at(spec.dstNode).get(), 0};
    }
    panic("Network::downstreamOf: bad link kind");
}

PacketId
Network::injectPacket(NodeId src, NodeId dst, int len, Cycle now)
{
    if (src >= static_cast<NodeId>(numNodes()) ||
        dst >= static_cast<NodeId>(numNodes()))
        panic("Network::injectPacket: bad endpoints %u -> %u", src, dst);
    PacketId id = nextPacketId_++;
    nodes_[src]->enqueuePacket(id, dst, len, now);
    packetsInjected_++;
    return id;
}

void
Network::setPacketSink(PacketSink *sink)
{
    for (auto &n : nodes_)
        n->setPacketSink(sink);
}

void
Network::setTraceSink(TraceSink *sink)
{
    for (std::size_t i = 0; i < links_.size(); i++)
        links_[i]->setTrace(sink, static_cast<int>(i));
}

std::vector<TraceLinkInfo>
Network::traceLinkTable() const
{
    std::vector<TraceLinkInfo> table;
    table.reserve(links_.size());
    for (std::size_t i = 0; i < links_.size(); i++) {
        table.push_back(TraceLinkInfo{static_cast<int>(i),
                                      links_[i]->name(),
                                      linkKindName(links_[i]->kind())});
    }
    return table;
}

void
Network::setFaultInjector(FaultInjector *faults)
{
    if (faults != nullptr && !faultModel_)
        panic("Network::setFaultInjector: network built without "
              "Params::faults (same-shard links are proxy-free)");
    for (std::size_t i = 0; i < links_.size(); i++)
        links_[i]->setFault(faults, static_cast<int>(i));
    Cycle orphan =
        faults != nullptr ? faults->params().orphanTimeoutCycles : 0;
    for (auto &r : routers_)
        r->setOrphanTimeout(orphan);
}

int
Network::failedLinks() const
{
    int n = 0;
    for (const auto &l : links_)
        n += l->isFailed() ? 1 : 0;
    return n;
}

std::uint64_t
Network::flitsCorrupted() const
{
    std::uint64_t n = 0;
    for (const auto &l : links_)
        n += l->flitsCorrupted();
    return n;
}

std::uint64_t
Network::flitRetries() const
{
    std::uint64_t n = 0;
    for (const auto &l : links_)
        n += l->flitRetries();
    return n;
}

std::uint64_t
Network::lockLossEvents() const
{
    std::uint64_t n = 0;
    for (const auto &l : links_)
        n += l->lockLossEvents();
    return n;
}

std::uint64_t
Network::flitsDroppedOnFail() const
{
    std::uint64_t n = 0;
    for (const auto &l : links_)
        n += l->flitsDroppedOnFail();
    return n;
}

std::uint64_t
Network::flitsDroppedOnFailLifetime() const
{
    std::uint64_t n = 0;
    for (const auto &l : links_)
        n += l->flitsDroppedOnFailLifetime();
    return n;
}

std::uint64_t
Network::flitsDroppedDeadPort() const
{
    std::uint64_t n = 0;
    for (const auto &r : routers_)
        n += r->droppedDeadPort();
    return n;
}

std::uint64_t
Network::poisonedWormholes() const
{
    std::uint64_t n = 0;
    for (const auto &r : routers_)
        n += r->poisonedWormholes();
    return n;
}

void
Network::resetStats(Cycle now)
{
    for (auto &l : links_)
        l->resetStats(now);
}

void
Network::advancePendingPower(Cycle now)
{
    // Id-order scan of the flag column. A link that is not pending
    // would advance as a no-op, so this is every link's advance, and
    // the transition and fault trace events those advances flush come
    // out in link-id order.
    int n = ledger_.numLinks();
    for (int id = 0; id < n; id++) {
        if (ledger_.isPending(id))
            links_[static_cast<std::size_t>(id)]->powerMw(now);
    }
}

double
Network::totalPowerMw(Cycle now)
{
    advancePendingPower(now);
    double sum = ledger_.totalDynMw();
    if (ledger_.thermalEnabled())
        sum += ledger_.totalLeakMw();
    return sum;
}

double
Network::totalPowerIntegralMwCycles(Cycle now)
{
    advancePendingPower(now);
    double sum = ledger_.totalDynIntegralMwCycles(now);
    if (ledger_.thermalEnabled())
        sum += ledger_.totalLeakIntegralMwCycles(now);
    return sum;
}

std::uint64_t
Network::packetsEjected() const
{
    std::uint64_t n = 0;
    for (const auto &node : nodes_)
        n += node->packetsEjected();
    return n;
}

std::uint64_t
Network::flitsInjected() const
{
    std::uint64_t n = 0;
    for (const auto &node : nodes_)
        n += node->flitsInjected();
    return n;
}

std::uint64_t
Network::flitsEjected() const
{
    std::uint64_t n = 0;
    for (const auto &node : nodes_)
        n += node->flitsEjected();
    return n;
}

std::uint64_t
Network::poisonTailsRetired() const
{
    std::uint64_t n = 0;
    for (const auto &node : nodes_)
        n += node->poisonTails();
    return n;
}

Network::Census
Network::census() const
{
    Census c;
    for (const auto &node : nodes_) {
        c.queuedFlits += node->sourceQueueFlits();
        c.pendingCredits += node->pendingCreditCount();
    }
    for (const auto &r : routers_) {
        c.fabricFlits += static_cast<std::uint64_t>(r->totalBufferedFlits());
        c.pendingCredits += r->pendingCreditCount();
    }
    for (const auto &l : links_)
        c.fabricFlits += static_cast<std::uint64_t>(l->inFlight());
    for (const auto &ch : channels_)
        c.fabricFlits += static_cast<std::uint64_t>(ch->staged());
    return c;
}

} // namespace oenet
