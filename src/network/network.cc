#include "network/network.hh"

#include "common/log.hh"
#include "fault/fault_injector.hh"

namespace oenet {

Network::Network(Kernel &kernel, const Params &params)
    : topo_(makeTopology(params.topo)), levels_(params.levels)
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
    // links need the boundary proxy.
    kernel.configureSharding(params.shards);
    shardOf_ = topo_->partition(params.shards);
    faultModel_ = params.faults;

    // Links. Each registers with the SoA power ledger in enumeration
    // order, so ledger ids equal link/trace ids.
    ledger_.configure(params.router.numVcs, params.thermal,
                      params.link.power.vmaxV);
    specs_ = topo_->enumerateLinks();
    links_.reserve(specs_.size());
    for (const auto &spec : specs_) {
        auto link = std::make_unique<OpticalLink>(spec.name, spec.kind,
                                                  levels_, params.link);
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
            int src_domain = 1 + shardOf_[static_cast<std::size_t>(
                                     spec.srcRouter)];
            int dst_domain = 1 + shardOf_[static_cast<std::size_t>(
                                     spec.dstRouter)];
            if (src_domain == dst_domain && !faultModel_) {
                // Proxy-free: without a fault model the receiver's poll
                // has no side effects, so the destination router reads
                // the link itself, like an injection link.
                dst.connectInput(spec.dstPort.value(), link.get(), &src,
                                 spec.srcPort.value());
                break;
            }
            // A shard boundary, or a fault model whose receiver-side
            // walk must run at the shuttle's cycles (boundary.hh).
            auto chan = std::make_unique<BoundaryChannel>(
                link.get(), &src, spec.srcPort.value());
            auto shuttle = std::make_unique<LinkShuttle>(link.get(),
                                                         chan.get());
            link->setReceiver(shuttle.get());
            link->setReceiverWakeLead(1);
            dst.connectInputBoundary(spec.dstPort.value(), link.get(),
                                     chan.get(), spec.srcPort.value());
            if (src_domain == dst_domain) {
                chan->setDirect();
                shuttle->setDirectDst(&dst);
            }
            edges_.push_back(BoundaryEdge{chan.get(), src_domain,
                                          dst_domain, &dst});
            channels_.push_back(std::move(chan));
            shuttles_.push_back(std::move(shuttle));
            break;
          }
        }
        link->attachLedger(ledger_);
        baselinePowerMw_ += link->maxPowerMw();
        links_.push_back(std::move(link));
    }

    // Tick order: routers, nodes, then boundary shuttles (a shuttle
    // runs after its destination router, which is what lets a direct
    // channel publish immediately). Interactions are time-tagged, so
    // this only pins determinism, not semantics.
    for (auto &r : routers_)
        kernel.addTicking(r.get());
    for (auto &n : nodes_)
        kernel.addTicking(n.get());
    for (auto &s : shuttles_)
        kernel.addTicking(s.get());

    installShardHooks(kernel);

    if (params.thermal.enabled) {
        // Batched thermal epoch on the driving thread (events run
        // between tick phases): bring mid-transition links current,
        // then relax every temperature and leakage column in one flat
        // pass. Epoch events are in the deterministic event order, so
        // temperatures are shard-count invariant.
        Cycle epoch = params.thermal.epochCycles;
        kernel.schedulePeriodic(epoch, epoch, [this](Cycle now) {
            if (!ledgerActive_)
                return;
            advancePendingPower(now);
            ledger_.advanceThermal(now);
        });
    }
}

void
Network::installShardHooks(Kernel &kernel)
{
    // Components land in domain 1 + shard: routers by the partition
    // map, nodes with their router (injection/ejection links never
    // cross shards), shuttles with their *source* router (the shuttle
    // polls the link, whose state the sender mutates).
    for (int r = 0; r < topo_->numRouters(); r++)
        kernel.setDomain(routers_[static_cast<std::size_t>(r)].get(),
                         1 + shardOf_[static_cast<std::size_t>(r)]);
    for (int n = 0; n < topo_->numNodes(); n++)
        kernel.setDomain(
            nodes_[static_cast<std::size_t>(n)].get(),
            1 + shardOf_[static_cast<std::size_t>(topo_->routerOf(
                    static_cast<NodeId>(n)))]);
    for (std::size_t i = 0; i < edges_.size(); i++)
        kernel.setDomain(shuttles_[i].get(), edges_[i].srcDomain);

    // Only edges that cross shards need the per-cycle publish/drain
    // passes; a same-shard proxied edge runs its channel in direct mode
    // (faulted fabrics only). At --shards 1 there are none and the
    // hooks below are never installed.
    crossEdges_.clear();
    for (auto &e : edges_) {
        if (e.srcDomain != e.dstDomain)
            crossEdges_.push_back(&e);
    }
    int shards = kernel.shardCount();

    // Per-domain cross-shard boundary lists, in link-enumeration order
    // — the canonical merge order for boundary events.
    domainIngress_.assign(static_cast<std::size_t>(shards) + 1, {});
    domainEgress_.assign(static_cast<std::size_t>(shards) + 1, {});
    for (BoundaryEdge *e : crossEdges_) {
        domainIngress_[static_cast<std::size_t>(e->dstDomain)]
            .push_back(e);
        domainEgress_[static_cast<std::size_t>(e->srcDomain)]
            .push_back(e->channel);
    }

    // Pre-pass (each shard's thread, before its tick pass): wake
    // routers that have boundary deliveries, forward ready credits.
    for (int d = 1; d <= shards; d++) {
        auto &ingress = domainIngress_[static_cast<std::size_t>(d)];
        auto &egress = domainEgress_[static_cast<std::size_t>(d)];
        if (ingress.empty() && egress.empty())
            continue;
        kernel.setDomainPrePass(d, [&ingress, &egress](Cycle now) {
            for (BoundaryEdge *e : ingress) {
                if (e->channel->takeDeliveryEdge())
                    e->dstRouter->wakeAt(now);
            }
            for (BoundaryChannel *c : egress)
                c->drainCredits();
        });
    }

    // Post-pass (driving thread, after the barrier): publish staged
    // cross-shard boundary traffic and tell the kernel which domains
    // have work, so the all-quiet fast path never skips a delivery.
    if (crossEdges_.empty())
        return;
    kernel.addPostPass([this, &kernel](Cycle) {
        for (BoundaryEdge *e : crossEdges_) {
            bool arrivals = e->channel->arrivalsDirty();
            bool credits = e->channel->creditsDirty();
            if (!arrivals && !credits)
                continue;
            e->channel->swapBuffers();
            if (arrivals)
                kernel.markDomainWork(e->dstDomain);
            if (credits)
                kernel.markDomainWork(e->srcDomain);
        }
    });
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
    if (faults != nullptr && ledgerActive_) {
        // Scheduled faults are processed at exact cycles inside each
        // link's lazy advance, and fault-attached links are advanced
        // by their *receivers* — possibly from another shard. Neither
        // fits the ledger's flat-scan/owner-writes model, so
        // resilience runs keep the direct per-link walk (which also
        // keeps their outputs byte-identical to the fault-era
        // goldens). Detaching is one-way for the run.
        for (auto &l : links_)
            l->detachLedger();
        ledgerActive_ = false;
    }
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
    // Id-order scan of the flag column: advances (and any transition
    // trace events they flush) happen in the same order the direct
    // per-link walk used, so event streams stay byte-identical.
    int n = ledger_.numLinks();
    for (int id = 0; id < n; id++) {
        if (ledger_.isUnstable(id))
            links_[static_cast<std::size_t>(id)]->powerMw(now);
    }
}

double
Network::totalPowerMw(Cycle now)
{
    if (!ledgerActive_)
        return totalPowerMwDirect(now);
    advancePendingPower(now);
    double sum = ledger_.totalDynMw();
    if (ledger_.thermalEnabled())
        sum += ledger_.totalLeakMw();
    return sum;
}

double
Network::totalPowerIntegralMwCycles(Cycle now)
{
    if (!ledgerActive_)
        return totalPowerIntegralMwCyclesDirect(now);
    advancePendingPower(now);
    double sum = ledger_.totalDynIntegralMwCycles(now);
    if (ledger_.thermalEnabled())
        sum += ledger_.totalLeakIntegralMwCycles(now);
    return sum;
}

double
Network::totalPowerMwDirect(Cycle now)
{
    double sum = 0.0;
    for (auto &l : links_)
        sum += l->powerMw(now);
    return sum;
}

double
Network::totalPowerIntegralMwCyclesDirect(Cycle now)
{
    double sum = 0.0;
    for (auto &l : links_)
        sum += l->powerIntegralMwCycles(now);
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
Network::sourceQueuedFlits() const
{
    std::uint64_t n = 0;
    for (const auto &node : nodes_)
        n += node->sourceQueueFlits();
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

std::uint64_t
Network::flitsInSystem() const
{
    std::uint64_t n = 0;
    for (const auto &node : nodes_)
        n += node->sourceQueueFlits();
    for (const auto &r : routers_)
        n += static_cast<std::uint64_t>(r->totalBufferedFlits());
    for (const auto &l : links_)
        n += static_cast<std::uint64_t>(l->inFlight());
    for (const auto &c : channels_)
        n += static_cast<std::uint64_t>(c->staged());
    return n;
}

} // namespace oenet
