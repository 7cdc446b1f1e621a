#include "router/router.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "network/boundary.hh"

namespace oenet {

Router::Router(std::string name, int router_id, const Topology &topo,
               const Params &params)
    : name_(std::move(name)), routerId_(router_id), topo_(topo),
      params_(params),
      restrictedVcs_(topo.numVcClasses() > 1)
{
    if (params_.numVcs < 1)
        fatal("Router %s: need at least one VC", name_.c_str());
    if (params_.numVcs < topo_.numVcClasses())
        fatal("Router %s: %s routing needs %d VC classes but only %d "
              "VCs are configured (raise router.vcs)", name_.c_str(),
              topo_.name(), topo_.numVcClasses(), params_.numVcs);
    if (params_.bufferDepthPerPort < params_.numVcs)
        fatal("Router %s: buffer depth %d cannot cover %d VCs",
              name_.c_str(), params_.bufferDepthPerPort, params_.numVcs);
    vcDepth_ = params_.bufferDepthPerPort / params_.numVcs;

    int ports = topo_.portsPerRouter();
    if (ports > kMaxPorts || ports * params_.numVcs > 64)
        fatal("Router %s: %d ports x %d VCs exceeds allocator masks",
              name_.c_str(), ports, params_.numVcs);
    auto nports = static_cast<std::size_t>(ports);
    auto nflat = static_cast<std::size_t>(ports * params_.numVcs);
    inputs_.resize(nports);
    vcOutPort_.assign(nflat, static_cast<std::int16_t>(kInvalid));
    vcOutVc_.assign(nflat, static_cast<std::int16_t>(kInvalid));
    vcOutVcMask_.assign(nflat, 0);
    vcLastActivity_.assign(nflat, 0);
    buffers_.configure(ports * params_.numVcs, vcDepth_);
    portOcc_.assign(nports, 0);
    portOccTime_.resize(nports);
    outCredits_.assign(nflat, 0);
    outMaxCredits_.assign(nflat, 0);
    outLink_.assign(nports, nullptr);
    latch_.assign(nports, Flit{});
    saArb_.resize(nports);
    vaArb_.resize(nports);
    saInputArb_.resize(nports);

    for (int p = 0; p < ports; p++) {
        saArb_[static_cast<std::size_t>(p)].resize(ports);
        vaArb_[static_cast<std::size_t>(p)].resize(ports * params_.numVcs);
        saInputArb_[static_cast<std::size_t>(p)].resize(params_.numVcs);
    }
}

void
Router::connectInput(int port, OpticalLink *link, CreditSink *upstream,
                     int upstream_port)
{
    if (port < 0 || port >= numPorts())
        panic("Router %s: bad input port %d", name_.c_str(), port);
    auto &in = inputs_[static_cast<std::size_t>(port)];
    in.link = link;
    in.upstream = upstream;
    in.upstreamPort = upstream_port;
    if (link != nullptr) {
        link->setReceiver(this); // arrival wake edge (idle elision)
        link->setArrivalFlag(&inputPending_, 1ull << port);
        inputPending_ |= 1ull << port;
    }
}

void
Router::connectInputBoundary(int port, OpticalLink *link,
                             BoundaryChannel *channel, int upstream_port)
{
    if (port < 0 || port >= numPorts())
        panic("Router %s: bad input port %d", name_.c_str(), port);
    auto &in = inputs_[static_cast<std::size_t>(port)];
    in.link = link; // introspection only; the source router receives
    in.boundary = channel;
    in.upstream = channel;
    in.upstreamPort = upstream_port;
    inputPending_ |= 1ull << port;
}

bool
Router::inputFailed(const InputPort &in)
{
    return in.boundary != nullptr
               ? in.boundary->failed()
               : in.link != nullptr && in.link->isFailed();
}

void
Router::connectOutput(int port, OpticalLink *link, int downstream_vc_depth)
{
    if (port < 0 || port >= numPorts())
        panic("Router %s: bad output port %d", name_.c_str(), port);
    outLink_[static_cast<std::size_t>(port)] = link;
    for (int v = 0; v < params_.numVcs; v++) {
        auto f = static_cast<std::size_t>(flatIdx(port, v));
        outCredits_[f] = downstream_vc_depth;
        outMaxCredits_[f] = downstream_vc_depth;
    }
}

void
Router::connectOutputBoundary(int port, BoundaryChannel *channel,
                              std::uint32_t trace_order)
{
    if (port < 0 || port >= numPorts() ||
        outLink_[static_cast<std::size_t>(port)] != channel->link())
        panic("Router %s: output %d does not drive the channel's link",
              name_.c_str(), port);
    OpticalLink *link = channel->link();
    // Wake edge: one cycle before each receiver event, the cycle whose
    // walk stages it (see walkBoundaryOutputs).
    link->setReceiver(this);
    link->setReceiverWakeLead(1);
    outBoundary_.push_back(BoundaryOutput{link, channel, trace_order});
}

void
Router::returnCredit(int port, int vc, Cycle now)
{
    pendingCredits_.push_back(PendingCredit{port, vc, now + 1});
    wakeAt(now + 1); // credit wake edge: apply it on time if parked
}

double
Router::occupancyIntegral(int port, Cycle now) const
{
    return portOccTime_.at(static_cast<std::size_t>(port)).integral(now);
}

int
Router::bufferCapacity(int) const
{
    return vcDepth_ * params_.numVcs;
}

int
Router::inputOccupancy(int port) const
{
    return portOcc_.at(static_cast<std::size_t>(port));
}

int
Router::outputCredits(int port, int vc) const
{
    if (port < 0 || port >= numPorts() || vc < 0 || vc >= params_.numVcs)
        panic("Router %s: bad output VC (%d, %d)", name_.c_str(), port,
              vc);
    return outCredits_[static_cast<std::size_t>(flatIdx(port, vc))];
}

int
Router::outputVcCapacity(int port, int vc) const
{
    if (port < 0 || port >= numPorts() || vc < 0 || vc >= params_.numVcs)
        panic("Router %s: bad output VC (%d, %d)", name_.c_str(), port,
              vc);
    return outMaxCredits_[static_cast<std::size_t>(flatIdx(port, vc))];
}

bool
Router::outputVcFree(int port, int vc) const
{
    if (port < 0 || port >= numPorts() || vc < 0 || vc >= params_.numVcs)
        panic("Router %s: bad output VC (%d, %d)", name_.c_str(), port,
              vc);
    return !(outAllocMask_ >> flatIdx(port, vc) & 1);
}

OpticalLink *
Router::outputLink(int port) const
{
    return outLink_.at(static_cast<std::size_t>(port));
}

OpticalLink *
Router::inputLink(int port) const
{
    return inputs_.at(static_cast<std::size_t>(port)).link;
}

bool
Router::outputWaiting(int port) const
{
    if (latchMask_ >> port & 1)
        return true;
    // Only a routed VC (VC-allocating or active) has an output port.
    for (std::uint64_t m = vcAllocMask_ | activeMask_; m != 0; m &= m - 1) {
        int f = std::countr_zero(m);
        if (vcOutPort_[static_cast<std::size_t>(f)] == port &&
            !buffers_.empty(f))
            return true;
    }
    return false;
}

int
Router::bufferedFor(int port) const
{
    int n = static_cast<int>(latchMask_ >> port & 1);
    for (std::uint64_t m = vcAllocMask_ | activeMask_; m != 0; m &= m - 1) {
        int f = std::countr_zero(m);
        if (vcOutPort_[static_cast<std::size_t>(f)] == port)
            n += buffers_.size(f);
    }
    return n;
}

int
Router::totalBufferedFlits() const
{
    // Summed from portOcc_, not walked over occMask_, so the
    // conservation audit still counts a flit whose mask bit is lost.
    int n = std::popcount(latchMask_);
    for (std::int32_t occ : portOcc_)
        n += occ;
    return n;
}

void
Router::applyCredits(Cycle now)
{
    std::size_t i = 0;
    while (i < pendingCredits_.size()) {
        const auto &pc = pendingCredits_[i];
        if (pc.effective <= now) {
            auto f = static_cast<std::size_t>(flatIdx(pc.port, pc.vc));
            outCredits_[f]++;
            if (outCredits_[f] > vcDepth_)
                panic("Router %s: credit overflow on output %d vc %d",
                      name_.c_str(), pc.port, pc.vc);
            pendingCredits_[i] = pendingCredits_.back();
            pendingCredits_.pop_back();
        } else {
            i++;
        }
    }
}

void
Router::stageSwitchTraversal(Cycle now)
{
    // Walk only the occupied latches (ascending port order, same as
    // the full scan). SA runs after ST within a tick, so the mask at
    // entry is exactly the set of latches filled in earlier cycles.
    for (std::uint64_t m = latchMask_; m != 0; m &= m - 1) {
        int q = std::countr_zero(m);
        auto s = static_cast<std::size_t>(q);
        OpticalLink *link = outLink_[s];
        if (link == nullptr)
            panic("Router %s: latched flit on unconnected output",
                  name_.c_str());
        if (link->canAccept(now)) {
            link->accept(now, latch_[s]);
            latchMask_ &= ~(1ull << q);
        } else if (link->isFailed()) {
            // The link died with this flit waiting; it is lost.
            latchMask_ &= ~(1ull << q);
            droppedDeadPort_++;
        }
        // Otherwise the flit waits in the latch; SA skips this port.
    }
}

void
Router::stageSwitchAllocation(Cycle now)
{
    int vcs = params_.numVcs;

    // Stage 1: each occupied input port nominates one of its VCs.
    // Requests per output port are accumulated as bit masks for stage
    // 2; requested_outputs says which port_requests words stage 1 wrote.
    std::uint64_t port_requests[kMaxPorts];
    std::int8_t candidate_vc[kMaxPorts] = {}; ///< winner VC per input
    std::uint64_t requested_outputs = 0;
    for (std::uint64_t m = occMask_; m != 0; m &= m - 1) {
        int p = std::countr_zero(m);
        int base = p * vcs;
        std::uint64_t req = 0;
        for (int v = 0; v < vcs; v++) {
            auto f = static_cast<std::size_t>(base + v);
            if (!(activeMask_ >> f & 1) || buffers_.empty(base + v))
                continue;
            int q = vcOutPort_[f];
            OpticalLink *olink = outLink_[static_cast<std::size_t>(q)];
            // A dead output accepts (and discards) anything, so the
            // wormhole headed there can drain regardless of latch or
            // credit state.
            if (olink == nullptr || !olink->isFailed()) {
                if (latchMask_ >> q & 1)
                    continue;
                if (outCredits_[static_cast<std::size_t>(
                        q * vcs + vcOutVc_[f])] <= 0)
                    continue;
            }
            req |= 1ull << v;
        }
        if (req == 0)
            continue;
        int winner = saInputArb_[static_cast<std::size_t>(p)].pick(req);
        candidate_vc[p] = static_cast<std::int8_t>(winner);
        int q = vcOutPort_[static_cast<std::size_t>(base + winner)];
        if (!(requested_outputs >> q & 1)) {
            requested_outputs |= 1ull << q;
            port_requests[q] = 0;
        }
        port_requests[q] |= 1ull << p;
    }

    // Stage 2: each requested output port picks among its nominating
    // input ports. An input nominates one VC, hence one output, so no
    // input is granted twice.
    for (std::uint64_t m = requested_outputs; m != 0; m &= m - 1) {
        int q = std::countr_zero(m);
        auto qs = static_cast<std::size_t>(q);
        if (latchMask_ >> q & 1)
            continue;
        int p = saArb_[qs].pick(port_requests[q]);
        int v = candidate_vc[p];
        auto ps = static_cast<std::size_t>(p);
        auto &in = inputs_[ps];
        int fi = p * vcs + v;
        auto fs = static_cast<std::size_t>(fi);

        Flit flit = buffers_.pop(fi);
        if (--portOcc_[ps] == 0)
            occMask_ &= ~(1ull << p);
        portOccTime_[ps].update(now, portOcc_[ps]);
        vcLastActivity_[fs] = now;
        int ov = vcOutVc_[fs];
        OpticalLink *olink = outLink_[qs];
        bool dead = olink != nullptr && olink->isFailed();
        if (dead) {
            // Flits to a hard-failed link are discarded at the switch;
            // output credits are not touched (the far side will never
            // return them).
            droppedDeadPort_++;
        } else {
            flit.vc = static_cast<std::uint8_t>(ov);
            latch_[qs] = flit;
            latchMask_ |= 1ull << q;
            outCredits_[static_cast<std::size_t>(q * vcs + ov)]--;
            flitsSwitched_++;
        }

        // Return a credit for the slot we just freed — except for a
        // locally injected poison tail, which never consumed an
        // upstream credit (it was synthesized into the buffer, not
        // sent over the input link).
        if (in.upstream != nullptr && !(flit.isPoison() && inputFailed(in)))
            in.upstream->returnCredit(in.upstreamPort, v, now);

        if (flit.isTail()) {
            outAllocMask_ &= ~(1ull << (q * vcs + ov));
            vcOutPort_[fs] = static_cast<std::int16_t>(kInvalid);
            vcOutVc_[fs] = static_cast<std::int16_t>(kInvalid);
            activeMask_ &= ~(1ull << fi);
            // A VC left non-empty holds the next packet's head.
            if (!buffers_.empty(fi)) {
                if (!buffers_.front(fi).isHead())
                    panic("Router %s: non-head after tail on in %d vc %d",
                          name_.c_str(), p, v);
                routingMask_ |= 1ull << fi;
            }
        }
    }
}

void
Router::stageVcAllocation(Cycle now)
{
    (void)now;
    int vcs = params_.numVcs;

    // Collect requesting input VCs (flattened index p*vcs + v) per
    // requested output port from vcAllocMask_; requested_outputs
    // says which requests words were written.
    std::uint64_t requests[kMaxPorts];
    std::uint64_t requested_outputs = 0;
    for (std::uint64_t m = vcAllocMask_; m != 0; m &= m - 1) {
        int f = std::countr_zero(m);
        int q = vcOutPort_[static_cast<std::size_t>(f)];
        if (!(requested_outputs >> q & 1)) {
            requested_outputs |= 1ull << q;
            requests[q] = 0;
        }
        requests[q] |= 1ull << f;
    }

    for (std::uint64_t m = requested_outputs; m != 0; m &= m - 1) {
        int q = std::countr_zero(m);
        auto qs = static_cast<std::size_t>(q);

        if (outLink_[qs] != nullptr && outLink_[qs]->isFailed()) {
            // Dead output: grant every requester immediately (VC 0,
            // unconditionally) so wormholes stuck routing to it can
            // drain into the drop path instead of waiting forever for
            // an output VC that will never free.
            for (;;) {
                int winner = vaArb_[qs].pick(requests[q]);
                if (winner < 0)
                    break;
                vcOutVc_[static_cast<std::size_t>(winner)] = 0;
                vcAllocMask_ &= ~(1ull << winner);
                activeMask_ |= 1ull << winner;
                requests[q] &= ~(1ull << winner);
            }
            continue;
        }

        // Hand each free output VC to one requester, rotating fairly.
        // With a VC-class topology (torus datelines) each requester
        // may only take output VCs inside the mask its route computed;
        // the unrestricted fabrics keep the mask-free fast path.
        int qbase = q * vcs;
        for (int ov = 0; ov < vcs; ov++) {
            if (outAllocMask_ >> (qbase + ov) & 1)
                continue;
            std::uint64_t eligible = requests[q];
            if (restrictedVcs_) {
                for (std::uint64_t rem = eligible; rem != 0;
                     rem &= rem - 1) {
                    int i = std::countr_zero(rem);
                    if (!(vcOutVcMask_[static_cast<std::size_t>(i)] >> ov &
                          1))
                        eligible &= ~(1ull << i);
                }
                if (eligible == 0)
                    continue;
            }
            int winner = vaArb_[qs].pick(eligible);
            if (winner < 0)
                break;
            vcOutVc_[static_cast<std::size_t>(winner)] =
                static_cast<std::int16_t>(ov);
            vcAllocMask_ &= ~(1ull << winner);
            activeMask_ |= 1ull << winner;
            outAllocMask_ |= 1ull << (qbase + ov);
            requests[q] &= ~(1ull << winner);
        }
    }
}

std::uint64_t
Router::vcMaskForClass(int vc_class) const
{
    int vcs = params_.numVcs;
    std::uint64_t all =
        vcs >= 64 ? ~0ull : (1ull << vcs) - 1;
    if (vc_class == kAnyVcClass)
        return all;
    // Split the VC pool evenly across the topology's classes: class 0
    // gets the low half, class 1 the high half (torus datelines).
    int half = vcs / 2;
    if (vc_class == 0)
        return (1ull << half) - 1;
    return all & ~((1ull << half) - 1);
}

RouteOption
Router::selectRoute(NodeId dst)
{
    RouteOption candidates[kMaxRouteCandidates];
    int n = topo_.routeCandidates(params_.routing, routerId_, dst,
                                  candidates);
    // Route around hard failures where the routing function leaves an
    // alternative; if every productive direction is dead, keep the
    // first candidate and let the drop path reclaim the flits.
    RouteOption live[kMaxRouteCandidates];
    int m = 0;
    for (int i = 0; i < n; i++) {
        OpticalLink *link = outLink_[static_cast<std::size_t>(
            candidates[i].port.value())];
        if (link != nullptr && link->isFailed())
            continue;
        live[m++] = candidates[i];
    }
    if (m == 0) {
        live[0] = candidates[0];
        m = 1;
    }
    if (m == 1)
        return live[0];
    // Adaptive selection: prefer the productive direction with the
    // most downstream credit (least congested), ties to the first.
    RouteOption best = live[0];
    int best_credits = -1;
    for (int i = 0; i < m; i++) {
        int base = live[i].port.value() * params_.numVcs;
        int credits = 0;
        for (int v = 0; v < params_.numVcs; v++)
            credits += outCredits_[static_cast<std::size_t>(base + v)];
        if (credits > best_credits) {
            best_credits = credits;
            best = live[i];
        }
    }
    return best;
}

void
Router::stageRouteComputation(Cycle now)
{
    (void)now;
    for (std::uint64_t m = routingMask_; m != 0; m &= m - 1) {
        int f = std::countr_zero(m);
        auto fs = static_cast<std::size_t>(f);
        if (buffers_.empty(f) || !buffers_.front(f).isHead())
            panic("Router %s: routing state without head flit",
                  name_.c_str());
        RouteOption route = selectRoute(buffers_.front(f).dst);
        vcOutPort_[fs] = static_cast<std::int16_t>(route.port.value());
        vcOutVcMask_[fs] = vcMaskForClass(route.vcClass);
    }
    // Every routing VC has moved to VC allocation.
    vcAllocMask_ |= routingMask_;
    routingMask_ = 0;
}

void
Router::drainArrivals(Cycle now)
{
    // Ascending port order, as a full scan would visit them.
    for (std::uint64_t m = inputPending_; m != 0; m &= m - 1) {
        int p = std::countr_zero(m);
        auto deliver = [&](const Flit &flit) {
            int v = flit.vc;
            if (v < 0 || v >= params_.numVcs)
                panic("Router %s: flit with bad VC %d on input %d",
                      name_.c_str(), v, p);
            int fi = flatIdx(p, v);
            auto fs = static_cast<std::size_t>(fi);
            if (buffers_.full(fi))
                panic("Router %s: input %d vc %d overflow (credit bug)",
                      name_.c_str(), p, v);
            if (!((routingMask_ | vcAllocMask_ | activeMask_) >> fi & 1)) {
                // Idle VC: the flit opens a packet.
                if (!flit.isHead())
                    panic("Router %s: body flit into idle in %d vc %d",
                          name_.c_str(), p, v);
                routingMask_ |= 1ull << fi;
            }
            buffers_.push(fi, flit);
            vcLastActivity_[fs] = now;
            auto ps = static_cast<std::size_t>(p);
            portOcc_[ps]++;
            occMask_ |= 1ull << p;
            portOccTime_[ps].update(now, portOcc_[ps]);
        };
        const InputPort &in = inputs_[static_cast<std::size_t>(p)];
        if (BoundaryChannel *bc = in.boundary) {
            // Channeled input: everything on the ready side has an
            // arrival stamp <= now (the source router's walk staged it
            // one cycle before arrival).
            while (bc->hasReadyArrival())
                deliver(bc->popReadyArrival());
        } else {
            OpticalLink *l = in.link;
            l->drainArrivalsDue(now, deliver);
            // An empty fault-free link has nothing to hand over until
            // its next accept() sets the bit again. A faulted one stays
            // flagged: its scheduled faults and transition ends are
            // receiver events too, and the poll is O(1) until one is
            // due.
            if (l->inFlight() == 0 && !l->faultModel())
                inputPending_ &= ~(1ull << p);
        }
    }
}

void
Router::reclaimOrphans(Cycle now)
{
    for (int p = 0; p < numPorts(); p++) {
        auto &in = inputs_[static_cast<std::size_t>(p)];
        if (!inputFailed(in))
            continue;
        for (int v = 0; v < params_.numVcs; v++) {
            int fi = flatIdx(p, v);
            auto fs = static_cast<std::size_t>(fi);
            // Active with an empty buffer means mid-wormhole: the head
            // went downstream, the rest died with the link. Once the
            // timeout confirms nothing more is coming, close the
            // wormhole with a synthetic poison tail; normal switch
            // allocation forwards it and frees the allocated state at
            // every hop downstream.
            if (!(activeMask_ >> fi & 1) || !buffers_.empty(fi))
                continue;
            if (now < vcLastActivity_[fs] + orphanTimeout_)
                continue;
            Flit tail{};
            tail.flags = Flit::kTailFlag | Flit::kPoisonFlag;
            buffers_.push(fi, tail);
            vcLastActivity_[fs] = now;
            auto ps = static_cast<std::size_t>(p);
            portOcc_[ps]++;
            occMask_ |= 1ull << p;
            portOccTime_[ps].update(now, portOcc_[ps]);
            poisoned_++;
        }
    }
}

void
Router::walkBoundaryOutputs(Cycle now)
{
    // Each channeled output's receiver walk, after this cycle's last
    // touch of the link by its sender (ST above). Nothing else touches
    // the link during the parallel phase, so every RNG draw, counter
    // and ledger write lands as it would for a direct receiver polling
    // one cycle ahead, and the router's own stages first see a failure
    // the walk discovers on the next tick.
    for (const BoundaryOutput &out : outBoundary_) {
        OpticalLink *link = out.link;
        if (link->nextReceiverEventCycle() <= now + 1) {
            Kernel::setShardPassOrder(out.traceOrder);
            BoundaryChannel *ch = out.channel;
            link->drainArrivalsDue(
                now + 1, [ch](const Flit &f) { ch->stageArrival(f); });
        }
        if (link->isFailed())
            out.channel->stageFailure();
    }
}

void
Router::tick(Cycle now)
{
    if (!pendingCredits_.empty())
        applyCredits(now);
    if (latchMask_ != 0)
        stageSwitchTraversal(now);
    if (occMask_ != 0)
        stageSwitchAllocation(now);
    if (vcAllocMask_ != 0)
        stageVcAllocation(now);
    if (routingMask_ != 0)
        stageRouteComputation(now);
    drainArrivals(now);
    if (orphanTimeout_ != 0 && (now & 1023) == 0)
        reclaimOrphans(now);
    if (!outBoundary_.empty())
        walkBoundaryOutputs(now);
}

Cycle
Router::nextWakeCycle(Cycle now)
{
    // Any pipeline population keeps the router in the per-cycle pass.
    // activeMask_ matters even with empty buffers: an open wormhole may
    // still owe flits (or a poison tail on a failed input link).
    if ((occMask_ | latchMask_ | routingMask_ | vcAllocMask_ |
         activeMask_) != 0 ||
        !pendingCredits_.empty())
        return now + 1;
    Cycle wake = kNeverCycle;
    // Unflagged inputs are empty fault-free links: no event pending.
    for (std::uint64_t m = inputPending_; m != 0; m &= m - 1) {
        const InputPort &in = inputs_[static_cast<std::size_t>(
            std::countr_zero(m))];
        // Channeled inputs contribute nothing: their link belongs to
        // the source router (reading it here would race its walk), and
        // every delivery comes with a publish wake edge instead.
        if (in.boundary != nullptr)
            continue;
        wake = std::min(wake, in.link->nextReceiverEventCycle());
    }
    // A channeled output's walk stages each receiver event one cycle
    // ahead; everything due by now+1 was just walked.
    for (const BoundaryOutput &out : outBoundary_) {
        Cycle event = out.link->nextReceiverEventCycle();
        if (event != kNeverCycle)
            wake = std::min(wake, event > now + 1 ? event - 1 : now + 1);
    }
    return wake;
}

} // namespace oenet
