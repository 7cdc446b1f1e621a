#include "network/node.hh"

#include "common/log.hh"
#include "router/flit.hh"

namespace oenet {

Node::Node(NodeId id, const Params &params)
    : id_(id), params_(params), name_("node" + std::to_string(id))
{
    if (params_.numVcs < 1 || params_.vcDepth < 1)
        fatal("Node %u: bad VC configuration", id);
    credits_.assign(static_cast<std::size_t>(params_.numVcs),
                    params_.vcDepth);
}

void
Node::connectInjection(OpticalLink *link)
{
    injLink_ = link;
}

void
Node::connectEjection(OpticalLink *link, CreditSink *upstream,
                      int upstream_port)
{
    ejLink_ = link;
    ejUpstream_ = upstream;
    ejUpstreamPort_ = upstream_port;
    if (link != nullptr)
        link->setReceiver(this); // ejection wake edge (idle elision)
}

void
Node::enqueuePacket(PacketId id, NodeId dst, int len, Cycle now)
{
    flitizeScratch_.clear(); // keeps its capacity across packets
    flitizePacket(flitizeScratch_, id, id_, dst, len, now);
    for (const Flit &f : flitizeScratch_)
        sourceQueue_.push_back(f);
    packetsEnqueued_++;
    wakeAt(now); // injection wake edge: start serializing this cycle
}

void
Node::returnCredit(int, int vc, Cycle now)
{
    pendingCredits_.push_back(PendingCredit{vc, now + 1});
    wakeAt(now + 1); // credit wake edge: apply it on time if parked
}

double
Node::occupancyIntegral(int, Cycle) const
{
    return 0.0;
}

int
Node::bufferCapacity(int) const
{
    return params_.numVcs * params_.vcDepth;
}

void
Node::applyCredits(Cycle now)
{
    std::size_t i = 0;
    while (i < pendingCredits_.size()) {
        if (pendingCredits_[i].effective <= now) {
            int vc = pendingCredits_[i].vc;
            credits_[static_cast<std::size_t>(vc)]++;
            if (credits_[static_cast<std::size_t>(vc)] > params_.vcDepth)
                panic("Node %u: credit overflow on vc %d", id_, vc);
            pendingCredits_[i] = pendingCredits_.back();
            pendingCredits_.pop_back();
        } else {
            i++;
        }
    }
}

void
Node::drainEjection(Cycle now)
{
    if (ejLink_ == nullptr)
        return;
    ejLink_->drainArrivalsDue(now, [this, now](const Flit &flit) {
        // Immediately free the router-side credit for this flit.
        if (ejUpstream_ != nullptr)
            ejUpstream_->returnCredit(ejUpstreamPort_, flit.vc, now);
        if (flit.isPoison()) {
            // Synthetic tail closing a wormhole killed by a link
            // failure: frees resources but is not delivered data.
            poisonTails_++;
            return;
        }
        flitsEjected_++;
        if (flit.isTail()) {
            packetsEjected_++;
            if (sink_ != nullptr)
                sink_->packetEjected(flit, now);
        }
    });
}

int
Node::pickFreeVc()
{
    for (int i = 0; i < params_.numVcs; i++) {
        int vc = (nextVcRr_ + i) % params_.numVcs;
        if (credits_[static_cast<std::size_t>(vc)] > 0) {
            nextVcRr_ = (vc + 1) % params_.numVcs;
            return vc;
        }
    }
    return kInvalid;
}

void
Node::inject(Cycle now)
{
    if (injLink_ == nullptr)
        return;
    while (!sourceQueue_.empty() && injLink_->canAccept(now)) {
        Flit &front = sourceQueue_.front();
        int vc;
        if (front.isHead()) {
            if (currentVc_ != kInvalid)
                panic("Node %u: head while packet in progress", id_);
            vc = pickFreeVc();
            if (vc == kInvalid)
                return; // no credits on any VC
        } else {
            vc = currentVc_;
            if (vc == kInvalid)
                panic("Node %u: body flit without an active VC", id_);
            if (credits_[static_cast<std::size_t>(vc)] <= 0)
                return; // downstream buffer full
        }
        Flit flit = front;
        sourceQueue_.pop_front();
        flit.vc = static_cast<std::uint8_t>(vc);
        injLink_->accept(now, flit);
        credits_[static_cast<std::size_t>(vc)]--;
        flitsInjected_++;
        currentVc_ = flit.isTail() ? kInvalid : vc;
    }
}

void
Node::tick(Cycle now)
{
    if (!pendingCredits_.empty())
        applyCredits(now);
    drainEjection(now);
    inject(now);
}

Cycle
Node::nextWakeCycle(Cycle now)
{
    // An empty source queue implies no packet is mid-injection (whole
    // packets are enqueued atomically, so the last injected flit of a
    // drained queue was a tail), and pending credits are the only
    // other tick-visible state; everything else is the ejection link's
    // business.
    if (!sourceQueue_.empty() || !pendingCredits_.empty())
        return now + 1;
    return ejLink_ != nullptr ? ejLink_->nextReceiverEventCycle()
                              : kNeverCycle;
}

} // namespace oenet
