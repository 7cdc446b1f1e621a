#include "network/boundary.hh"

#include "common/log.hh"

namespace oenet {

void
BoundaryChannel::publish(Cycle now)
{
    if (arrivalsListed_) {
        arrivalsListed_ = false;
        if (head_ != readyEnd_)
            panic("BoundaryChannel %s: %u ready flits not drained "
                  "(missing delivery wake?)",
                  link_->name().c_str(), readyEnd_ - head_);
        publishedHead_ = head_;
        readyEnd_ = pendEnd_;
        failed_ = failStaged_;
        dst_->wakeAt(now + 1);
    }
    if (creditsListed_) {
        creditsListed_ = false;
        while (credHead_ != credPendEnd_) {
            const StagedCredit &c = credits_[credHead_++ & kCreditMask];
            upstream_->returnCredit(srcPort_, c.vc, c.at);
        }
    }
}

} // namespace oenet
