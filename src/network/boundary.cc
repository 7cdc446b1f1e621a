#include "network/boundary.hh"

#include "common/log.hh"

namespace oenet {

void
BoundaryChannel::swapBuffers()
{
    if (head_ != readyEnd_)
        panic("BoundaryChannel %s: %u ready flits not drained "
              "(missing delivery wake?)",
              link_->name().c_str(), readyEnd_ - head_);
    if (credHead_ != credReadyEnd_)
        panic("BoundaryChannel %s: %u ready credits not drained",
              link_->name().c_str(), credReadyEnd_ - credHead_);
    publishedHead_ = head_;
    publishedCredHead_ = credHead_;
    readyEnd_ = pendEnd_;
    credReadyEnd_ = credPendEnd_;
    if (pendingFailed_) {
        pendingFailed_ = false;
        failed_ = true;
        failEdge_ = true;
    }
    arrivalsDirty_ = false;
    creditsDirty_ = false;
}

} // namespace oenet
