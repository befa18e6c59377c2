#include "serve/admission.h"

namespace nesgx::serve {

Status
AdmissionController::submit(TenantId tenant, Bytes sealed)
{
    std::deque<Request>& queue = queues_[tenant];
    if (queue.size() >= config_.maxQueueDepth) {
        ++rejected_;
        return Err::Backpressure;
    }
    Request req;
    req.id = nextId_++;
    req.tenant = tenant;
    req.enqueuedAt = machine_->clock().cycles();
    if (config_.deadlineCycles > 0) {
        // Saturate: a deadline past the end of the clock never sheds,
        // it must not wrap into the past and shed everything.
        req.deadline =
            config_.deadlineCycles > UINT64_MAX - req.enqueuedAt
                ? UINT64_MAX
                : req.enqueuedAt + config_.deadlineCycles;
    }
    req.sealed = std::move(sealed);
    queue.push_back(std::move(req));
    ++totalQueued_;
    ++submitted_;
    machine_->trace().publishLight(trace::EventKind::ServeEnqueue,
                                   trace::kNoCore, 0, tenant, queue.size());
    return Status::ok();
}

std::vector<Request>
AdmissionController::takeBatch(TenantId tenant, std::size_t max,
                               std::vector<Request>* shedOut)
{
    std::vector<Request> out;
    auto it = queues_.find(tenant);
    if (it == queues_.end()) return out;
    std::deque<Request>& queue = it->second;
    const std::uint64_t now = machine_->clock().cycles();

    while (!queue.empty() && out.size() < max) {
        Request& head = queue.front();
        if (head.deadline != 0 && now > head.deadline) {
            // One event per shed request (arg1 = 1 keeps the counter
            // fold additive), and the request itself goes back to the
            // caller for a typed Err::Deadline completion — a batch
            // whose every entry expired must not vanish silently.
            ++shed_;
            machine_->trace().publishLight(trace::EventKind::ServeShed,
                                           trace::kNoCore, 0, tenant, 1);
            if (shedOut) shedOut->push_back(std::move(head));
        } else {
            out.push_back(std::move(head));
        }
        queue.pop_front();
        --totalQueued_;
    }
    return out;
}

std::vector<Request>
AdmissionController::purge(TenantId tenant)
{
    std::vector<Request> out;
    auto it = queues_.find(tenant);
    if (it == queues_.end()) return out;
    out.reserve(it->second.size());
    for (Request& r : it->second) out.push_back(std::move(r));
    totalQueued_ -= it->second.size();
    it->second.clear();
    return out;
}

std::optional<TenantId>
AdmissionController::nextTenant()
{
    if (totalQueued() == 0) return std::nullopt;
    // Start scanning just past the previously served tenant, wrapping.
    auto start = haveLast_ ? queues_.upper_bound(lastTenant_)
                           : queues_.begin();
    for (auto it = start; it != queues_.end(); ++it) {
        if (!it->second.empty()) {
            lastTenant_ = it->first;
            haveLast_ = true;
            return it->first;
        }
    }
    for (auto it = queues_.begin(); it != start; ++it) {
        if (!it->second.empty()) {
            lastTenant_ = it->first;
            haveLast_ = true;
            return it->first;
        }
    }
    return std::nullopt;
}

std::size_t
AdmissionController::depth(TenantId tenant) const
{
    auto it = queues_.find(tenant);
    return it == queues_.end() ? 0 : it->second.size();
}

}  // namespace nesgx::serve
