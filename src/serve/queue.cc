#include "serve/queue.hh"

#include <algorithm>

#include "obs/metrics.hh"

namespace lsim::serve
{

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity))
{
}

Admission
RequestQueue::submit(QueuedRequest req, std::string *primary)
{
    MutexLock lock(mu_);
    if (live_.count(req.name) > 0)
        return Admission::RejectedName;

    // Coalesce before the capacity check: a follower costs a result
    // copy, not an execution slot, so backpressure never applies.
    const auto hit = primaries_.find(req.fingerprint);
    if (hit != primaries_.end()) {
        if (primary)
            *primary = hit->second;
        req.coalesced_with = hit->second;
        live_[req.name] = req.fingerprint;
        req.seq = next_seq_++;
        followers_[hit->second].push_back(std::move(req));
        return Admission::Coalesced;
    }

    if (pending_.size() >= capacity_)
        return Admission::RejectedFull;

    live_[req.name] = req.fingerprint;
    primaries_[req.fingerprint] = req.name;
    req.seq = next_seq_++;
    pending_.push_back(std::move(req));
    obs::gauge("serve.queue_depth")
        .set(static_cast<std::int64_t>(pending_.size()));
    cv_.notify_all();
    return Admission::Enqueued;
}

std::size_t
RequestQueue::bestLocked() const
{
    std::size_t best = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (best == pending_.size() ||
            pending_[i].priority > pending_[best].priority ||
            (pending_[i].priority == pending_[best].priority &&
             pending_[i].seq < pending_[best].seq))
            best = i;
    }
    return best;
}

std::optional<QueuedRequest>
RequestQueue::pop()
{
    MutexLock lock(mu_);
    const std::size_t best = bestLocked();
    if (best == pending_.size())
        return std::nullopt;
    QueuedRequest req = std::move(pending_[best]);
    pending_.erase(pending_.begin() +
                   static_cast<std::ptrdiff_t>(best));
    obs::gauge("serve.queue_depth")
        .set(static_cast<std::int64_t>(pending_.size()));
    return req;
}

std::vector<QueuedRequest>
RequestQueue::finish(const std::string &name)
{
    MutexLock lock(mu_);
    std::vector<QueuedRequest> out;
    const auto followers = followers_.find(name);
    if (followers != followers_.end()) {
        out = std::move(followers->second);
        followers_.erase(followers);
    }
    const auto fp = live_.find(name);
    if (fp != live_.end()) {
        const auto primary = primaries_.find(fp->second);
        if (primary != primaries_.end() && primary->second == name)
            primaries_.erase(primary);
        live_.erase(fp);
    }
    for (const QueuedRequest &f : out)
        live_.erase(f.name);
    return out;
}

std::vector<QueuedRequest>
RequestQueue::drainPending()
{
    MutexLock lock(mu_);
    std::vector<QueuedRequest> out = std::move(pending_);
    pending_.clear();
    // Followers of a drained primary are abandoned with it (the
    // caller fails them all together); followers of an *executing*
    // primary stay — that request still completes and fans out.
    const std::size_t primaries = out.size();
    for (std::size_t i = 0; i < primaries; ++i) {
        const QueuedRequest &req = out[i];
        const auto fp = live_.find(req.name);
        if (fp != live_.end()) {
            primaries_.erase(fp->second);
            live_.erase(fp);
        }
        const auto followers = followers_.find(req.name);
        if (followers != followers_.end()) {
            for (QueuedRequest &f : followers->second) {
                live_.erase(f.name);
                out.push_back(std::move(f));
            }
            followers_.erase(followers);
        }
    }
    obs::gauge("serve.queue_depth").set(0);
    return out;
}

std::size_t
RequestQueue::depth() const
{
    MutexLock lock(mu_);
    return pending_.size();
}

bool
RequestQueue::full() const
{
    MutexLock lock(mu_);
    return pending_.size() >= capacity_;
}

bool
RequestQueue::live(const std::string &name) const
{
    MutexLock lock(mu_);
    return live_.count(name) > 0;
}

bool
RequestQueue::waitForWork(std::chrono::milliseconds timeout)
{
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (pending_.empty()) {
        if (cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout)
            return !pending_.empty();
    }
    return true;
}

} // namespace lsim::serve
