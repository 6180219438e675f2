#include "vf/serve/queue.hpp"

#include <utility>

#include "vf/obs/obs.hpp"

namespace vf::serve {

bool Reply::fulfill(PointResponse resp) {
  if (answered_) return false;
  answered_ = true;
  // vf-lint: allow(unbounded-wait) the answer-exactly-once helper itself
  promise_.set_value(std::move(resp));
  return true;
}

bool Reply::fulfill(Status status) {
  PointResponse resp;
  resp.status = status;
  return fulfill(std::move(resp));
}

bool Reply::fail(std::exception_ptr err) {
  if (answered_) return false;
  answered_ = true;
  // vf-lint: allow(unbounded-wait) the answer-exactly-once helper itself
  promise_.set_exception(std::move(err));
  return true;
}

RequestQueue::RequestQueue(std::size_t max_pending)
    : max_pending_(max_pending == 0 ? 1 : max_pending) {}

Admission RequestQueue::push(PointRequest& req) {
  {
    const vf::util::MutexLock lock(mu_);
    if (down_) return Admission::ShuttingDown;
    if (q_.size() >= max_pending_) {
      VF_OBS_COUNT("serve.queue.shed", 1);
      return Admission::QueueFull;
    }
    q_.push_back(std::move(req));
    VF_OBS_GAUGE("serve.queue.depth", static_cast<std::int64_t>(q_.size()));
  }
  // Wake every idle worker. notify_one would also be correct (a woken
  // worker re-checks the queue under the lock), but on serve_hot (one
  // pinned CPU) it read slower in one set of pairs and faster in another:
  // unresolved, so the broadcast stays.
  cv_.notify_all();
  return Admission::Accepted;
}

std::size_t RequestQueue::expire_sweep_locked(
    std::chrono::steady_clock::time_point now) {
  std::size_t swept = 0;
  for (auto it = q_.begin(); it != q_.end();) {
    if (it->expired(now)) {
      // Count before fulfilling: a client that wakes on the answer must
      // already see this expiry in the stats it reads next.
      expired_.fetch_add(1, std::memory_order_relaxed);
      it->reply.fulfill(Status::DeadlineExceeded);
      it = q_.erase(it);
      ++swept;
    } else {
      ++it;
    }
  }
  if (swept > 0) {
    VF_OBS_COUNT("serve.queue.expired", static_cast<std::int64_t>(swept));
    VF_OBS_GAUGE("serve.queue.depth", static_cast<std::int64_t>(q_.size()));
  }
  return swept;
}

std::size_t RequestQueue::expire_sweep() {
  const vf::util::MutexLock lock(mu_);
  return expire_sweep_locked(std::chrono::steady_clock::now());
}

std::size_t RequestQueue::shed_all(Status status) {
  std::deque<PointRequest> orphaned;
  {
    const vf::util::MutexLock lock(mu_);
    orphaned.swap(q_);
    VF_OBS_GAUGE("serve.queue.depth", 0);
  }
  for (auto& req : orphaned) req.reply.fulfill(status);
  return orphaned.size();
}

bool RequestQueue::pop_batch(std::vector<PointRequest>& out,
                             std::size_t max_points) {
  out.clear();
  if (max_points == 0) max_points = 1;
  const vf::util::MutexLock lock(mu_);

  std::chrono::steady_clock::time_point now;
  for (;;) {
    cv_.wait(mu_, [&]() VF_REQUIRES(mu_) { return down_ || !q_.empty(); });
    now = std::chrono::steady_clock::now();
    // Sweep before selecting a head: a backlog of expired requests must
    // never starve the live ones behind it (or pad their batch).
    expire_sweep_locked(now);
    if (!q_.empty()) break;
    if (down_) return false;  // shutdown with a drained backlog
  }

  // Claim the head's key as queued now and never wait for more: a batch is
  // whatever queued while the workers were busy, so it grows with load.
  // The sweep ran at this same instant under this same lock, so every
  // request claimed here is live.
  const std::string key = q_.front().key;
  std::size_t claimed = 0;
  for (auto it = q_.begin(); it != q_.end() && claimed < max_points;) {
    if (it->key != key) {
      ++it;
      continue;
    }
    claimed += it->points.size();
    out.push_back(std::move(*it));
    it = q_.erase(it);
  }
  VF_OBS_GAUGE("serve.queue.depth", static_cast<std::int64_t>(q_.size()));
  return true;
}

void RequestQueue::shutdown() {
  {
    const vf::util::MutexLock lock(mu_);
    down_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::depth() const {
  const vf::util::MutexLock lock(mu_);
  return q_.size();
}

}  // namespace vf::serve
