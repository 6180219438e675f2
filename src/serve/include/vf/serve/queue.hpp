#pragma once
// RequestQueue — bounded MPMC queue with work-conserving micro-batch
// extraction and per-request deadline enforcement.
//
// Producers (client threads) push point-query requests; admission control
// rejects pushes once `max_pending` requests are queued, so a saturated
// service sheds load with a backpressure signal instead of growing an
// unbounded backlog. Consumers (worker threads) pop *micro-batches*: a
// worker takes the oldest request and claims every queued request with the
// same session key, up to `max_points`, and returns at once — it never
// waits for more. A batch is therefore whatever queued while the workers
// were busy: a lone request is served alone and immediately, and batches
// grow with load without a timer. Claimed requests leave the deque
// immediately, so two workers can never serve the same request; requests
// for other keys stay queued for other workers.
//
// Request lifecycle (DESIGN.md §12): every request carries an absolute
// deadline (time_point::max() = none). Expired requests are answered
// `Status::DeadlineExceeded` by the queue itself — pop_batch sweeps the
// backlog under the lock it claims under, so a pile-up of dead requests
// can never starve live ones and no expired request is ever batched. All
// terminal answers flow through the answer-exactly-once `Reply` wrapper;
// the vf_lint `unbounded-wait` rule keeps stray promise fulfilment paths
// out of src/serve.

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "vf/field/scalar_field.hpp"
#include "vf/util/mutex.hpp"
#include "vf/util/thread_annotations.hpp"

namespace vf::serve {

/// Terminal request statuses. The enumerator values are the stable
/// machine-readable wire codes (`"code"` in every response line) — append
/// new statuses, never renumber. String forms live in vf/serve/wire.hpp.
enum class Status : std::uint8_t {
  Ok = 0,                ///< served (possibly degraded; see fallback)
  BadRequest = 1,        ///< malformed or unserviceable request
  Overloaded = 2,        ///< shed by admission control (backpressure)
  DeadlineExceeded = 3,  ///< expired before a worker could compute it
  Draining = 4,          ///< service is draining; admission closed
  Internal = 5,          ///< unexpected server-side failure
};

/// Outcome of one served request.
struct PointResponse {
  Status status = Status::Ok;
  std::vector<double> values;   ///< one per query point (empty unless Ok)
  std::size_t degraded = 0;     ///< points repaired / classically estimated
  std::size_t batch_points = 0; ///< size of the micro-batch that carried it
  /// Empty on the FCNN fast path; "classical" when the model could not be
  /// loaded and the whole batch fell back to the Shepard estimator.
  std::string fallback;
};

/// Answer-exactly-once wrapper around the request promise. Exactly one
/// terminal call (`fulfill` or `fail`) wins; later calls are no-ops that
/// return false. Requests are owned by one thread at a time (producer →
/// queue → worker), so a plain flag suffices — the wrapper exists to make
/// "every submitted request gets exactly one terminal answer" a local
/// invariant instead of a property of every serve-path branch. The
/// vf_lint `unbounded-wait` rule flags raw set_value/set_exception in
/// src/serve so new paths cannot bypass it.
class Reply {
 public:
  Reply() = default;

  [[nodiscard]] std::future<PointResponse> get_future() {
    return promise_.get_future();
  }

  /// Deliver a full response. Returns false (and does nothing) when the
  /// request already has its terminal answer.
  bool fulfill(PointResponse resp);

  /// Deliver a bare terminal status (no values) — the shape of every
  /// non-Ok answer.
  bool fulfill(Status status);

  /// Fail with an exception (the honest channel for defects).
  bool fail(std::exception_ptr err);

  [[nodiscard]] bool answered() const { return answered_; }

 private:
  std::promise<PointResponse> promise_;
  bool answered_ = false;
};

struct PointRequest {
  std::string key;  ///< session / model key (batching groups by this)
  std::vector<vf::field::Vec3> points;
  Reply reply;
  /// Absolute deadline; answered DeadlineExceeded instead of computed once
  /// passed. max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  [[nodiscard]] bool expired(std::chrono::steady_clock::time_point now) const {
    return deadline <= now;
  }
};

enum class Admission {
  Accepted,
  QueueFull,      ///< backpressure: shed this request
  ShuttingDown,
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t max_pending);

  /// Admission-controlled enqueue. QueueFull leaves `req` untouched so the
  /// caller still owns the reply and can report the shed.
  Admission push(PointRequest& req) VF_EXCLUDES(mu_);

  /// Micro-batch pop per the module comment: blocks only while the queue
  /// is empty. Returns false only at shutdown with an empty queue;
  /// otherwise fills `out` with the head request and every other queued
  /// live request of its key, >= 1 requests totalling <= max_points query
  /// points (a single oversized request is always taken whole). Expired
  /// backlog entries are answered DeadlineExceeded and skipped.
  bool pop_batch(std::vector<PointRequest>& out, std::size_t max_points)
      VF_EXCLUDES(mu_);

  /// Answer every queued request whose deadline has passed with
  /// DeadlineExceeded and remove it. Returns how many were expired.
  /// pop_batch runs this sweep itself; the public entry point exists for
  /// idle-time housekeeping and the tests.
  std::size_t expire_sweep() VF_EXCLUDES(mu_);

  /// Answer *every* queued request with `status` and empty the queue —
  /// the drain-budget escape hatch that guarantees no queued promise is
  /// ever orphaned. Returns how many were answered.
  std::size_t shed_all(Status status) VF_EXCLUDES(mu_);

  /// Wake all waiters; subsequent pushes are refused, pops drain the
  /// remaining backlog then return false.
  void shutdown() VF_EXCLUDES(mu_);

  [[nodiscard]] std::size_t depth() const VF_EXCLUDES(mu_);

  /// Requests answered DeadlineExceeded by queue-side expiry so far.
  [[nodiscard]] std::uint64_t expired_count() const {
    return expired_.load(std::memory_order_relaxed);
  }

 private:
  /// Expiry sweep body; see expire_sweep().
  std::size_t expire_sweep_locked(std::chrono::steady_clock::time_point now)
      VF_REQUIRES(mu_);

  mutable vf::util::Mutex mu_{"serve.queue"};
  vf::util::CondVar cv_;
  std::deque<PointRequest> q_ VF_GUARDED_BY(mu_);
  std::size_t max_pending_;  // immutable after construction
  bool down_ VF_GUARDED_BY(mu_) = false;
  std::atomic<std::uint64_t> expired_{0};
};

}  // namespace vf::serve
