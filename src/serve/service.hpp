#pragma once
// Service — one shard of the serving tier (DESIGN.md §9, lifecycle in
// §12). Private to src/serve: ShardRouter (vf/serve/router.hpp) owns every
// Service and is the only public serving type.
//
//   router ── submit() ──> RequestQueue ──> worker pool ──> replies
//                               │                 │
//                         admission control   ModelRegistry (LRU + breaker)
//                               │                 │
//                           shed (Overloaded)  vf::core::predict_points
//
// A session binds a sample cloud (a core::BoundCloud: scrubbed once,
// indexed once) and a model key; clients then submit point queries
// against the session. A worker serves the same-session requests that
// queued while it was busy as one micro-batch — one feature extraction +
// one forward pass per batch instead of per request — over the registry
// entry's packed model, which every worker reads and none copies. Each
// worker pins its OpenMP ICV to one thread: parallelism comes from the
// worker pool (requests are many and small), not from data-parallel
// kernels, so the pool never oversubscribes the machine. A model-load
// failure (disk fault, VF_FAULT_MODEL_READ injection, open circuit
// breaker) degrades the affected batch to the classical estimate
// (vf::interp::modified_shepard) instead of failing the requests.
//
// Request lifecycle guarantees (chaos-soak-tested, DESIGN.md §12): every
// accepted request gets exactly one terminal answer through its Reply —
// served, DeadlineExceeded (at submit, in the queue, or just before
// compute), Draining (drain-budget shed), or a failure exception; no
// promise is ever orphaned, including through stop()/drain() racing live
// producers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "vf/core/inference.hpp"
#include "vf/sampling/sample_cloud.hpp"
#include "vf/serve/options.hpp"
#include "vf/serve/queue.hpp"
#include "vf/serve/registry.hpp"
#include "vf/util/mutex.hpp"
#include "vf/util/thread_annotations.hpp"

namespace vf::serve {

class Service {
 public:
  explicit Service(const ServiceOptions& options);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Bind `cloud` under `key`: the cloud is scrubbed and indexed now
  /// (amortised across every later query), and `model_path` is registered
  /// with the model registry under the same key. An *empty* model_path
  /// binds a classical session: queries are answered by the modified
  /// Shepard estimate directly (fallback:"classical"), no registry entry,
  /// no load path — the pipeline's degrade-to-classical state publishes
  /// exactly this. Rebinding a key replaces the session for subsequent
  /// queries. Throws std::invalid_argument when fewer than kNeighbors
  /// usable samples survive scrubbing — a cloud too small for k-NN
  /// features must fail at bind time, not crash a worker on the first
  /// query.
  void add_session(const std::string& key,
                   const vf::sampling::SampleCloud& cloud,
                   const std::string& model_path);

  /// Asynchronous point query against the session bound under `key` (the
  /// router binds before it delegates), with an absolute deadline
  /// (time_point::max() = none). Returns std::nullopt when the queue is
  /// full (backpressure) or the service is draining/stopping; otherwise a
  /// future that resolves when a worker serves the containing micro-batch.
  /// A deadline already in the past is answered DeadlineExceeded
  /// immediately — the returned future is resolved and the request never
  /// touches the queue, registry, or inference.
  [[nodiscard]] std::optional<std::future<PointResponse>> submit(
      const std::string& key, std::vector<vf::field::Vec3> points,
      std::chrono::steady_clock::time_point deadline);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  /// Read-only registry access (breaker snapshots for the `ready` verb).
  [[nodiscard]] const ModelRegistry& registry() const { return registry_; }

  /// Close admission without stopping workers: subsequent submits return
  /// std::nullopt (counted as drain_rejects; the wire layer answers them
  /// `draining`) while the backlog keeps being served. Idempotent.
  void begin_drain() { draining_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Graceful shutdown: begin_drain, flush the backlog through the
  /// workers, and join them. Returns true when everything drained within
  /// `budget`; on budget exhaustion every still-queued request is answered
  /// Draining (never orphaned) before the workers are joined, and false is
  /// reported so the operator can see the budget was blown. Idempotent;
  /// concurrent callers may return before another caller's join completes.
  bool drain(std::chrono::milliseconds budget);

  /// drain() without a budget (blocks until workers exit; the destructor
  /// calls it).
  void stop();

 private:
  struct Session {
    vf::core::BoundCloud bound;
    /// Classical session (empty model_path): never touches the registry;
    /// every query runs the classical path with fallback:"classical".
    bool classical = false;
  };

  void worker_loop();
  void serve_batch(std::vector<PointRequest>& batch,
                   struct WorkerScratch& scratch);
  bool drain_impl(bool bounded, std::chrono::milliseconds budget);

  ServiceOptions options_;
  ModelRegistry registry_;
  RequestQueue queue_;

  mutable vf::util::Mutex sessions_mu_{"serve.sessions"};
  std::unordered_map<std::string, std::shared_ptr<const Session>> sessions_
      VF_GUARDED_BY(sessions_mu_);

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> served_points_{0};
  std::atomic<std::uint64_t> degraded_points_{0};
  std::atomic<std::uint64_t> fallback_batches_{0};
  /// Submit-time + pre-compute expiries; queue-side expiries are counted
  /// by the queue itself (stats() sums both).
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> drain_rejects_{0};
  std::atomic<bool> draining_{false};

  std::vector<std::thread> workers_;
  vf::util::Mutex stop_mu_{"serve.stop"};
  bool stopped_ VF_GUARDED_BY(stop_mu_) = false;
  /// Worker-exit signalling so drain() can wait with a budget instead of
  /// an unconditional join.
  mutable vf::util::Mutex workers_mu_{"serve.workers"};
  vf::util::CondVar workers_cv_;
  std::size_t live_workers_ VF_GUARDED_BY(workers_mu_) = 0;
};

}  // namespace vf::serve
