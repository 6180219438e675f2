#pragma once
// Service — the embeddable concurrent reconstruction service (tentpole of
// the serving layer; see DESIGN.md §9, lifecycle in §12).
//
//   clients ── submit() ──> RequestQueue ──> worker pool ──> replies
//                               │                 │
//                         admission control   ModelRegistry (LRU + breaker)
//                               │                 │
//                           shed (Overloaded)  vf::core::predict_points
//
// A session binds a sample cloud (a core::BoundCloud: scrubbed once,
// indexed once) and a model key; clients then submit point queries
// against the session. Workers coalesce concurrent same-session requests
// into dynamic micro-batches that ride the fused Network::infer path — one
// feature extraction + one GEMM per batch instead of per request. Each
// worker pins its OpenMP ICV to one thread: parallelism comes from the
// worker pool (requests are many and small), not from data-parallel
// kernels, so the pool never oversubscribes the machine. A model-load
// failure (disk fault, VF_FAULT_MODEL_READ injection, open circuit
// breaker) degrades the affected batch to the classical Shepard estimator
// instead of failing the requests.
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
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "vf/core/inference.hpp"
#include "vf/nn/quant.hpp"
#include "vf/sampling/sample_cloud.hpp"
#include "vf/serve/queue.hpp"
#include "vf/serve/registry.hpp"
#include "vf/spatial/neighbor_index.hpp"
#include "vf/util/mutex.hpp"
#include "vf/util/thread_annotations.hpp"

namespace vf::serve {

/// Thrown by the synchronous query() when admission control sheds the
/// request. submit() reports the same condition as std::nullopt so
/// closed-loop clients can back off without exception overhead.
struct OverloadedError : std::runtime_error {
  OverloadedError() : std::runtime_error("vf::serve: queue full, request shed") {}
};

struct ServiceOptions {
  /// Worker threads serving micro-batches.
  std::size_t workers = 2;
  /// Flush a micro-batch at this many query points...
  std::size_t batch_max_points = 512;
  /// ...or when the oldest member has waited this long.
  std::chrono::microseconds batch_deadline{200};
  /// Bounded backlog: pending requests beyond this are shed.
  std::size_t queue_max = 256;
  /// Default per-request deadline applied by submit()/query() when the
  /// caller passes none (zero = requests never expire).
  std::chrono::milliseconds default_deadline{0};
  /// Neighbour count for classical estimates (repair + fallback).
  int repair_neighbors = 5;
  /// Inference precision for served batches. None runs the fp64 Network
  /// path; Fp32/Fp16/Int8 run the packed single-precision GEMM (each
  /// worker quantizes the resolved model once and caches it, keyed on the
  /// registry's model instance). Guarded by the SNR-regression suite.
  vf::nn::QuantPolicy quant = vf::nn::QuantPolicy::None;
  /// Session index kind. Auto resolves against batch_max_points — serve
  /// micro-batches are sparse probes, so Auto keeps the exact k-d tree
  /// for typical session sizes.
  vf::spatial::IndexKind index = vf::spatial::IndexKind::Auto;
  /// Identity of this instance inside a sharded tier (ShardRouter sets
  /// it). A nonzero shard_id with an unsalted registry derives a
  /// per-shard registry salt, so even hand-built co-located fleets get
  /// decorrelated retry jitter and breaker open windows (DESIGN.md §13).
  /// The 0 default is "not sharded": exact legacy behaviour.
  std::size_t shard_id = 0;
  RegistryOptions registry;
};

/// Monotonic counters, snapshot via Service::stats().
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  std::uint64_t served_points = 0;
  std::uint64_t degraded_points = 0;
  std::uint64_t fallback_batches = 0;  ///< batches served classically
  std::uint64_t expired = 0;  ///< requests answered DeadlineExceeded
  std::uint64_t drain_rejects = 0;  ///< submits refused while draining
  RegistryStats registry;
};

class Service {
 public:
  /// "No deadline" sentinel for submit().
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  explicit Service(ServiceOptions options = {});
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Bind `cloud` under `key`: the cloud is scrubbed and indexed now
  /// (amortised across every later query), and `model_path` is registered
  /// with the model registry under the same key. An *empty* model_path
  /// binds a classical session: queries are answered by the Shepard
  /// estimator directly (fallback:"classical"), no registry entry, no
  /// load path — the pipeline's degrade-to-classical state publishes
  /// exactly this. Rebinding a key replaces the session for subsequent
  /// queries. Throws std::invalid_argument when fewer than kNeighbors
  /// usable samples survive scrubbing — a cloud too small for k-NN
  /// features must fail at bind time, not crash a worker on the first
  /// query.
  void add_session(const std::string& key,
                   const vf::sampling::SampleCloud& cloud,
                   const std::string& model_path);

  [[nodiscard]] bool has_session(const std::string& key) const;

  /// Asynchronous point query with the service-default deadline. Returns
  /// std::nullopt when the queue is full (backpressure) or the service is
  /// draining/stopping; otherwise a future that resolves when a worker
  /// serves the containing micro-batch. Throws std::invalid_argument for
  /// unknown session keys.
  [[nodiscard]] std::optional<std::future<PointResponse>> submit(
      const std::string& key, std::vector<vf::field::Vec3> points);

  /// As above with an explicit absolute deadline (kNoDeadline = none). A
  /// deadline already in the past is answered DeadlineExceeded immediately
  /// — the returned future is resolved and the request never touches the
  /// queue, registry, or inference.
  [[nodiscard]] std::optional<std::future<PointResponse>> submit(
      const std::string& key, std::vector<vf::field::Vec3> points,
      std::chrono::steady_clock::time_point deadline);

  /// Synchronous convenience: submit + wait. Throws OverloadedError on
  /// shed.
  [[nodiscard]] PointResponse query(const std::string& key,
                                    std::vector<vf::field::Vec3> points);

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
    /// every query runs the Shepard path with fallback:"classical".
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
