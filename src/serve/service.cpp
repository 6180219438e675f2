#include "service.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "vf/core/features.hpp"
#include "vf/interp/methods.hpp"
#include "vf/obs/obs.hpp"
#include "vf/util/fault.hpp"

#include <omp.h>

namespace vf::serve {

using vf::field::Vec3;

/// Per-worker working set, reused across batches.
struct WorkerScratch {
  std::vector<Vec3> points;
  std::vector<double> out;
  std::vector<std::size_t> repaired;
  vf::core::PointScratch infer;
};

Service::Service(const ServiceOptions& options)
    : options_(options),
      registry_(options.registry, options.quant),
      queue_(options.queue_max) {
  const std::size_t n = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(n);
  {
    const vf::util::MutexLock lock(workers_mu_);
    live_workers_ = n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() { stop(); }

bool Service::drain_impl(bool bounded, std::chrono::milliseconds budget) {
  begin_drain();
  {
    const vf::util::MutexLock lock(stop_mu_);
    if (stopped_) return true;  // another caller owns the shutdown
    stopped_ = true;
  }
  queue_.shutdown();  // wakes workers; they flush the backlog and exit

  bool in_budget = true;
  if (bounded) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    const vf::util::MutexLock lock(workers_mu_);
    in_budget = workers_cv_.wait_until(
        workers_mu_, deadline,
        [&]() VF_REQUIRES(workers_mu_) { return live_workers_ == 0; });
  }
  if (!in_budget) {
    // Budget blown: the workers are wedged in a slow batch. Answer every
    // still-queued request Draining so no promise is orphaned; the join
    // below then only waits on the batches already being computed.
    const std::size_t shed = queue_.shed_all(Status::Draining);
    VF_OBS_COUNT("serve.drain.budget_shed", static_cast<std::int64_t>(shed));
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  return in_budget;
}

bool Service::drain(std::chrono::milliseconds budget) {
  return drain_impl(true, budget);
}

void Service::stop() { drain_impl(false, std::chrono::milliseconds(0)); }

void Service::add_session(const std::string& key,
                          const vf::sampling::SampleCloud& cloud,
                          const std::string& model_path) {
  auto session = std::make_shared<Session>();
  // Expected queries per lookup = one micro-batch; Auto typically keeps
  // the exact k-d tree for serve's sparse-probe workload.
  session->bound.bind(cloud, options_.index, options_.batch_max_points);
  if (session->bound.size() < static_cast<std::size_t>(vf::core::kNeighbors)) {
    throw std::invalid_argument(
        "vf::serve: session '" + key + "' has " +
        std::to_string(session->bound.size()) +
        " usable samples after scrubbing; need >= " +
        std::to_string(vf::core::kNeighbors) + " for k-NN features");
  }
  if (model_path.empty()) {
    // Classical session: no model to register — the registry entry (and
    // its breaker) would only ever fail. serve_batch routes straight to
    // the modified Shepard estimate instead.
    session->classical = true;
  } else {
    registry_.add(key, model_path);
  }
  const vf::util::MutexLock lock(sessions_mu_);
  sessions_[key] = std::move(session);
}

std::optional<std::future<PointResponse>> Service::submit(
    const std::string& key, std::vector<Vec3> points,
    std::chrono::steady_clock::time_point deadline) {
  if (draining()) {
    drain_rejects_.fetch_add(1, std::memory_order_relaxed);
    VF_OBS_COUNT("serve.drain.rejects", 1);
    return std::nullopt;
  }
  PointRequest req;
  req.key = key;
  req.points = std::move(points);
  req.deadline = deadline;
  auto future = req.reply.get_future();
  // A dead-on-arrival deadline never touches the queue (let alone the
  // registry or inference): answer it right here, resolved future and all.
  // It was handed a future, so it counts as accepted, like a request that
  // expires in the queue.
  if (req.expired(std::chrono::steady_clock::now())) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    expired_.fetch_add(1, std::memory_order_relaxed);
    VF_OBS_COUNT("serve.submit.expired", 1);
    req.reply.fulfill(Status::DeadlineExceeded);
    return future;
  }
  switch (queue_.push(req)) {
    case Admission::Accepted:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      return future;
    case Admission::QueueFull:
    case Admission::ShuttingDown:
      shed_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
  }
  return std::nullopt;
}

void Service::worker_loop() {
  // Worker-pool parallelism replaces data parallelism: each worker runs
  // its kernels (feature extraction, fused inference) on a single OpenMP
  // thread so `workers` batches in flight use `workers` cores, not
  // workers x omp_num_threads.
  omp_set_num_threads(1);
  WorkerScratch scratch;
  std::vector<PointRequest> batch;
  while (queue_.pop_batch(batch, options_.batch_max_points)) {
    // serve_batch answers every request itself; this guard is the last
    // line of defence — an exception escaping a worker std::thread would
    // std::terminate the whole process. Reply::fail is a no-op for
    // already-answered members, so the exactly-once invariant holds even
    // here.
    try {
      serve_batch(batch, scratch);
    } catch (...) {
      const auto err = std::current_exception();
      for (auto& req : batch) req.reply.fail(err);
    }
  }
  {
    const vf::util::MutexLock lock(workers_mu_);
    --live_workers_;
  }
  workers_cv_.notify_all();  // drain() may be waiting on a budget
}

void Service::serve_batch(std::vector<PointRequest>& batch,
                          WorkerScratch& scratch) {
  VF_OBS_SPAN("serve/batch");
  // Last-chance deadline check: a request can expire between being claimed
  // into a batch (the queue only answers *queued* expiries) and the worker
  // getting to it. Answer those now and compute only the live remainder.
  {
    const auto now = std::chrono::steady_clock::now();
    std::size_t live = 0;
    for (auto& req : batch) {
      if (req.expired(now)) {
        // Count before fulfilling so a client woken by the answer already
        // sees this expiry in the stats it reads next.
        expired_.fetch_add(1, std::memory_order_relaxed);
        req.reply.fulfill(Status::DeadlineExceeded);
        VF_OBS_COUNT("serve.queue.expired", 1);
      } else {
        if (live != static_cast<std::size_t>(&req - batch.data())) {
          batch[live] = std::move(req);
        }
        ++live;
      }
    }
    batch.resize(live);
    if (batch.empty()) return;
  }

  std::shared_ptr<const Session> session;
  {
    const vf::util::MutexLock lock(sessions_mu_);
    auto it = sessions_.find(batch.front().key);
    if (it != sessions_.end()) session = it->second;
  }
  if (!session) {  // raced with a rebind/remove: fail the requests honestly
    auto err = std::make_exception_ptr(
        std::invalid_argument("vf::serve: session disappeared"));
    for (auto& req : batch) req.reply.fail(err);
    return;
  }

  std::size_t total = 0;
  for (const auto& req : batch) total += req.points.size();
  batches_.fetch_add(1, std::memory_order_relaxed);
  served_points_.fetch_add(total, std::memory_order_relaxed);
  VF_OBS_HIST("serve.batch.points", static_cast<double>(total));
  VF_OBS_HIST("serve.batch.requests", static_cast<double>(batch.size()));

  scratch.points.clear();
  scratch.points.reserve(total);
  for (const auto& req : batch) {
    scratch.points.insert(scratch.points.end(), req.points.begin(),
                          req.points.end());
  }
  scratch.out.resize(total);
  scratch.repaired.clear();

  // Resolve the model; a load failure (missing file, corrupt bytes, a
  // VF_FAULT_MODEL_READ injection inside FcnnModel::load, or an open
  // circuit breaker fast-failing the resolve) degrades the batch to the
  // classical estimator instead of failing the requests.
  std::shared_ptr<const vf::core::PackedModel> model;
  if (!session->classical) {
    try {
      model = registry_.resolve(batch.front().key);
    } catch (const std::exception&) {
      model = nullptr;
    }
  }

  std::size_t degraded_total = 0;
  bool classical = false;
  if (model) {
    // Inference can throw even with a resolvable model (e.g. a scratch
    // allocation failure); degrade the batch like a load failure instead
    // of letting the exception escape the worker thread. The serve_infer
    // failpoint injects exactly that for the chaos soak.
    try {
      VF_OBS_SPAN("serve/infer");
      if (vf::util::fault::should_fail("serve_infer")) {
        throw std::runtime_error("vf::serve: injected inference fault");
      }
      const auto& bound = session->bound;
      degraded_total = vf::core::predict_points(
          *model, bound.index(), bound.values(), scratch.points.data(), total,
          scratch.out.data(), scratch.infer, &scratch.repaired);
    } catch (const std::exception&) {
      model = nullptr;
      scratch.repaired.clear();
    }
  }
  if (!model) {
    try {
      VF_OBS_SPAN("serve/classical_fallback");
      VF_OBS_COUNT("serve.fallback_batches", 1);
      classical = true;
      fallback_batches_.fetch_add(1, std::memory_order_relaxed);
      const auto& bound = session->bound;
      for (std::size_t i = 0; i < total; ++i) {
        scratch.out[i] = vf::interp::modified_shepard(
            bound.index(), bound.values(), scratch.points[i],
            scratch.infer.repair);
      }
      degraded_total = total;
    } catch (...) {
      // Even the fallback failed: fail the requests honestly.
      const auto err = std::current_exception();
      for (auto& req : batch) req.reply.fail(err);
      return;
    }
  }
  degraded_points_.fetch_add(degraded_total, std::memory_order_relaxed);

  // Slice the flat outputs back onto the individual requests.
  std::size_t offset = 0;
  auto repaired_it = scratch.repaired.begin();
  for (auto& req : batch) {
    const std::size_t n = req.points.size();
    PointResponse resp;
    resp.values.assign(scratch.out.begin() + static_cast<std::ptrdiff_t>(offset),
                       scratch.out.begin() +
                           static_cast<std::ptrdiff_t>(offset + n));
    if (classical) {
      resp.degraded = n;
      resp.fallback = "classical";
    } else {
      while (repaired_it != scratch.repaired.end() &&
             *repaired_it < offset + n) {
        ++resp.degraded;
        ++repaired_it;
      }
    }
    resp.batch_points = total;
    req.reply.fulfill(std::move(resp));
    offset += n;
  }
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.served_points = served_points_.load(std::memory_order_relaxed);
  s.degraded_points = degraded_points_.load(std::memory_order_relaxed);
  s.fallback_batches = fallback_batches_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed) + queue_.expired_count();
  s.drain_rejects = drain_rejects_.load(std::memory_order_relaxed);
  s.registry = registry_.stats();
  return s;
}

}  // namespace vf::serve
