#include "vf/serve/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "service.hpp"
#include "vf/obs/obs.hpp"

namespace vf::serve {

struct ShardRouter::Shard {
  explicit Shard(const ServiceOptions& options) : service(options) {}

  Service service;
  std::atomic<bool> healthy{true};
  /// Manifest version last applied per key, for lazy convergence.
  mutable vf::util::Mutex mu{"serve.router.shard"};
  std::unordered_map<std::string, std::uint64_t> applied VF_GUARDED_BY(mu);
};

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Element-wise ServiceStats accumulation for the tier-level total.
void accumulate(ServiceStats& total, const ServiceStats& s) {
  total.accepted += s.accepted;
  total.shed += s.shed;
  total.batches += s.batches;
  total.served_points += s.served_points;
  total.degraded_points += s.degraded_points;
  total.fallback_batches += s.fallback_batches;
  total.expired += s.expired;
  total.drain_rejects += s.drain_rejects;
  total.registry.hits += s.registry.hits;
  total.registry.loads += s.registry.loads;
  total.registry.load_failures += s.registry.load_failures;
  total.registry.evictions += s.registry.evictions;
  total.registry.breaker_opens += s.registry.breaker_opens;
  total.registry.breaker_fast_fails += s.registry.breaker_fast_fails;
  total.registry.swaps += s.registry.swaps;
  total.registry.superseded_loads += s.registry.superseded_loads;
  total.registry.open_breakers += s.registry.open_breakers;
  total.registry.resident_models += s.registry.resident_models;
  total.registry.resident_bytes += s.registry.resident_bytes;
}

}  // namespace

HashRing::HashRing(std::size_t vnodes, std::uint64_t seed)
    : vnodes_(vnodes == 0 ? 1 : vnodes), seed_(seed) {}

void HashRing::add_shard(std::uint32_t shard) {
  ring_.reserve(ring_.size() + vnodes_);
  for (std::size_t v = 0; v < vnodes_; ++v) {
    // Ring points must not move when *other* shards come and go, so each
    // point depends only on (seed, shard, vnode) — that independence is
    // the whole bounded-remap property.
    const std::uint64_t point =
        splitmix64(seed_ ^ splitmix64((std::uint64_t{shard} << 24) ^ v));
    ring_.emplace_back(point, shard);
  }
  std::sort(ring_.begin(), ring_.end());
}

void HashRing::remove_shard(std::uint32_t shard) {
  ring_.erase(std::remove_if(
                  ring_.begin(), ring_.end(),
                  [shard](const auto& e) { return e.second == shard; }),
              ring_.end());
}

std::uint64_t HashRing::key_hash(const std::string& key) const {
  std::uint64_t h = 1469598103934665603ULL ^ seed_;  // FNV-1a 64
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return splitmix64(h);
}

std::uint32_t HashRing::owner(const std::string& key) const {
  const std::uint64_t h = key_hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& e, std::uint64_t v) { return e.first < v; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::vector<std::uint32_t> HashRing::walk(const std::string& key) const {
  std::vector<std::uint32_t> order;
  if (ring_.empty()) return order;
  const std::uint64_t h = key_hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& e, std::uint64_t v) { return e.first < v; });
  const std::size_t start =
      it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const std::uint32_t shard = ring_[(start + i) % ring_.size()].second;
    if (std::find(order.begin(), order.end(), shard) == order.end()) {
      order.push_back(shard);
    }
  }
  return order;
}

ShardRouter::ShardRouter(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.vnodes, options_.seed) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    ring_.add_shard(static_cast<std::uint32_t>(i));
    ServiceOptions so = options_.shard;
    // Per-shard fault independence: distinct registry salts decorrelate
    // breaker open windows and load-retry backoff across shards (a
    // template that already set a salt keeps it — tests pin sequences).
    if (so.registry.shard_salt == 0) {
      so.registry.shard_salt = derive_shard_salt(options_.seed, i);
    }
    shards_.push_back(std::make_unique<Shard>(so));
  }
}

ShardRouter::~ShardRouter() { stop(); }

void ShardRouter::add_session(const std::string& key,
                              const vf::sampling::SampleCloud& cloud,
                              const std::string& model_path) {
  auto entry = std::make_shared<ManifestEntry>();
  entry->cloud = cloud;
  entry->model_path = model_path;
  {
    const vf::util::MutexLock lock(manifest_mu_);
    entry->version = ++next_version_;
  }
  // Bind eagerly on the home shard — this is where cloud validation
  // throws, before the manifest accepts the registration.
  Shard& home = *shards_[ring_.owner(key)];
  {
    const vf::util::MutexLock lock(home.mu);
    home.service.add_session(key, entry->cloud, entry->model_path);
    home.applied[key] = entry->version;
  }
  manifest_applies_.fetch_add(1, std::memory_order_relaxed);
  {
    const vf::util::MutexLock lock(manifest_mu_);
    auto it = manifest_.find(key);
    // Concurrent re-registrations resolve by version, not install order,
    // so a stale entry can never overwrite a newer one.
    if (it == manifest_.end() || it->second->version < entry->version) {
      manifest_[key] = std::move(entry);
    }
  }
}

bool ShardRouter::has_session(const std::string& key) const {
  const vf::util::MutexLock lock(manifest_mu_);
  return manifest_.count(key) > 0;
}

void ShardRouter::converge_session(
    Shard& s, const std::shared_ptr<const ManifestEntry>& entry,
    const std::string& key) {
  const vf::util::MutexLock lock(s.mu);
  auto it = s.applied.find(key);
  if (it != s.applied.end() && it->second >= entry->version) return;
  // Stale (or never-bound) replica: re-bind before delegating. Holding
  // the shard's bind mutex serialises concurrent convergers, so the
  // scrub + index build runs once per (shard, version).
  s.service.add_session(key, entry->cloud, entry->model_path);
  s.applied[key] = entry->version;
  manifest_applies_.fetch_add(1, std::memory_order_relaxed);
  VF_OBS_COUNT("serve.router.manifest_applies", 1);
}

bool ShardRouter::routable(const Shard& s) {
  return s.healthy.load(std::memory_order_relaxed) && !s.service.draining();
}

std::optional<std::future<PointResponse>> ShardRouter::submit(
    const std::string& key, std::vector<vf::field::Vec3> points) {
  const auto default_deadline = options_.shard.default_deadline;
  auto deadline = std::chrono::steady_clock::time_point::max();  // none
  if (default_deadline > std::chrono::milliseconds(0)) {
    deadline = std::chrono::steady_clock::now() + default_deadline;
  }
  return submit(key, std::move(points), deadline);
}

std::optional<std::future<PointResponse>> ShardRouter::submit(
    const std::string& key, std::vector<vf::field::Vec3> points,
    std::chrono::steady_clock::time_point deadline) {
  std::shared_ptr<const ManifestEntry> entry;
  {
    const vf::util::MutexLock lock(manifest_mu_);
    auto it = manifest_.find(key);
    if (it == manifest_.end()) {
      throw std::invalid_argument("ShardRouter: unknown session key '" + key +
                                  "'");
    }
    entry = it->second;
  }
  bool diverted = false;
  bool shard_refused = false;  // a shard's own submit counted the refusal
  for (const std::uint32_t idx : ring_.walk(key)) {
    Shard& s = *shards_[idx];
    if (!routable(s)) {
      diverted = true;
      continue;
    }
    converge_session(s, entry, key);
    // Copy the points per attempt: a shard that flips to draining between
    // the routable() check and the enqueue refuses the submit, and the
    // next candidate still needs the payload.
    auto fut = s.service.submit(key, points, deadline);
    if (fut.has_value()) {
      routed_.fetch_add(1, std::memory_order_relaxed);
      if (diverted) {
        rerouted_.fetch_add(1, std::memory_order_relaxed);
        VF_OBS_COUNT("serve.router.rerouted", 1);
      }
      return fut;
    }
    if (!s.service.draining()) {
      // Queue-full shed, not a drain race: this is genuine backpressure.
      // Spilling it onto a neighbour would hide saturation from the
      // operator and melt the next shard too.
      return std::nullopt;
    }
    diverted = true;  // drain race: walk on
    shard_refused = true;
  }
  no_shard_.fetch_add(1, std::memory_order_relaxed);
  // The wire answers a refusal from a draining tier `draining`; count it
  // as a drain reject too, unless a shard's submit already counted it.
  if (!shard_refused && draining()) {
    drain_rejects_.fetch_add(1, std::memory_order_relaxed);
    VF_OBS_COUNT("serve.drain.rejects", 1);
  }
  return std::nullopt;
}

PointResponse ShardRouter::query(const std::string& key,
                                 std::vector<vf::field::Vec3> points) {
  auto fut = submit(key, std::move(points));
  if (!fut.has_value()) throw OverloadedError();
  return fut->get();
}

std::size_t ShardRouter::shard_for(const std::string& key) const {
  return ring_.owner(key);
}

std::optional<std::size_t> ShardRouter::route(const std::string& key) const {
  for (const std::uint32_t idx : ring_.walk(key)) {
    if (routable(*shards_[idx])) return idx;
  }
  return std::nullopt;
}

const ServiceOptions& ShardRouter::shard_options(std::size_t i) const {
  return shards_.at(i)->service.options();
}

std::vector<std::pair<std::string, BreakerSnapshot>>
ShardRouter::breaker_states() const {
  std::vector<std::pair<std::string, BreakerSnapshot>> out;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (auto& [key, snap] : shards_[i]->service.registry().breaker_states()) {
      out.emplace_back(
          shards_.size() > 1 ? std::to_string(i) + "/" + key : key, snap);
    }
  }
  return out;
}

void ShardRouter::set_healthy(std::size_t i, bool healthy) {
  shards_.at(i)->healthy.store(healthy, std::memory_order_relaxed);
}

bool ShardRouter::healthy(std::size_t i) const {
  return shards_.at(i)->healthy.load(std::memory_order_relaxed);
}

void ShardRouter::begin_drain_shard(std::size_t i) {
  shards_.at(i)->service.begin_drain();
}

void ShardRouter::begin_drain() {
  for (auto& s : shards_) s->service.begin_drain();
}

bool ShardRouter::draining() const {
  for (const auto& s : shards_) {
    if (!s->service.draining()) return false;
  }
  return true;
}

bool ShardRouter::drain(std::chrono::milliseconds budget) {
  // Admission closes everywhere first so every shard flushes its backlog
  // concurrently; the sequential waits below then share one wall clock.
  begin_drain();
  const auto deadline = std::chrono::steady_clock::now() + budget;
  bool in_budget = true;
  for (auto& s : shards_) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left < std::chrono::milliseconds(0)) {
      left = std::chrono::milliseconds(0);
    }
    in_budget = s->service.drain(left) && in_budget;
  }
  return in_budget;
}

void ShardRouter::stop() {
  for (auto& s : shards_) s->service.stop();
}

RouterStats ShardRouter::stats() const {
  RouterStats out;
  out.routed = routed_.load(std::memory_order_relaxed);
  out.rerouted = rerouted_.load(std::memory_order_relaxed);
  out.manifest_applies = manifest_applies_.load(std::memory_order_relaxed);
  out.no_shard = no_shard_.load(std::memory_order_relaxed);
  out.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    out.shards.push_back(s->service.stats());
    accumulate(out.total, out.shards.back());
  }
  out.total.drain_rejects += drain_rejects_.load(std::memory_order_relaxed);
  return out;
}

std::size_t ShardRouter::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& s : shards_) depth += s->service.queue_depth();
  return depth;
}

}  // namespace vf::serve
