#include "vf/serve/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "vf/core/features.hpp"
#include "vf/obs/obs.hpp"
#include "vf/util/atomic_io.hpp"

namespace vf::serve {

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::Closed:
      return "closed";
    case BreakerState::Open:
      return "open";
    case BreakerState::HalfOpen:
      return "half_open";
  }
  return "closed";
}

std::uint64_t derive_shard_salt(std::uint64_t seed, std::size_t shard_id) {
  // splitmix64: a full-avalanche mix keeps salts for adjacent shard ids
  // statistically independent even for seed = 0.
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (shard_id + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;  // 0 means "unsalted"; never derive it
}

ModelRegistry::ModelRegistry(RegistryOptions options,
                             vf::nn::QuantPolicy policy)
    : options_(options), policy_(policy) {
  if (options_.max_models == 0) options_.max_models = 1;
  if (options_.breaker_backoff <= std::chrono::milliseconds::zero()) {
    options_.breaker_backoff = std::chrono::milliseconds(1);
  }
  if (options_.breaker_backoff_max < options_.breaker_backoff) {
    options_.breaker_backoff_max = options_.breaker_backoff;
  }
  if (options_.load_retry.attempts < 1) options_.load_retry.attempts = 1;
  if (options_.shard_salt != 0) {
    if (options_.load_retry.jitter_seed == 0) {
      options_.load_retry.jitter_seed = options_.shard_salt;
    }
    breaker_rng_.emplace(options_.shard_salt, /*stream=*/0x62726b7277696eULL);
  }
}

void ModelRegistry::add(const std::string& key, const std::string& path) {
  const vf::util::MutexLock lock(mu_);
  auto [it, inserted] = entries_.try_emplace(key);
  Entry& e = it->second;
  if (!inserted) {
    // Invalidate everything tied to the old registration: drop the
    // resident model, orphan any in-flight load (bumping the generation
    // makes its completion discard the stale result instead of installing
    // a model from the old path), and let new resolvers load fresh.
    if (e.model) {
      lru_.erase(e.lru);
      stats_.resident_bytes -= e.bytes;
      --stats_.resident_models;
      e.model.reset();
      e.bytes = 0;
    }
    e.loading = {};
    ++e.generation;
    ++stats_.swaps;
    VF_OBS_COUNT("serve.registry.pipeline_swaps_total", 1);
    // A fresh registration is a fresh fault domain: give the new file a
    // clean breaker instead of inheriting the old path's failure streak.
    e.breaker = BreakerState::Closed;
    e.consecutive_failures = 0;
    e.backoff = std::chrono::milliseconds(0);
    e.open_for = std::chrono::milliseconds(0);
  }
  e.path = path;
}

bool ModelRegistry::contains(const std::string& key) const {
  const vf::util::MutexLock lock(mu_);
  return entries_.count(key) > 0;
}

void ModelRegistry::evict_over_budget_locked() {
  const bool bounded = options_.max_bytes > 0;
  while (stats_.resident_models > 1 &&
         (stats_.resident_models > options_.max_models ||
          (bounded && stats_.resident_bytes > options_.max_bytes))) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    Entry& e = entries_.at(victim);
    stats_.resident_bytes -= e.bytes;
    --stats_.resident_models;
    ++stats_.evictions;
    VF_OBS_COUNT("serve.registry.evictions", 1);
    // In-flight shared_ptr holders keep the storage alive; the registry
    // merely forgets it. The path stays registered for reload.
    e.model.reset();
    e.bytes = 0;
  }
  VF_OBS_GAUGE("serve.registry.resident_bytes",
               static_cast<std::int64_t>(stats_.resident_bytes));
  VF_OBS_GAUGE("serve.registry.resident_models",
               static_cast<std::int64_t>(stats_.resident_models));
}

void ModelRegistry::record_load_failure_locked(const std::string& key,
                                               Entry& e) {
  ++stats_.load_failures;
  if (options_.breaker_threshold == 0) return;  // breaker disabled
  ++e.consecutive_failures;
  if (e.consecutive_failures < options_.breaker_threshold) return;
  // Trip (or re-trip after a failed half-open probe) with exponential
  // backoff on the open window.
  e.backoff = (e.backoff == std::chrono::milliseconds(0))
                  ? options_.breaker_backoff
                  : std::min(e.backoff * 2, options_.breaker_backoff_max);
  // The armed window is the ladder value, jittered into [backoff/2,
  // backoff] under a shard salt so co-located shards tripped by one
  // shared-disk fault probe back spread out instead of in lockstep. The
  // ladder itself stays exact — doubling state is shared fleet-wide
  // semantics; only the sleep is per-shard.
  e.open_for = e.backoff;
  if (breaker_rng_.has_value()) {
    e.open_for = std::chrono::milliseconds(vf::util::detail::jittered_delay_ms(
        static_cast<int>(e.backoff.count()), &*breaker_rng_));
  }
  e.open_until = std::chrono::steady_clock::now() + e.open_for;
  e.breaker = BreakerState::Open;
  ++stats_.breaker_opens;
  VF_OBS_COUNT("serve.registry.breaker_opens", 1);
  VF_OBS_GAUGE("serve.registry.open_breakers",
               static_cast<std::int64_t>(std::count_if(
                   entries_.begin(), entries_.end(), [](const auto& kv) {
                     return kv.second.breaker != BreakerState::Closed;
                   })));
  (void)key;
}

std::shared_ptr<const vf::core::PackedModel> ModelRegistry::resolve(
    const std::string& key) {
  VF_OBS_SPAN("serve/resolve_model");
  std::shared_future<ModelPtr> pending;
  std::promise<ModelPtr> mine;
  std::string path;
  std::uint64_t generation = 0;
  {
    const vf::util::MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      throw std::invalid_argument("ModelRegistry: unknown key '" + key + "'");
    }
    Entry& e = it->second;
    if (e.model) {  // resident: bump LRU and return
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, e.lru);
      return e.model;
    }
    if (e.breaker != BreakerState::Closed) {
      // Open, or half-open with a probe already chosen: fast-fail without
      // touching disk. Only when the open window has elapsed and no probe
      // is in flight does this resolve become the probe.
      const auto now = std::chrono::steady_clock::now();
      const bool probe_slot_free = !e.loading.valid();
      if (e.breaker == BreakerState::Open && now >= e.open_until &&
          probe_slot_free) {
        e.breaker = BreakerState::HalfOpen;  // this thread probes below
      } else {
        ++stats_.breaker_fast_fails;
        VF_OBS_COUNT("serve.registry.breaker_fast_fails", 1);
        throw CircuitOpenError(key);
      }
    }
    if (e.loading.valid()) {  // someone else is loading: share their result
      pending = e.loading;
    } else {  // cold (or half-open probe): this thread loads outside the lock
      e.loading = mine.get_future().share();
      path = e.path;
      generation = e.generation;
    }
  }
  if (pending.valid()) {
    return pending.get();  // rethrows the loader's failure, if any
  }

  ModelPtr loaded;
  try {
    // Only the disk read retries (transient NFS hiccups, injected
    // model_read faults); a file that loads but fails validation below is
    // permanently bad and never worth a second read. attempts = 1 — the
    // default — is byte-for-byte the old single-try path.
    const auto load = [this, &path] {
      return vf::core::PackedModel::load(path, policy_);
    };
    loaded = std::make_shared<const vf::core::PackedModel>(
        options_.load_retry.attempts > 1
            ? vf::util::with_retries(options_.load_retry, load)
            : load());
    // A loadable file whose normaliser shapes don't match the feature
    // pipeline would only blow up later, inside a worker's inference —
    // reject it here so callers degrade exactly as for a corrupt file.
    if (loaded->in_norm.mean.size() !=
            static_cast<std::size_t>(vf::core::kFeatureDim) ||
        loaded->out_norm.mean.empty() || loaded->out_norm.stddev.empty()) {
      throw std::runtime_error(
          "ModelRegistry: model '" + path + "' is incompatible with the " +
          std::to_string(vf::core::kFeatureDim) + "-dim feature pipeline");
    }
  } catch (...) {
    {
      const vf::util::MutexLock lock(mu_);
      auto it = entries_.find(key);
      // Only clear our own load; add() may have re-registered the key
      // (and a newer load may own e.loading now). A failure against a
      // superseded registration also doesn't count against the new
      // file's breaker.
      if (it != entries_.end() && it->second.generation == generation) {
        it->second.loading = {};
        record_load_failure_locked(key, it->second);
      } else {
        ++stats_.load_failures;
      }
    }
    // vf-lint: allow(unbounded-wait) single-flight handoff, not a request reply
    mine.set_exception(std::current_exception());
    throw;
  }

  {
    const vf::util::MutexLock lock(mu_);
    auto it = entries_.find(key);
    // Skip installation when add() re-registered the key mid-load: this
    // result came from the superseded path and must not be served as the
    // new registration's model. Our direct waiters still get it below.
    if (it != entries_.end() && it->second.generation == generation) {
      Entry& e = it->second;
      e.model = loaded;
      e.bytes = loaded->memory_bytes();
      lru_.push_front(key);
      e.lru = lru_.begin();
      e.loading = {};
      ++stats_.loads;
      stats_.resident_bytes += e.bytes;
      ++stats_.resident_models;
      VF_OBS_COUNT("serve.registry.loads", 1);
      // A successful load (including a half-open probe) heals the breaker.
      e.breaker = BreakerState::Closed;
      e.consecutive_failures = 0;
      e.backoff = std::chrono::milliseconds(0);
      e.open_for = std::chrono::milliseconds(0);
      VF_OBS_GAUGE("serve.registry.open_breakers",
                   static_cast<std::int64_t>(std::count_if(
                       entries_.begin(), entries_.end(), [](const auto& kv) {
                         return kv.second.breaker != BreakerState::Closed;
                       })));
      evict_over_budget_locked();
    } else if (it != entries_.end()) {
      // The load raced a hot-swap and lost; count it so the chaos harness
      // can assert swap liveness (superseded loads must never install).
      ++stats_.superseded_loads;
      VF_OBS_COUNT("serve.registry.pipeline_swap_superseded_loads", 1);
    }
  }
  // vf-lint: allow(unbounded-wait) single-flight handoff, not a request reply
  mine.set_value(loaded);
  return loaded;
}

RegistryStats ModelRegistry::stats() const {
  const vf::util::MutexLock lock(mu_);
  RegistryStats s = stats_;
  for (const auto& [key, e] : entries_) {
    (void)key;
    if (e.breaker != BreakerState::Closed) ++s.open_breakers;
  }
  return s;
}

BreakerSnapshot ModelRegistry::breaker(const std::string& key) const {
  const vf::util::MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw std::invalid_argument("ModelRegistry: unknown key '" + key + "'");
  }
  BreakerSnapshot snap;
  snap.state = it->second.breaker;
  snap.consecutive_failures = it->second.consecutive_failures;
  snap.backoff = it->second.backoff;
  snap.open_for = it->second.open_for;
  return snap;
}

std::vector<std::pair<std::string, BreakerSnapshot>>
ModelRegistry::breaker_states() const {
  const vf::util::MutexLock lock(mu_);
  std::vector<std::pair<std::string, BreakerSnapshot>> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    BreakerSnapshot snap;
    snap.state = e.breaker;
    snap.consecutive_failures = e.consecutive_failures;
    snap.backoff = e.backoff;
    snap.open_for = e.open_for;
    out.emplace_back(key, snap);
  }
  return out;
}

}  // namespace vf::serve
