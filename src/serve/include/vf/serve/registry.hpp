#pragma once
// ModelRegistry — thread-safe LRU cache of per-timestep FCNN models.
//
// The paper's Case 1/Case 2 workflow produces one fine-tuned model per
// timestep; a long-running service cannot keep them all resident. The
// registry maps a stable key ("t042") to a model file, loads lazily on
// first resolve, and evicts least-recently-used models when either the
// entry cap or the byte budget (PackedModel::memory_bytes accounting) is
// exceeded. A load packs the file's weights straight into the inference
// form (core::PackedModel, at the tier's precision policy), once per
// load; that form is the entry's only copy of the weights, what it
// charges, and what every worker reads. Concurrent resolvers of the same
// cold key share a single load via a shared_future instead of
// thundering-herding the disk; a failed load is propagated to every
// waiter and leaves the entry re-loadable. Evicted entries keep their
// path registration, so a later resolve simply reloads. In-flight
// shared_ptr handles keep an evicted model's storage alive until the last
// user drops it — eviction only drops the registry's reference, never
// memory a worker is reading.
//
// Loads sit behind a per-model circuit breaker (DESIGN.md §12): after
// `breaker_threshold` consecutive failures the breaker opens and resolve
// fast-fails with CircuitOpenError — no disk I/O — until an exponentially
// backed-off half-open window lets a single probe load through. A probe
// success closes the breaker; a failure re-opens it with doubled backoff.
// Callers already treat any resolve failure as "degrade to the classical
// estimator", so an open breaker turns a retry-hammered fault into an
// instant, bounded degradation.

#include <chrono>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vf/core/model.hpp"
#include "vf/util/atomic_io.hpp"
#include "vf/util/mutex.hpp"
#include "vf/util/rng.hpp"
#include "vf/util/thread_annotations.hpp"

namespace vf::serve {

/// Deterministic per-shard salt (splitmix64 of seed + shard id). Shard 0
/// maps to a nonzero salt too — "no salt" is expressed by leaving
/// RegistryOptions::shard_salt at 0, not by a magic shard id.
[[nodiscard]] std::uint64_t derive_shard_salt(std::uint64_t seed,
                                              std::size_t shard_id);

struct RegistryOptions {
  /// Maximum resident (loaded) models; at least 1 stays resident.
  std::size_t max_models = 4;
  /// Byte budget across resident models (0 = unlimited). The most
  /// recently used model is never evicted even when it alone exceeds
  /// the budget.
  std::size_t max_bytes = 0;
  /// Consecutive load failures before the per-model breaker opens
  /// (0 disables circuit breaking entirely).
  std::uint32_t breaker_threshold = 3;
  /// First open window; doubles on every failed half-open probe up to
  /// `breaker_backoff_max`.
  std::chrono::milliseconds breaker_backoff{100};
  std::chrono::milliseconds breaker_backoff_max{5000};
  /// Retry policy for the disk read inside resolve() (attempts = 1 means
  /// a single try, exactly the pre-retry behaviour). Only the file load
  /// is retried; compatibility validation failures are permanent and
  /// surface immediately. When `jitter_seed` is 0 and `shard_salt` is
  /// nonzero, the salt seeds the jitter so co-located shards spread out.
  vf::util::RetryPolicy load_retry{};
  /// Per-shard identity for fault *independence*: a nonzero salt gives
  /// this registry its own deterministic jitter stream for breaker open
  /// windows (uniform in [backoff/2, backoff]) and, by default, for
  /// load-retry backoff. 0 keeps the exact un-jittered windows — the
  /// single-instance default and what the backoff-ladder tests pin.
  /// ShardRouter derives a distinct salt per shard.
  std::uint64_t shard_salt = 0;
};

/// Per-model load-path health (see module comment for transitions).
enum class BreakerState : std::uint8_t {
  Closed = 0,    ///< loads flow normally
  Open = 1,      ///< fast-failing; no disk I/O until the window elapses
  HalfOpen = 2,  ///< one probe load in flight; siblings still fast-fail
};

[[nodiscard]] const char* breaker_state_name(BreakerState s);

/// Thrown by resolve() when the key's breaker is open. Derives
/// runtime_error so existing "any load failure degrades classically"
/// handling applies unchanged.
class CircuitOpenError : public std::runtime_error {
 public:
  explicit CircuitOpenError(const std::string& key)
      : std::runtime_error("ModelRegistry: circuit open for key '" + key +
                           "'") {}
};

struct BreakerSnapshot {
  BreakerState state = BreakerState::Closed;
  std::uint32_t consecutive_failures = 0;
  std::chrono::milliseconds backoff{0};  ///< exponential ladder value (0 = never tripped)
  /// The open window actually armed: equal to `backoff` for an unsalted
  /// registry, jittered into [backoff/2, backoff] under a shard salt.
  std::chrono::milliseconds open_for{0};
};

struct RegistryStats {
  std::uint64_t hits = 0;
  std::uint64_t loads = 0;
  std::uint64_t load_failures = 0;
  std::uint64_t evictions = 0;
  std::uint64_t breaker_opens = 0;       ///< Closed/HalfOpen -> Open transitions
  std::uint64_t breaker_fast_fails = 0;  ///< resolves answered without disk I/O
  std::uint64_t swaps = 0;  ///< add() re-registrations (hot-swaps) of a live key
  /// Loads that completed under a superseded generation and were
  /// discarded instead of installed — the hot-swap safety path.
  std::uint64_t superseded_loads = 0;
  std::size_t resident_models = 0;
  std::size_t resident_bytes = 0;
  std::size_t open_breakers = 0;  ///< keys currently Open or HalfOpen
};

class ModelRegistry {
 public:
  /// Loads pack each model at `policy` (the serve tier passes
  /// ServiceOptions::quant).
  explicit ModelRegistry(
      RegistryOptions options = {},
      vf::nn::QuantPolicy policy = vf::nn::QuantPolicy::None);

  /// Register `key` -> model file. Does not load. Re-registering an
  /// existing key updates the path, drops any resident model, resets the
  /// breaker (a new file is a new fault domain), and invalidates in-flight
  /// loads of the old path (their results are discarded on completion,
  /// never installed under the new registration).
  void add(const std::string& key, const std::string& path)
      VF_EXCLUDES(mu_);

  /// True when `key` has been registered.
  [[nodiscard]] bool contains(const std::string& key) const
      VF_EXCLUDES(mu_);

  /// Resolve `key` to its packed model, loading it if not resident
  /// (blocking; concurrent cold resolves of one key share a single load).
  /// Bumps the LRU position and evicts over-budget models. Throws
  /// std::invalid_argument for unregistered keys, CircuitOpenError when
  /// the key's breaker is open, and propagates load errors
  /// (missing/corrupt file, fault-injected "model_read" failures, a
  /// network the packed form cannot hold, or a loadable model whose
  /// normaliser shapes don't match the kFeatureDim feature pipeline).
  [[nodiscard]] std::shared_ptr<const vf::core::PackedModel> resolve(
      const std::string& key) VF_EXCLUDES(mu_);

  [[nodiscard]] RegistryStats stats() const VF_EXCLUDES(mu_);

  /// Breaker state for one key (throws std::invalid_argument if
  /// unregistered).
  [[nodiscard]] BreakerSnapshot breaker(const std::string& key) const
      VF_EXCLUDES(mu_);

  /// Every registered key's breaker state, for the `ready` wire verb.
  [[nodiscard]] std::vector<std::pair<std::string, BreakerSnapshot>>
  breaker_states() const VF_EXCLUDES(mu_);

 private:
  using ModelPtr = std::shared_ptr<const vf::core::PackedModel>;

  struct Entry {
    std::string path;
    ModelPtr model;  // null while not resident
    std::shared_future<ModelPtr> loading;  // valid while a load is in flight
    std::list<std::string>::iterator lru{};  // valid while resident
    std::size_t bytes = 0;
    /// Bumped by add() on re-registration; a load completing under a
    /// stale generation discards its result instead of installing it.
    std::uint64_t generation = 0;
    // --- circuit breaker (guarded by mu_ like the rest of the entry) ---
    BreakerState breaker = BreakerState::Closed;
    std::uint32_t consecutive_failures = 0;
    std::chrono::milliseconds backoff{0};  // exponential ladder value
    std::chrono::milliseconds open_for{0};  // armed window (jittered)
    std::chrono::steady_clock::time_point open_until{};
  };

  /// Evict LRU tails until budgets hold.
  void evict_over_budget_locked() VF_REQUIRES(mu_);

  /// Record a load failure against `e` and open/re-open the breaker when
  /// the consecutive-failure threshold is reached.
  void record_load_failure_locked(const std::string& key, Entry& e)
      VF_REQUIRES(mu_);

  RegistryOptions options_;  // immutable after construction
  vf::nn::QuantPolicy policy_;  // immutable after construction
  mutable vf::util::Mutex mu_{"serve.registry"};
  /// Deterministic breaker-window jitter stream; engaged only when
  /// options_.shard_salt != 0 (constructed before the workers exist, so
  /// the un-locked ctor write is safe).
  std::optional<vf::util::Rng> breaker_rng_ VF_GUARDED_BY(mu_);
  std::unordered_map<std::string, Entry> entries_ VF_GUARDED_BY(mu_);
  std::list<std::string> lru_ VF_GUARDED_BY(mu_);  // front = most recent
  RegistryStats stats_ VF_GUARDED_BY(mu_);
};

}  // namespace vf::serve
