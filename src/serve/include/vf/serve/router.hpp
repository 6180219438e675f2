#pragma once
// ShardRouter — the serving tier: a consistent-hash front-end over N
// shards (DESIGN.md §9 and §13). It is the only public serving type; a
// one-shard router is the single-instance server.
//
//   clients ── submit(key, …) ──> HashRing ──> shard 0  (Service)
//                                    │    └──> shard 1  (Service)
//                              health/drain └> shard …  (Service)
//
// Each shard is a Service (private to src/serve) — its own ModelRegistry,
// RequestQueue, and worker pool — so shards share no locks, no breaker
// state, and no LRU: one slow disk or tripped breaker degrades one shard,
// not the tier. A (session, timestep) key maps to its home shard through a
// consistent hash ring with virtual nodes, so adding or removing a shard
// remaps only ~1/N of the key space (bounded-remap property, unit-tested)
// instead of reshuffling every resident model.
//
// Routing is health-aware: a draining shard (the `ready` verb's notion) or
// one an operator marked unhealthy is skipped and the request walks
// clockwise to the next healthy shard. Sessions follow
// a *versioned manifest*: add_session records (cloud, model path, version)
// centrally and applies it eagerly to the home shard; when a request is
// re-routed, the failover shard converges lazily — the router compares
// the shard's applied version against the manifest and re-binds before
// delegating, so replica registries converge after re-registration
// instead of serving a superseded model.
//
// Per-shard fault independence (DESIGN.md §13): the router derives a
// distinct `shard_salt` for every shard, which seeds both the registry's
// load-retry jitter and its breaker open-window jitter — co-located
// shards that all failed on a shared-disk fault fan back in spread out
// instead of retrying in lockstep.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vf/sampling/sample_cloud.hpp"
#include "vf/serve/options.hpp"
#include "vf/serve/queue.hpp"
#include "vf/serve/registry.hpp"
#include "vf/util/mutex.hpp"
#include "vf/util/thread_annotations.hpp"

namespace vf::serve {

/// Consistent-hash ring with virtual nodes. Pure data structure (no
/// services, no locks — the owner synchronises mutation), so the
/// bounded-remap and stability properties are unit-testable in isolation.
/// `vnodes` points per shard keep the per-shard key share within a few
/// percent of 1/N.
class HashRing {
 public:
  explicit HashRing(std::size_t vnodes = 64,
                    std::uint64_t seed = 0x76666c6c72696e67ULL);

  void add_shard(std::uint32_t shard);
  void remove_shard(std::uint32_t shard);
  [[nodiscard]] bool empty() const { return ring_.empty(); }

  /// Home shard for `key` (first ring point clockwise of the key's hash).
  /// Precondition: !empty().
  [[nodiscard]] std::uint32_t owner(const std::string& key) const;

  /// Clockwise walk from `key`'s position: every distinct shard in
  /// failover order, starting with the home shard. Used by the router to
  /// skip draining/unhealthy shards without re-hashing.
  [[nodiscard]] std::vector<std::uint32_t> walk(const std::string& key) const;

 private:
  [[nodiscard]] std::uint64_t key_hash(const std::string& key) const;

  std::size_t vnodes_;
  std::uint64_t seed_;
  /// Sorted (point, shard) pairs; lookup is an upper_bound + wrap.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

struct RouterOptions {
  /// Shard count; each shard is built from `shard` below.
  std::size_t shards = 1;
  /// Virtual nodes per shard on the hash ring.
  std::size_t vnodes = 64;
  /// Ring seed (also the base of the per-shard salts).
  std::uint64_t seed = 0x76666c6c72696e67ULL;
  /// Template for every shard. The router derives a per-shard registry
  /// shard_salt from `seed` (unless the template already set a nonzero
  /// salt).
  ServiceOptions shard;
};

/// Aggregated router counters, snapshot via ShardRouter::stats().
struct RouterStats {
  std::uint64_t routed = 0;    ///< submits delegated to a shard
  std::uint64_t rerouted = 0;  ///< served off the home shard (drain/health)
  std::uint64_t manifest_applies = 0;  ///< session binds pushed to shards
  /// Submits refused: no routable shard. Refusals while the whole tier
  /// drains also count in total.drain_rejects.
  std::uint64_t no_shard = 0;
  /// Element-wise sum across shards, plus the router's own drain rejects.
  ServiceStats total;
  std::vector<ServiceStats> shards;
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterOptions options = {});
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Register `key` in the versioned manifest (bumping its version) and
  /// bind it eagerly on the home shard: the cloud is scrubbed and indexed
  /// there now, and `model_path` is registered with that shard's model
  /// registry. An empty `model_path` binds a classical session, answered
  /// by the modified Shepard estimate (fallback:"classical"). Re-registering
  /// replaces the entry; shards holding the old binding converge on their
  /// next routed request. Throws std::invalid_argument when fewer than
  /// core::kNeighbors usable samples survive scrubbing; the manifest is
  /// then left unchanged.
  void add_session(const std::string& key,
                   const vf::sampling::SampleCloud& cloud,
                   const std::string& model_path);

  [[nodiscard]] bool has_session(const std::string& key) const;

  /// Route + delegate with the ServiceOptions::default_deadline (none
  /// when zero). Returns std::nullopt when every routable shard refused
  /// (all draining/unhealthy, or the chosen shard's queue is full).
  /// Throws std::invalid_argument for unmanifested keys.
  [[nodiscard]] std::optional<std::future<PointResponse>> submit(
      const std::string& key, std::vector<vf::field::Vec3> points);
  /// As above with an explicit absolute deadline
  /// (time_point::max() = none). A deadline already past is answered
  /// DeadlineExceeded at once, without touching the queue or inference.
  [[nodiscard]] std::optional<std::future<PointResponse>> submit(
      const std::string& key, std::vector<vf::field::Vec3> points,
      std::chrono::steady_clock::time_point deadline);

  /// Synchronous convenience: submit + wait (OverloadedError on refusal).
  [[nodiscard]] PointResponse query(const std::string& key,
                                    std::vector<vf::field::Vec3> points);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Home shard for `key` (ignores health — ring position only).
  [[nodiscard]] std::size_t shard_for(const std::string& key) const;
  /// Shard a submit for `key` would reach right now (health-aware);
  /// std::nullopt when no shard is routable.
  [[nodiscard]] std::optional<std::size_t> route(const std::string& key) const;

  /// The options shard `i` was built with (the template plus its salt).
  [[nodiscard]] const ServiceOptions& shard_options(std::size_t i) const;

  /// Every shard's per-model breaker state, for the `ready` verb. Keys are
  /// shard-qualified ("<shard>/<key>") when there is more than one shard:
  /// breakers are per-shard state, and an operator chasing one needs to
  /// know which replica tripped.
  [[nodiscard]] std::vector<std::pair<std::string, BreakerSnapshot>>
  breaker_states() const;

  /// Operator health override: an unhealthy shard is skipped by routing
  /// but keeps serving its backlog.
  void set_healthy(std::size_t i, bool healthy);
  [[nodiscard]] bool healthy(std::size_t i) const;

  /// Close admission on one shard (requests re-route to its neighbours).
  void begin_drain_shard(std::size_t i);
  /// Close admission everywhere.
  void begin_drain();
  /// True once every shard is draining (the tier-level `ready` signal).
  [[nodiscard]] bool draining() const;

  /// Graceful tier shutdown: drain every shard, splitting `budget` across
  /// them. True when every shard drained within its slice.
  bool drain(std::chrono::milliseconds budget);
  void stop();

  [[nodiscard]] RouterStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const RouterOptions& options() const { return options_; }

 private:
  struct ManifestEntry {
    vf::sampling::SampleCloud cloud;
    std::string model_path;
    std::uint64_t version = 0;
  };
  /// One shard's Service plus its routing state (defined in router.cpp,
  /// so the Service type stays private to src/serve).
  struct Shard;

  [[nodiscard]] static bool routable(const Shard& s);
  /// Bind `key` on shard `s` iff its applied version is stale.
  void converge_session(Shard& s,
                        const std::shared_ptr<const ManifestEntry>& entry,
                        const std::string& key);

  RouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable vf::util::Mutex manifest_mu_{"serve.router.manifest"};
  std::unordered_map<std::string, std::shared_ptr<const ManifestEntry>>
      manifest_ VF_GUARDED_BY(manifest_mu_);
  std::uint64_t next_version_ VF_GUARDED_BY(manifest_mu_) = 0;

  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> manifest_applies_{0};
  std::atomic<std::uint64_t> no_shard_{0};
  std::atomic<std::uint64_t> drain_rejects_{0};
};

}  // namespace vf::serve
