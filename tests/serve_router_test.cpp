// ShardRouter: consistent-hash key stability (bounded remap under shard
// add/remove), health- and drain-aware re-routing with the answer-
// exactly-once guarantee intact, versioned-manifest convergence on
// failover shards after re-registration, per-shard fault salts, and
// tier-level drain (TSan via the sanitize label).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "vf/core/fcnn.hpp"
#include "vf/core/model.hpp"
#include "vf/serve/router.hpp"
#include "vf/util/fault.hpp"

namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using vf::field::Vec3;
using vf::sampling::SampleCloud;
using vf::serve::HashRing;
using vf::serve::RouterOptions;
using vf::serve::ShardRouter;
using vf::serve::Status;

vf::core::FcnnModel tiny_model() {
  vf::core::FcnnModel model;
  model.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(vf::core::kFeatureDim), {16, 8},
      static_cast<std::size_t>(vf::core::kTargetDimScalar), 7);
  model.in_norm.mean.assign(vf::core::kFeatureDim, 0.0);
  model.in_norm.stddev.assign(vf::core::kFeatureDim, 1.0);
  model.out_norm.mean.assign(vf::core::kTargetDimScalar, 0.0);
  model.out_norm.stddev.assign(vf::core::kTargetDimScalar, 1.0);
  model.with_gradients = false;
  model.dataset = "router-test";
  return model;
}

SampleCloud test_cloud() {
  std::vector<Vec3> points;
  std::vector<double> values;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      for (int k = 0; k < 3; ++k) {
        Vec3 p{static_cast<double>(i), static_cast<double>(j),
               static_cast<double>(k)};
        points.push_back(p);
        values.push_back(std::sin(0.3 * p.x) + 0.2 * p.y - 0.1 * p.z);
      }
    }
  }
  return SampleCloud(points, values);
}

std::vector<Vec3> probe_points() {
  return {{1.2, 2.3, 0.5}, {4.1, 0.7, 1.9}, {2.5, 5.0, 2.0}};
}

/// Session key "t<i>". Appended rather than written `"t" + to_string(i)`,
/// which GCC 12 flags with a false -Wrestrict inside libstdc++.
std::string session_key(int i) {
  std::string key = "t";
  key += std::to_string(i);
  return key;
}

// --- HashRing (pure consistent-hashing properties) --------------------------

std::vector<std::string> ring_keys(int n) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) keys.push_back("session-" + std::to_string(i));
  return keys;
}

TEST(HashRingTest, AddingAShardRemapsOnlyABoundedFractionToTheNewShard) {
  HashRing ring;
  for (std::uint32_t s = 0; s < 4; ++s) ring.add_shard(s);
  const auto keys = ring_keys(2000);
  std::vector<std::uint32_t> before;
  before.reserve(keys.size());
  for (const auto& k : keys) before.push_back(ring.owner(k));

  ring.add_shard(4);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t after = ring.owner(keys[i]);
    if (after != before[i]) {
      // Strict consistent hashing: a key may only move TO the new shard.
      EXPECT_EQ(after, 4u) << keys[i];
      ++moved;
    }
  }
  // Ideal share is 1/5 = 0.20; vnode variance allows slack but a naive
  // modulo hash would remap ~0.80 and a broken ring 0.
  const double fraction =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.40);
}

TEST(HashRingTest, RemovingAShardRemapsOnlyTheKeysItOwned) {
  HashRing ring;
  for (std::uint32_t s = 0; s < 4; ++s) ring.add_shard(s);
  const auto keys = ring_keys(2000);
  std::vector<std::uint32_t> before;
  before.reserve(keys.size());
  for (const auto& k : keys) before.push_back(ring.owner(k));

  ring.remove_shard(1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t after = ring.owner(keys[i]);
    if (before[i] == 1u) {
      EXPECT_NE(after, 1u) << keys[i];
    } else {
      // Survivor-owned keys must not reshuffle.
      EXPECT_EQ(after, before[i]) << keys[i];
    }
  }
}

TEST(HashRingTest, WalkStartsAtTheHomeShardAndCoversEveryShardOnce) {
  HashRing ring;
  for (std::uint32_t s = 0; s < 5; ++s) ring.add_shard(s);
  for (const auto& key : ring_keys(50)) {
    const auto walk = ring.walk(key);
    ASSERT_EQ(walk.size(), 5u);
    EXPECT_EQ(walk.front(), ring.owner(key));
    std::set<std::uint32_t> distinct(walk.begin(), walk.end());
    EXPECT_EQ(distinct.size(), 5u);
  }
}

TEST(HashRingTest, OwnerIsDeterministicAcrossIdenticallySeededRings) {
  HashRing a;
  HashRing b;
  for (std::uint32_t s = 0; s < 3; ++s) {
    a.add_shard(s);
    b.add_shard(s);
  }
  for (const auto& key : ring_keys(200)) {
    EXPECT_EQ(a.owner(key), b.owner(key));
  }
}

// --- ShardRouter ------------------------------------------------------------

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vf_router_test_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::create_directories(dir_);
    model_path_ = (dir_ / "model.vfmd").string();
    tiny_model().save(model_path_);
    // Hermetic against env-armed failpoints (the chaos CI lane exports
    // VF_FAULT_* process-wide): an injected load or inference fault
    // degrades answers these tests compare exactly.
    vf::util::fault::clear();
  }
  void TearDown() override {
    fs::remove_all(dir_);
    vf::util::fault::reload_env();
  }

  fs::path dir_;
  std::string model_path_;
};

TEST_F(RouterTest, ServesQueriesAndSpreadsSessionsAcrossShards) {
  RouterOptions ropts;
  ropts.shards = 3;
  ShardRouter router(ropts);
  std::set<std::size_t> homes;
  for (int i = 0; i < 16; ++i) {
    const std::string key = session_key(i);
    router.add_session(key, test_cloud(), model_path_);
    EXPECT_TRUE(router.has_session(key));
    homes.insert(router.shard_for(key));
    const auto resp = router.query(key, probe_points());
    EXPECT_EQ(resp.status, Status::Ok);
    EXPECT_EQ(resp.values.size(), probe_points().size());
    EXPECT_TRUE(resp.fallback.empty());
  }
  // 16 keys over 3 shards: the ring must not degenerate to one shard.
  EXPECT_GE(homes.size(), 2u);
  const auto stats = router.stats();
  EXPECT_EQ(stats.routed, 16u);
  EXPECT_EQ(stats.rerouted, 0u);
  EXPECT_EQ(stats.no_shard, 0u);
  EXPECT_EQ(stats.shards.size(), 3u);
}

TEST_F(RouterTest, UnknownSessionKeyThrows) {
  ShardRouter router;
  EXPECT_THROW((void)router.submit("nope", probe_points()),
               std::invalid_argument);
}

TEST_F(RouterTest, UnhealthyShardIsSkippedUntilItHealsAgain) {
  RouterOptions ropts;
  ropts.shards = 3;
  ShardRouter router(ropts);
  router.add_session("k", test_cloud(), model_path_);
  const std::size_t home = router.shard_for("k");
  ASSERT_EQ(router.route("k"), home);

  router.set_healthy(home, false);
  EXPECT_FALSE(router.healthy(home));
  const auto failover = router.route("k");
  ASSERT_TRUE(failover.has_value());
  EXPECT_NE(*failover, home);

  const auto resp = router.query("k", probe_points());
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_GE(router.stats().rerouted, 1u);

  router.set_healthy(home, true);
  EXPECT_EQ(router.route("k"), home);
}

TEST_F(RouterTest, DrainingShardReroutesAndAnswersEveryRequestExactlyOnce) {
  RouterOptions ropts;
  ropts.shards = 3;
  ropts.shard.queue_max = 4096;
  ShardRouter router(ropts);
  router.add_session("k", test_cloud(), model_path_);
  const std::size_t home = router.shard_for("k");
  router.begin_drain_shard(home);
  EXPECT_FALSE(router.draining());  // one shard draining != tier draining

  // Producer storm against the draining home: every accepted submit must
  // land on a healthy neighbour and resolve exactly once.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  std::vector<std::future<vf::serve::PointResponse>> futures;
  vf::util::Mutex futures_mu{
      "test.router.futures"};  // vf-lint: allow(unannotated-guard) local
  std::vector<std::thread> producers;
  std::atomic<int> refused{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto f = router.submit("k", probe_points());
        if (!f) {
          refused.fetch_add(1);
          continue;
        }
        vf::util::MutexLock lock(futures_mu);
        futures.push_back(std::move(*f));
      }
    });
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(refused.load(), 0);  // two healthy shards, deep queues
  ASSERT_EQ(futures.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::size_t served = 0;
  for (auto& f : futures) {
    const auto resp = f.get();  // resolves exactly once, never hangs
    if (resp.status == Status::Ok) ++served;
  }
  EXPECT_EQ(served, futures.size());
  const auto stats = router.stats();
  EXPECT_EQ(stats.rerouted, futures.size());
  // The draining home shard never saw a storm request.
  EXPECT_EQ(stats.shards[home].accepted, 0u);
}

TEST_F(RouterTest, FailoverShardConvergesOnTheManifestAndTracksReRegistration) {
  RouterOptions ropts;
  ropts.shards = 2;
  // A missing model must fail fast (no retry ladder) and stay failed.
  ropts.shard.registry.breaker_threshold = 1;
  ropts.shard.registry.breaker_backoff = 60000ms;
  ShardRouter router(ropts);
  router.add_session("k", test_cloud(), model_path_);
  const std::size_t home = router.shard_for("k");

  // Only the home shard was bound eagerly.
  EXPECT_EQ(router.stats().manifest_applies, 1u);

  // Drain the home: the failover shard converges lazily at routing time
  // and serves from the registered (good) model.
  router.begin_drain_shard(home);
  auto resp = router.query("k", probe_points());
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_TRUE(resp.fallback.empty());
  const auto converged = router.stats();
  EXPECT_EQ(converged.shards[1 - home].accepted, 1u);
  EXPECT_EQ(converged.shards[1 - home].registry.loads, 1u);
  EXPECT_GE(converged.manifest_applies, 2u);

  // Re-register "k" with a model path that cannot load: the manifest
  // version bumps, so the failover shard must re-bind (not serve its
  // stale binding) and the next query degrades to the classical path.
  router.add_session("k", test_cloud(), (dir_ / "gone.vfmd").string());
  const auto applies_before = router.stats().manifest_applies;
  resp = router.query("k", probe_points());
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_EQ(resp.fallback, "classical");
  EXPECT_GT(router.stats().manifest_applies, applies_before);
}

TEST_F(RouterTest, AllShardsDrainingRefusesNewWork) {
  RouterOptions ropts;
  ropts.shards = 2;
  ShardRouter router(ropts);
  router.add_session("k", test_cloud(), model_path_);
  router.begin_drain();
  EXPECT_TRUE(router.draining());
  EXPECT_FALSE(router.route("k").has_value());
  EXPECT_FALSE(router.submit("k", probe_points()).has_value());
  EXPECT_GE(router.stats().no_shard, 1u);
}

TEST_F(RouterTest, PerShardRegistrySaltsAreDistinctAndNonZero) {
  RouterOptions ropts;
  ropts.shards = 4;
  ShardRouter router(ropts);
  std::set<std::uint64_t> salts;
  for (std::size_t i = 0; i < router.shard_count(); ++i) {
    const std::uint64_t salt = router.shard_options(i).registry.shard_salt;
    EXPECT_NE(salt, 0u) << "shard " << i;
    salts.insert(salt);
  }
  EXPECT_EQ(salts.size(), router.shard_count());
}

TEST_F(RouterTest, ExplicitTemplateSaltIsRespected) {
  RouterOptions ropts;
  ropts.shards = 2;
  ropts.shard.registry.shard_salt = 77;
  ShardRouter router(ropts);
  EXPECT_EQ(router.shard_options(0).registry.shard_salt, 77u);
  EXPECT_EQ(router.shard_options(1).registry.shard_salt, 77u);
}

TEST_F(RouterTest, TierDrainFlushesTheBacklogAndReportsTrue) {
  RouterOptions ropts;
  ropts.shards = 2;
  ropts.shard.queue_max = 1024;
  ShardRouter router(ropts);
  for (int i = 0; i < 4; ++i) {
    router.add_session(session_key(i), test_cloud(), model_path_);
  }
  std::vector<std::future<vf::serve::PointResponse>> futures;
  for (int i = 0; i < 64; ++i) {
    auto f = router.submit(session_key(i % 4), probe_points());
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  EXPECT_TRUE(router.drain(10000ms));
  std::size_t terminal = 0;
  for (auto& f : futures) {
    const auto resp = f.get();
    EXPECT_TRUE(resp.status == Status::Ok || resp.status == Status::Draining);
    ++terminal;
  }
  EXPECT_EQ(terminal, futures.size());
  // Post-drain submits are refused tier-wide.
  EXPECT_FALSE(router.submit("t0", probe_points()).has_value());
}

TEST_F(RouterTest, StatsAggregateAcrossShards) {
  RouterOptions ropts;
  ropts.shards = 2;
  ShardRouter router(ropts);
  router.add_session("a", test_cloud(), model_path_);
  router.add_session("b", test_cloud(), model_path_);
  (void)router.query("a", probe_points());
  (void)router.query("b", probe_points());
  const auto stats = router.stats();
  std::uint64_t sum = 0;
  for (const auto& s : stats.shards) sum += s.accepted;
  EXPECT_EQ(stats.total.accepted, sum);
  EXPECT_EQ(stats.total.accepted, 2u);
  EXPECT_EQ(stats.total.served_points, 2 * probe_points().size());
}

}  // namespace
