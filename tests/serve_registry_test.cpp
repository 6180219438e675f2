// ModelRegistry: lazy loading, LRU/byte-budget eviction, what a packed
// entry charges, failed-load retry, per-key circuit breaking (open /
// half-open probe / close), and single-flight concurrent resolution (TSan
// via the sanitize label).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "vf/core/fcnn.hpp"
#include "vf/core/model.hpp"
#include "vf/nn/kernels.hpp"
#include "vf/serve/registry.hpp"
#include "vf/util/fault.hpp"

namespace {

namespace fs = std::filesystem;
using vf::core::FcnnModel;
using vf::core::PackedModel;
using vf::serve::BreakerState;
using vf::serve::CircuitOpenError;
using vf::serve::ModelRegistry;
using vf::serve::RegistryOptions;

// Untrained but fully valid (loadable, inference-capable) model; the
// registry only cares about serialization and size accounting.
FcnnModel tiny_model(unsigned seed) {
  FcnnModel model;
  model.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(vf::core::kFeatureDim), {16, 8},
      static_cast<std::size_t>(vf::core::kTargetDimScalar), seed);
  model.in_norm.mean.assign(vf::core::kFeatureDim, 0.0);
  model.in_norm.stddev.assign(vf::core::kFeatureDim, 1.0);
  model.out_norm.mean.assign(vf::core::kTargetDimScalar, 0.0);
  model.out_norm.stddev.assign(vf::core::kTargetDimScalar, 1.0);
  model.with_gradients = false;
  model.dataset = "registry-test";
  return model;
}

class Registry : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vf_registry_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    // Hermetic against env-armed failpoints (the chaos CI lane exports
    // VF_FAULT_* process-wide): these tests count loads exactly, and some
    // resolve from threads that do not catch an injected load fault.
    vf::util::fault::clear();
  }
  void TearDown() override {
    fs::remove_all(dir_);
    vf::util::fault::reload_env();
  }

  std::string save_model(const std::string& name, unsigned seed) {
    const std::string path = (dir_ / (name + ".vfmd")).string();
    tiny_model(seed).save(path);
    return path;
  }

  fs::path dir_;
};

TEST_F(Registry, UnregisteredKeyThrows) {
  ModelRegistry reg;
  EXPECT_FALSE(reg.contains("missing"));
  EXPECT_THROW((void)reg.resolve("missing"), std::invalid_argument);
}

TEST_F(Registry, LoadsLazilyOnceThenHits) {
  ModelRegistry reg;
  reg.add("a", save_model("a", 1));
  EXPECT_TRUE(reg.contains("a"));
  EXPECT_EQ(reg.stats().loads, 0u);  // add() must not load

  auto first = reg.resolve("a");
  ASSERT_NE(first, nullptr);
  auto second = reg.resolve("a");
  EXPECT_EQ(first.get(), second.get());

  auto stats = reg.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident_models, 1u);
  EXPECT_EQ(stats.resident_bytes, first->memory_bytes());
}

TEST_F(Registry, PackedFp64EntryChargesOneCopyOfTheWeights) {
  // A paper-width model served at fp64: the entry holds the weights once,
  // packed, so it charges what the row-major model would plus only the
  // panel padding: the zero columns that pad each layer to the panel width
  // and the cache line of slack each layer's panels are aligned within.
  FcnnModel model = tiny_model(1);
  const std::vector<std::size_t> hidden = {512, 256, 128, 64, 16};
  model.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(vf::core::kFeatureDim), hidden,
      static_cast<std::size_t>(vf::core::kTargetDimGrad), 4);
  model.out_norm.mean.assign(vf::core::kTargetDimGrad, 0.0);
  model.out_norm.stddev.assign(vf::core::kTargetDimGrad, 1.0);
  model.with_gradients = true;
  const std::string path = (dir_ / "paper.vfmd").string();
  model.save(path);

  std::size_t padding = 0;
  std::size_t in = static_cast<std::size_t>(vf::core::kFeatureDim);
  std::vector<std::size_t> widths = hidden;
  widths.push_back(static_cast<std::size_t>(vf::core::kTargetDimGrad));
  for (const std::size_t out : widths) {
    padding += (vf::nn::detail::packed_b_size<double>(in, out) - in * out) *
                   sizeof(double) +
               64;
    in = out;
  }

  ModelRegistry reg;
  reg.add("paper", path);
  const auto entry = reg.resolve("paper");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(reg.stats().resident_bytes, entry->memory_bytes());
  EXPECT_GE(entry->memory_bytes(),
            model.net.parameter_count() * sizeof(double));
  EXPECT_LE(entry->memory_bytes(), model.memory_bytes() + padding);
}

TEST_F(Registry, EvictsLeastRecentlyUsedAtModelCap) {
  RegistryOptions opts;
  opts.max_models = 2;
  ModelRegistry reg(opts);
  reg.add("a", save_model("a", 1));
  reg.add("b", save_model("b", 2));
  reg.add("c", save_model("c", 3));

  (void)reg.resolve("a");
  (void)reg.resolve("b");
  EXPECT_EQ(reg.stats().resident_models, 2u);

  (void)reg.resolve("c");  // evicts "a", the LRU tail
  auto stats = reg.stats();
  EXPECT_EQ(stats.resident_models, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.loads, 3u);

  (void)reg.resolve("b");  // still resident: a hit, not a reload
  EXPECT_EQ(reg.stats().hits, 1u);

  (void)reg.resolve("a");  // evicted: reloaded from its registered path
  stats = reg.stats();
  EXPECT_EQ(stats.loads, 4u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST_F(Registry, ByteBudgetNeverEvictsTheLastResidentModel) {
  RegistryOptions opts;
  opts.max_bytes = 1;  // tighter than any real model
  ModelRegistry reg(opts);
  reg.add("a", save_model("a", 1));
  reg.add("b", save_model("b", 2));

  auto a = reg.resolve("a");
  EXPECT_EQ(reg.stats().resident_models, 1u);  // over budget, but kept

  auto b = reg.resolve("b");
  auto stats = reg.stats();
  EXPECT_EQ(stats.resident_models, 1u);  // "a" evicted, "b" pinned
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_bytes, b->memory_bytes());
}

TEST_F(Registry, InFlightHandleOutlivesEviction) {
  RegistryOptions opts;
  opts.max_models = 1;
  ModelRegistry reg(opts);
  reg.add("a", save_model("a", 1));
  reg.add("b", save_model("b", 2));

  auto held = reg.resolve("a");
  (void)reg.resolve("b");  // evicts "a" from the registry
  EXPECT_EQ(reg.stats().evictions, 1u);

  // The worker's handle still owns the storage.
  EXPECT_FALSE(held->net.empty());
  EXPECT_GT(held->memory_bytes(), 0u);
}

TEST_F(Registry, FailedLoadPropagatesAndStaysRetryable) {
  ModelRegistry reg;
  reg.add("bad", (dir_ / "nope.vfmd").string());
  EXPECT_THROW((void)reg.resolve("bad"), std::exception);
  EXPECT_THROW((void)reg.resolve("bad"), std::exception);
  auto stats = reg.stats();
  EXPECT_EQ(stats.load_failures, 2u);
  EXPECT_EQ(stats.resident_models, 0u);

  // Re-registering a good path heals the key.
  reg.add("bad", save_model("healed", 9));
  auto model = reg.resolve("bad");
  ASSERT_NE(model, nullptr);
  EXPECT_FALSE(model->net.empty());
}

TEST_F(Registry, RejectsALoadableButIncompatibleModel) {
  // Valid file, wrong feature width: resolve must fail like a corrupt
  // file (so serve degrades to classical) instead of handing workers a
  // model whose Normalizer::apply throws mid-inference.
  auto bad = tiny_model(1);
  bad.in_norm.mean.assign(vf::core::kFeatureDim + 2, 0.0);
  bad.in_norm.stddev.assign(vf::core::kFeatureDim + 2, 1.0);
  const std::string path = (dir_ / "incompatible.vfmd").string();
  bad.save(path);

  ModelRegistry reg;
  reg.add("bad", path);
  EXPECT_THROW((void)reg.resolve("bad"), std::runtime_error);
  auto stats = reg.stats();
  EXPECT_EQ(stats.load_failures, 1u);
  EXPECT_EQ(stats.resident_models, 0u);
}

TEST_F(Registry, ReRegisteringDropsTheResidentModel) {
  ModelRegistry reg;
  reg.add("a", save_model("a", 1));
  auto first = reg.resolve("a");
  reg.add("a", save_model("a2", 2));  // path update drops the resident copy
  auto second = reg.resolve("a");
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(reg.stats().loads, 2u);
}

TEST_F(Registry, ReRegisteringMidLoadNeverInstallsTheStaleModel) {
  // The served form keeps no metadata strings; an output normaliser tells
  // the two files apart.
  auto old_model = tiny_model(1);
  old_model.out_norm.mean = {1.0};
  const std::string old_path = (dir_ / "old.vfmd").string();
  old_model.save(old_path);
  auto new_model = tiny_model(2);
  new_model.out_norm.mean = {2.0};
  const std::string new_path = (dir_ / "new.vfmd").string();
  new_model.save(new_path);

  // Race a cold resolve of the old path against re-registration. Whatever
  // the interleaving — resolve completes first (resident model dropped by
  // add), load in flight (generation mismatch discards the result), or
  // resolve starts after add (loads the new path) — the new registration
  // must never serve the old path's model.
  for (int round = 0; round < 25; ++round) {
    ModelRegistry reg;
    reg.add("k", old_path);
    std::thread loader([&reg] { (void)reg.resolve("k"); });
    reg.add("k", new_path);
    loader.join();
    auto model = reg.resolve("k");
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->out_norm.mean.at(0), 2.0);
  }
}

TEST_F(Registry, ConcurrentColdResolversShareOneLoad) {
  ModelRegistry reg;
  reg.add("a", save_model("a", 1));

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PackedModel>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&reg, &results, t] { results[static_cast<std::size_t>(t)] = reg.resolve("a"); });
  }
  for (auto& t : threads) t.join();

  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());  // single shared instance
  }
  EXPECT_EQ(reg.stats().loads, 1u);  // no thundering herd
}

// --- circuit breaker --------------------------------------------------------

TEST_F(Registry, BreakerOpensAtTheThresholdAndFastFailsWithoutDiskIo) {
  RegistryOptions opts;
  opts.breaker_threshold = 3;
  opts.breaker_backoff = std::chrono::milliseconds(60000);  // stays open
  ModelRegistry reg(opts);
  reg.add("bad", (dir_ / "nope.vfmd").string());

  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)reg.resolve("bad"), std::runtime_error);
  }
  auto snap = reg.breaker("bad");
  EXPECT_EQ(snap.state, BreakerState::Open);
  EXPECT_EQ(snap.consecutive_failures, 3u);

  // Inside the backoff window the key fails fast — no load is attempted.
  EXPECT_THROW((void)reg.resolve("bad"), CircuitOpenError);
  auto stats = reg.stats();
  EXPECT_EQ(stats.load_failures, 3u);  // the fast-fail was not a load
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.breaker_fast_fails, 1u);
  EXPECT_EQ(stats.open_breakers, 1u);
}

TEST_F(Registry, BreakerDisabledAtThresholdZeroNeverOpens) {
  RegistryOptions opts;
  opts.breaker_threshold = 0;
  ModelRegistry reg(opts);
  reg.add("bad", (dir_ / "nope.vfmd").string());
  for (int i = 0; i < 6; ++i) {
    EXPECT_THROW((void)reg.resolve("bad"), std::runtime_error);
  }
  EXPECT_EQ(reg.breaker("bad").state, BreakerState::Closed);
  EXPECT_EQ(reg.stats().load_failures, 6u);  // every attempt hit the disk
  EXPECT_EQ(reg.stats().breaker_opens, 0u);
}

TEST_F(Registry, HalfOpenProbeClosesTheBreakerOnceTheFaultClears) {
  RegistryOptions opts;
  opts.breaker_threshold = 2;
  opts.breaker_backoff = std::chrono::milliseconds(1);
  ModelRegistry reg(opts);
  const std::string path = (dir_ / "flaky.vfmd").string();
  reg.add("k", path);

  EXPECT_THROW((void)reg.resolve("k"), std::runtime_error);
  EXPECT_THROW((void)reg.resolve("k"), std::runtime_error);
  EXPECT_EQ(reg.breaker("k").state, BreakerState::Open);

  // The fault clears (a good model appears at the registered path). After
  // the backoff window the next resolve is the half-open probe; its
  // success closes the breaker for everyone.
  tiny_model(5).save(path);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto model = reg.resolve("k");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(reg.breaker("k").state, BreakerState::Closed);
  EXPECT_EQ(reg.breaker("k").consecutive_failures, 0u);
  EXPECT_EQ(reg.stats().open_breakers, 0u);
}

TEST_F(Registry, FailedProbeReopensWithADoubledBackoff) {
  RegistryOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_backoff = std::chrono::milliseconds(1);
  opts.breaker_backoff_max = std::chrono::milliseconds(100);
  ModelRegistry reg(opts);
  reg.add("bad", (dir_ / "nope.vfmd").string());

  EXPECT_THROW((void)reg.resolve("bad"), std::runtime_error);
  EXPECT_EQ(reg.breaker("bad").backoff, std::chrono::milliseconds(1));

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_THROW((void)reg.resolve("bad"), std::runtime_error);  // the probe
  auto snap = reg.breaker("bad");
  EXPECT_EQ(snap.state, BreakerState::Open);
  EXPECT_EQ(snap.backoff, std::chrono::milliseconds(2));  // exponential
  EXPECT_EQ(reg.stats().breaker_opens, 2u);
}

TEST_F(Registry, ReRegisteringAKeyResetsItsBreaker) {
  RegistryOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_backoff = std::chrono::milliseconds(60000);
  ModelRegistry reg(opts);
  reg.add("k", (dir_ / "nope.vfmd").string());
  EXPECT_THROW((void)reg.resolve("k"), std::runtime_error);
  EXPECT_THROW((void)reg.resolve("k"), CircuitOpenError);

  // A new file is a new fault domain: the old key's failures must not
  // fast-fail the healed registration.
  reg.add("k", save_model("healed", 3));
  EXPECT_EQ(reg.breaker("k").state, BreakerState::Closed);
  auto model = reg.resolve("k");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(reg.stats().open_breakers, 0u);
}

TEST_F(Registry, BreakerStatesSnapshotCoversEveryRegisteredKey) {
  RegistryOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_backoff = std::chrono::milliseconds(60000);
  ModelRegistry reg(opts);
  reg.add("good", save_model("good", 1));
  reg.add("bad", (dir_ / "nope.vfmd").string());
  (void)reg.resolve("good");
  EXPECT_THROW((void)reg.resolve("bad"), std::runtime_error);

  const auto states = reg.breaker_states();
  ASSERT_EQ(states.size(), 2u);
  for (const auto& [key, snap] : states) {
    EXPECT_EQ(snap.state,
              key == "bad" ? BreakerState::Open : BreakerState::Closed);
  }
}

TEST_F(Registry, ConcurrentMixedKeyChurnUnderTightCapStaysConsistent) {
  RegistryOptions opts;
  opts.max_models = 1;  // maximum eviction churn
  ModelRegistry reg(opts);
  reg.add("a", save_model("a", 1));
  reg.add("b", save_model("b", 2));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < 25; ++i) {
        auto model = reg.resolve((t + i) % 2 == 0 ? "a" : "b");
        ASSERT_NE(model, nullptr);
        // Touch the model to catch use-after-eviction under ASan/TSan.
        ASSERT_GT(model->net.layer_count(), 0u);
      }
    });
  }
  for (auto& t : threads) t.join();

  auto stats = reg.stats();
  EXPECT_EQ(stats.resident_models, 1u);
  // Resolves riding another thread's in-flight load count as neither hit
  // nor load, so the sum only bounds the 100 resolves from above.
  EXPECT_LE(stats.hits + stats.loads, 100u);
  EXPECT_GE(stats.loads, 2u);  // both keys were cold at least once
  EXPECT_GE(stats.evictions, 1u);
}


// --- per-shard fault independence (shard salts, jitter, load retry) ---------

TEST_F(Registry, UnsaltedBreakerOpenWindowEqualsItsBackoff) {
  RegistryOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_backoff = std::chrono::milliseconds(64);
  ModelRegistry reg(opts);  // shard_salt 0: exact legacy behaviour
  reg.add("bad", (dir_ / "nope.vfmd").string());
  EXPECT_THROW((void)reg.resolve("bad"), std::runtime_error);
  const auto snap = reg.breaker("bad");
  EXPECT_EQ(snap.backoff, std::chrono::milliseconds(64));
  EXPECT_EQ(snap.open_for, snap.backoff);  // no jitter without a salt
}

TEST_F(Registry, SaltedBreakerJittersTheOpenWindowWithinTheBackoff) {
  RegistryOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_backoff = std::chrono::milliseconds(64);
  opts.breaker_backoff_max = std::chrono::milliseconds(60000);
  opts.shard_salt = 0x5eedULL;
  ModelRegistry reg(opts);
  reg.add("bad", (dir_ / "nope.vfmd").string());
  EXPECT_THROW((void)reg.resolve("bad"), std::runtime_error);
  const auto snap = reg.breaker("bad");
  // The exponential ladder itself stays exact; only the armed window is
  // drawn from [backoff/2, backoff].
  EXPECT_EQ(snap.backoff, std::chrono::milliseconds(64));
  EXPECT_GE(snap.open_for, std::chrono::milliseconds(32));
  EXPECT_LE(snap.open_for, std::chrono::milliseconds(64));
}

TEST_F(Registry, DistinctSaltsDecorrelateTheOpenWindows) {
  auto windows = [&](std::uint64_t salt) {
    RegistryOptions opts;
    opts.breaker_threshold = 1;
    opts.breaker_backoff = std::chrono::milliseconds(4096);
    opts.shard_salt = salt;
    ModelRegistry reg(opts);
    std::vector<std::chrono::milliseconds> open_for;
    for (int i = 0; i < 8; ++i) {
      const std::string key = "bad" + std::to_string(i);
      reg.add(key, (dir_ / (key + ".vfmd")).string());
      EXPECT_THROW((void)reg.resolve(key), std::runtime_error);
      open_for.push_back(reg.breaker(key).open_for);
    }
    return open_for;
  };
  // Two co-located shards with different salts must not arm their open
  // windows in lockstep (that lockstep is the retry-storm this fixes).
  EXPECT_NE(windows(vf::serve::derive_shard_salt(0, 1)),
            windows(vf::serve::derive_shard_salt(0, 2)));
}

TEST_F(Registry, DerivedShardSaltsAreNonZeroAndDistinct) {
  std::vector<std::uint64_t> salts;
  for (std::size_t shard = 0; shard < 16; ++shard) {
    const std::uint64_t salt = vf::serve::derive_shard_salt(12345, shard);
    EXPECT_NE(salt, 0u);
    EXPECT_EQ(std::count(salts.begin(), salts.end(), salt), 0);
    salts.push_back(salt);
  }
}

TEST_F(Registry, LoadRetryAbsorbsTransientReadFaults) {
  namespace fault = vf::util::fault;
  fault::clear();
  RegistryOptions opts;
  opts.load_retry.attempts = 3;
  opts.load_retry.initial_delay_ms = 1;
  ModelRegistry reg(opts);
  reg.add("a", save_model("a", 1));

  // The first two reads fail (a transient shared-disk brownout); the
  // in-resolve retry absorbs them so the caller sees one clean load and
  // the breaker never counts a failure.
  fault::arm("model_read", {fault::Mode::Error, 0, 2});
  auto model = reg.resolve("a");
  fault::clear();
  ASSERT_NE(model, nullptr);
  const auto stats = reg.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.load_failures, 0u);
  EXPECT_EQ(reg.breaker("a").consecutive_failures, 0u);
}

TEST_F(Registry, ExhaustedLoadRetryStillTripsTheBreaker) {
  namespace fault = vf::util::fault;
  fault::clear();
  RegistryOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_backoff = std::chrono::milliseconds(60000);
  opts.load_retry.attempts = 2;
  opts.load_retry.initial_delay_ms = 1;
  ModelRegistry reg(opts);
  reg.add("a", save_model("a", 1));

  fault::arm("model_read", {fault::Mode::Error, 0, -1});  // persistent
  EXPECT_THROW((void)reg.resolve("a"), std::runtime_error);
  fault::clear();
  EXPECT_EQ(reg.breaker("a").state, BreakerState::Open);
  EXPECT_EQ(reg.stats().load_failures, 1u);  // one failure, not per-attempt
}

}  // namespace
