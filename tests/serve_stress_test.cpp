// Serving-layer stress suites for the delicate concurrent paths audited in
// the concurrency-contracts pass (DESIGN.md §11): ModelRegistry
// resolve/evict/re-register churn under eviction pressure, RequestQueue
// shutdown while producers and consumers are mid-flight, and a one-shard
// ShardRouter stopped under load — each with the runtime lock-order
// detector armed in Log mode, so any acquisition-order inversion the churn
// uncovers fails the test instead of deadlocking a future schedule. TSan
// covers the same suites via the sanitize label.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "vf/core/fcnn.hpp"
#include "vf/core/model.hpp"
#include "vf/serve/queue.hpp"
#include "vf/serve/registry.hpp"
#include "vf/serve/router.hpp"
#include "vf/util/fault.hpp"
#include "vf/util/lock_order.hpp"

namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using vf::field::Vec3;
using vf::sampling::SampleCloud;
using vf::serve::Admission;
using vf::serve::ModelRegistry;
using vf::serve::PointRequest;
using vf::serve::PointResponse;
using vf::serve::RegistryOptions;
using vf::serve::RequestQueue;
using vf::serve::RouterOptions;
using vf::serve::ShardRouter;
namespace lockorder = vf::util::lockorder;

vf::core::FcnnModel tiny_model(unsigned seed) {
  vf::core::FcnnModel model;
  model.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(vf::core::kFeatureDim), {16, 8},
      static_cast<std::size_t>(vf::core::kTargetDimScalar), seed);
  model.in_norm.mean.assign(vf::core::kFeatureDim, 0.0);
  model.in_norm.stddev.assign(vf::core::kFeatureDim, 1.0);
  model.out_norm.mean.assign(vf::core::kTargetDimScalar, 0.0);
  model.out_norm.stddev.assign(vf::core::kTargetDimScalar, 1.0);
  model.with_gradients = false;
  model.dataset = "stress-test";
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

/// Temp model dir + armed lock-order detector: every suite doubles as a
/// no-false-positive check over the real serve/obs lock nesting.
class ServeStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vf_serve_stress_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::create_directories(dir_);
    // Hermetic against env-armed failpoints (the chaos CI lane exports
    // VF_FAULT_* process-wide): these suites drive the registry's raw
    // resolve() from threads that deliberately do not catch, so an
    // injected load fault would escape and terminate the process.
    vf::util::fault::clear();
    lockorder::reset();
    lockorder::set_action(lockorder::Action::Log);
    lockorder::set_enabled(true);
  }
  void TearDown() override {
    // The production lock hierarchy must stay acyclic under churn.
    EXPECT_EQ(lockorder::cycle_count(), 0u);
    for (const auto& report : lockorder::cycle_reports()) {
      ADD_FAILURE() << report;
    }
    lockorder::set_enabled(false);
    lockorder::reset();
    vf::util::fault::reload_env();
    fs::remove_all(dir_);
  }

  std::string save_model(const std::string& name, unsigned seed) {
    const std::string path = (dir_ / (name + ".vfmd")).string();
    tiny_model(seed).save(path);
    return path;
  }

  fs::path dir_;
};

TEST_F(ServeStressTest, RegistryResolveEvictRegisterChurn) {
  // max_models=1 forces an eviction on nearly every cross-key resolve, so
  // eight threads hammer exactly the resolve/evict/re-register interleaving
  // where single-flight loads, generation checks, and LRU bookkeeping must
  // hold together.
  RegistryOptions opts;
  opts.max_models = 1;
  ModelRegistry reg(opts);
  const std::vector<std::string> keys = {"a", "b", "c"};
  std::vector<std::string> paths;
  paths.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    paths.push_back(save_model(keys[i], static_cast<unsigned>(i + 1)));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) reg.add(keys[i], paths[i]);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 60;
  std::atomic<std::uint64_t> resolved{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t k =
            static_cast<std::size_t>(t + i) % keys.size();
        if (t == 0 && i % 10 == 5) {
          // Re-register mid-churn: in-flight loads of the old registration
          // must discard their results instead of installing them.
          reg.add(keys[k], paths[k]);
          continue;
        }
        // A resolve can race a concurrent add() of the same key; its own
        // load still succeeds (same valid file), so any exception here is
        // a real defect.
        auto model = reg.resolve(keys[k]);
        ASSERT_NE(model, nullptr);
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(resolved.load(), 0u);
  const auto stats = reg.stats();
  EXPECT_EQ(stats.load_failures, 0u);
  EXPECT_LE(stats.resident_models, opts.max_models);
  // hits + loads undercounts resolves: single-flight sharers return the
  // leader's result without bumping either, and a load superseded by a
  // concurrent add() is handed to waiters but never installed/counted.
  EXPECT_LE(stats.hits + stats.loads, resolved.load());
  EXPECT_GT(stats.hits + stats.loads, 0u);
  // Three keys through a one-model cache: evictions must have happened.
  EXPECT_GT(stats.evictions, 0u);
}

TEST_F(ServeStressTest, QueueShutdownUnderLoadResolvesEveryAcceptedRequest) {
  RequestQueue queue(64);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;

  std::vector<std::future<PointResponse>> accepted;
  std::atomic<std::uint64_t> served{0};
  vf::util::Mutex accepted_mu("test.accepted");

  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<PointRequest> batch;
      while (queue.pop_batch(batch, 32)) {
        for (auto& req : batch) {
          PointResponse resp;
          resp.values.assign(req.points.size(), 0.0);
          served.fetch_add(req.points.size(), std::memory_order_relaxed);
          req.reply.fulfill(std::move(resp));
        }
      }
    });
  }

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 80; ++i) {
        PointRequest req;
        // Two session keys exercise the coalescer's same-key claim path
        // (spelled without operator+ to dodge a GCC 12 -Wrestrict false
        // positive on literal + to_string).
        req.key = (p % 2 == 0) ? "k0" : "k1";
        req.points.assign(3, Vec3{0.5, 0.5, 0.5});
        auto future = req.reply.get_future();
        if (queue.push(req) == Admission::Accepted) {
          const vf::util::MutexLock lock(accepted_mu);
          accepted.push_back(std::move(future));
        }
        // Shed requests keep ownership of their promise; dropping them
        // here is exactly what a backing-off client does.
      }
    });
  }
  for (auto& t : producers) t.join();

  // Shutdown races the consumers mid-drain: pops must flush the whole
  // backlog before returning false, never strand an accepted request.
  queue.shutdown();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(queue.depth(), 0u);
  // Post-shutdown pushes are refused.
  PointRequest late;
  late.key = "k0";
  late.points.assign(1, Vec3{0.1, 0.2, 0.3});
  EXPECT_EQ(queue.push(late), Admission::ShuttingDown);

  // Every accepted future resolves with a value — no broken promises, no
  // hangs (a stranded request would block get() forever and trip the test
  // timeout).
  for (auto& f : accepted) {
    const PointResponse resp = f.get();
    EXPECT_EQ(resp.values.size(), 3u);
  }
  EXPECT_EQ(served.load(), 3u * accepted.size());
}

TEST_F(ServeStressTest, ServiceStopUnderConcurrentClients) {
  RouterOptions ropts;
  auto& opts = ropts.shard;
  opts.workers = 4;
  opts.queue_max = 32;
  opts.batch_max_points = 64;
  ShardRouter service(ropts);
  service.add_session("t0", test_cloud(), save_model("t0", 7));

  std::atomic<bool> stop_clients{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      while (!stop_clients.load(std::memory_order_relaxed)) {
        auto future = service.submit(
            "t0", {Vec3{1.5, 2.5, 0.5}, Vec3{3.0, 3.0, 1.0}});
        if (!future) continue;  // shed or shutting down: back off
        try {
          const PointResponse resp = future->get();
          EXPECT_EQ(resp.values.size(), 2u);
          answered.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::future_error&) {
          // The lifecycle guarantee (DESIGN.md §12): an accepted request
          // always gets a terminal answer, even through stop() racing
          // live producers. A broken promise is a bug, full stop.
          ADD_FAILURE() << "accepted request abandoned (broken promise)";
        }
      }
    });
  }

  std::this_thread::sleep_for(50ms);
  stop_clients.store(true);
  service.stop();  // drains workers while clients may still be submitting
  for (auto& t : clients) t.join();

  EXPECT_GT(answered.load(), 0u);
  const auto stats = service.stats().total;
  EXPECT_GE(stats.accepted, answered.load());
  EXPECT_EQ(service.queue_depth(), 0u);  // stop() drained the backlog
}

}  // namespace
