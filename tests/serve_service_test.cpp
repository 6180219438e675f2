// The single-instance server — a one-shard ShardRouter — end to end:
// micro-batched point serving, session binding, concurrent clients,
// same-session requests queued behind a busy worker sharing one batch, load
// shedding, per-request and default deadlines (dead-on-arrival and
// queue-side expiry), graceful drain, the classical fallback on model-load
// failure, hot swaps under a quantized policy, and clean shutdown (TSan via
// the sanitize label).

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
#include "vf/serve/router.hpp"
#include "vf/util/fault.hpp"

namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using vf::field::Vec3;
using vf::sampling::SampleCloud;
using vf::serve::RouterOptions;
using vf::serve::ServiceOptions;
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
  model.dataset = "service-test";
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

/// A one-shard tier whose shard runs `shard`: the single-instance server.
RouterOptions one_shard(const ServiceOptions& shard) {
  RouterOptions ropts;
  ropts.shard = shard;
  return ropts;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Hermetic against env-armed failpoints (the chaos lane arms
    // model_read and serve_infer process-wide): a classical answer is no
    // model's, and the busy-worker cases arm model_read themselves.
    vf::util::fault::clear();
    dir_ = fs::temp_directory_path() /
           ("vf_service_test_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::create_directories(dir_);
    model_path_ = (dir_ / "model.vfmd").string();
    tiny_model().save(model_path_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    vf::util::fault::reload_env();
  }

  /// One worker that stays busy on its first batch for at least 150 ms, so
  /// requests submitted meanwhile queue behind it: that batch's model load
  /// fails once and is retried after a 300 ms backoff, which the router's
  /// per-shard jitter draws from [150, 300] ms. Submit the first request
  /// for a session that the rest of the test does not query.
  static ServiceOptions busy_worker() {
    ServiceOptions opts;
    opts.workers = 1;
    opts.registry.load_retry.attempts = 2;
    opts.registry.load_retry.initial_delay_ms = 300;
    vf::util::fault::arm("model_read", {vf::util::fault::Mode::Error, 0, 1});
    return opts;
  }

  fs::path dir_;
  std::string model_path_;
};

TEST_F(ServiceTest, ServesPointQueriesAgainstABoundSession) {
  ShardRouter service;
  service.add_session("t0", test_cloud(), model_path_);
  EXPECT_TRUE(service.has_session("t0"));
  EXPECT_FALSE(service.has_session("t1"));

  auto resp = service.query("t0", {{1.5, 2.5, 0.5}, {4.0, 1.0, 1.0}});
  ASSERT_EQ(resp.values.size(), 2u);
  for (double v : resp.values) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(resp.fallback.empty());
  EXPECT_GE(resp.batch_points, 2u);

  auto stats = service.stats().total;
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.served_points, 2u);
  EXPECT_EQ(stats.registry.loads, 1u);
}

TEST_F(ServiceTest, UnknownSessionKeyThrows) {
  ShardRouter service;
  EXPECT_THROW((void)service.submit("nope", {{0, 0, 0}}),
               std::invalid_argument);
}

TEST_F(ServiceTest, CoalescesConcurrentSameSessionRequests) {
  ShardRouter service(one_shard(busy_worker()));
  service.add_session("a", test_cloud(), model_path_);
  service.add_session("t0", test_cloud(), model_path_);

  // Both "t0" requests queue while the only worker is busy with "a".
  auto fa = service.submit("a", {{1, 1, 1}});
  auto f1 = service.submit("t0", {{1, 1, 1}});
  auto f2 = service.submit("t0", {{2, 2, 1}});
  ASSERT_TRUE(fa && f1 && f2);
  auto r1 = f1->get();
  auto r2 = f2->get();
  // Both rode one micro-batch: each response saw the combined point count.
  EXPECT_EQ(r1.batch_points, 2u);
  EXPECT_EQ(r2.batch_points, 2u);
  EXPECT_EQ(fa->get().batch_points, 1u);
  // One batch for "a", then one that carried both "t0" requests.
  EXPECT_EQ(service.stats().total.batches, 2u);
}

TEST_F(ServiceTest, ConcurrentClientsAllServed) {
  ServiceOptions opts;
  opts.workers = 3;
  opts.queue_max = 10000;
  ShardRouter service(one_shard(opts));
  service.add_session("t0", test_cloud(), model_path_);

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 20;
  std::atomic<std::size_t> total_points{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &total_points, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const std::size_t n = 1 + static_cast<std::size_t>((c + i) % 4);
        std::vector<Vec3> pts(n, Vec3{0.5 + i * 0.01, 1.0 + c * 0.1, 0.5});
        auto resp = service.query("t0", pts);
        ASSERT_EQ(resp.values.size(), n);
        for (double v : resp.values) ASSERT_TRUE(std::isfinite(v));
        total_points.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();

  auto stats = service.stats().total;
  EXPECT_EQ(stats.accepted,
            static_cast<std::uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(stats.served_points, total_points.load());
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.accepted);
  EXPECT_EQ(stats.registry.loads, 1u);  // one model shared by every batch
}

TEST_F(ServiceTest, ShedsLoadWhenTheQueueIsFull) {
  ServiceOptions opts = busy_worker();
  opts.queue_max = 1;
  ShardRouter service(one_shard(opts));
  service.add_session("a", test_cloud(), model_path_);
  service.add_session("b", test_cloud(), model_path_);

  std::vector<std::future<vf::serve::PointResponse>> accepted;
  std::size_t shed = 0;
  auto first = service.submit("a", {{1, 1, 1}});
  if (first) accepted.push_back(std::move(*first));
  // While the worker is busy with key "a", key-"b" requests can only
  // queue — the second and later must hit the 1-deep admission limit.
  for (int i = 0; i < 4; ++i) {
    auto f = service.submit("b", {{2, 2, 1}});
    if (f) {
      accepted.push_back(std::move(*f));
    } else {
      ++shed;
    }
  }
  EXPECT_GE(shed, 3u);  // at most one "b" fits the bounded queue
  EXPECT_EQ(service.stats().total.shed, shed);

  // Every accepted request is still served to completion.
  for (auto& f : accepted) {
    auto resp = f.get();
    EXPECT_EQ(resp.values.size(), 1u);
  }
}

TEST_F(ServiceTest, FallsBackToClassicalWhenTheModelCannotLoad) {
  ShardRouter service;
  service.add_session("t0", test_cloud(), (dir_ / "missing.vfmd").string());

  auto resp = service.query("t0", {{1.0, 1.0, 1.0}, {3.0, 2.0, 1.0}});
  ASSERT_EQ(resp.values.size(), 2u);
  EXPECT_EQ(resp.fallback, "classical");
  EXPECT_EQ(resp.degraded, 2u);
  for (double v : resp.values) EXPECT_TRUE(std::isfinite(v));
  // The classical estimate at an exact sample position is the sample value.
  EXPECT_NEAR(resp.values[0], std::sin(0.3) + 0.2 - 0.1, 1e-9);

  auto stats = service.stats().total;
  EXPECT_GE(stats.fallback_batches, 1u);
  EXPECT_EQ(stats.degraded_points, 2u);
  EXPECT_EQ(stats.registry.load_failures, 1u);
}

TEST_F(ServiceTest, AddSessionRejectsACloudTooSmallForFeatures) {
  ShardRouter service;
  // Fewer than kNeighbors usable samples must fail at bind time instead
  // of blowing up feature extraction inside a worker on the first query.
  SampleCloud tiny({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}, {1.0, 2.0, 3.0});
  EXPECT_THROW(service.add_session("t0", tiny, model_path_),
               std::invalid_argument);
  EXPECT_FALSE(service.has_session("t0"));
}

TEST_F(ServiceTest, DegradesToClassicalWhenTheModelIsIncompatible) {
  // Loadable file, wrong feature width: the registry must reject it at
  // resolve time and the batch must fall back classically — previously
  // Normalizer::apply threw inside the worker and terminated the process.
  auto bad = tiny_model();
  bad.in_norm.mean.assign(vf::core::kFeatureDim + 2, 0.0);
  bad.in_norm.stddev.assign(vf::core::kFeatureDim + 2, 1.0);
  const std::string bad_path = (dir_ / "incompatible.vfmd").string();
  bad.save(bad_path);

  ShardRouter service;
  service.add_session("t0", test_cloud(), bad_path);
  auto resp = service.query("t0", {{1.0, 1.0, 1.0}});
  ASSERT_EQ(resp.values.size(), 1u);
  EXPECT_EQ(resp.fallback, "classical");
  EXPECT_TRUE(std::isfinite(resp.values[0]));
  EXPECT_GE(service.stats().total.registry.load_failures, 1u);
}

TEST_F(ServiceTest, RebindingASessionReplacesIt) {
  ShardRouter service;
  service.add_session("t0", test_cloud(), model_path_);
  (void)service.query("t0", {{1, 1, 1}});

  // Rebind with a fresh cloud and the same model path; queries keep working.
  service.add_session("t0", test_cloud(), model_path_);
  auto resp = service.query("t0", {{2, 2, 1}});
  EXPECT_EQ(resp.values.size(), 1u);
}

TEST_F(ServiceTest, StopIsIdempotentAndRefusesLateWork) {
  auto service = std::make_unique<ShardRouter>();
  service->add_session("t0", test_cloud(), model_path_);
  (void)service->query("t0", {{1, 1, 1}});
  service->stop();
  service->stop();  // idempotent

  // Post-stop submissions are refused as shed, not deadlocked.
  EXPECT_EQ(service->submit("t0", {{1, 1, 1}}), std::nullopt);
  EXPECT_THROW((void)service->query("t0", {{1, 1, 1}}), vf::serve::OverloadedError);
  service.reset();  // destructor after explicit stop must be safe
}

// --- per-request deadlines --------------------------------------------------

TEST_F(ServiceTest, AlreadyExpiredDeadlineNeverReachesInference) {
  ShardRouter service;
  service.add_session("t0", test_cloud(), model_path_);

  auto f = service.submit("t0", {{1, 1, 1}},
                          std::chrono::steady_clock::now() - 1ms);
  ASSERT_TRUE(f);
  // Resolved on the spot: the request never touched the queue, the
  // registry, or inference.
  ASSERT_EQ(f->wait_for(0s), std::future_status::ready);
  EXPECT_EQ(f->get().status, Status::DeadlineExceeded);
  const auto stats = service.stats().total;
  EXPECT_EQ(stats.accepted, 1u);  // answered, so counted like any other
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.registry.loads, 0u);
}

TEST_F(ServiceTest, QueuedRequestPastItsDeadlineIsExpiredNotServed) {
  ShardRouter service(one_shard(busy_worker()));
  service.add_session("a", test_cloud(), model_path_);
  service.add_session("b", test_cloud(), model_path_);

  auto fa = service.submit("a", {{1, 1, 1}});
  ASSERT_TRUE(fa);
  // Queued behind the busy worker with a deadline far inside its 150 ms
  // or more of work: by the time the worker frees up, the queue must
  // expire this request instead of serving stale data.
  auto fb = service.submit("b", {{2, 2, 1}},
                           std::chrono::steady_clock::now() + 25ms);
  ASSERT_TRUE(fb);
  EXPECT_EQ(fb->get().status, Status::DeadlineExceeded);
  EXPECT_EQ(fa->get().status, Status::Ok);
  EXPECT_GE(service.stats().total.expired, 1u);
}

TEST_F(ServiceTest, DefaultDeadlineExpiresAQueuedRequest) {
  // QueuedRequestPastItsDeadlineIsExpiredNotServed, with the deadline
  // coming from ServiceOptions::default_deadline instead of the caller.
  ServiceOptions opts = busy_worker();
  opts.default_deadline = 25ms;
  ShardRouter service(one_shard(opts));
  service.add_session("a", test_cloud(), model_path_);
  service.add_session("b", test_cloud(), model_path_);

  // An explicit deadline takes precedence over the default.
  auto fa = service.submit("a", {{1, 1, 1}},
                           std::chrono::steady_clock::now() + 60s);
  ASSERT_TRUE(fa);
  auto fb = service.submit("b", {{2, 2, 1}});
  ASSERT_TRUE(fb);
  EXPECT_EQ(fb->get().status, Status::DeadlineExceeded);
  EXPECT_EQ(fa->get().status, Status::Ok);
  EXPECT_GE(service.stats().total.expired, 1u);
}

TEST_F(ServiceTest, GenerousDeadlinesAreServedNormally) {
  ShardRouter service;
  service.add_session("t0", test_cloud(), model_path_);
  auto f = service.submit("t0", {{1, 1, 1}},
                          std::chrono::steady_clock::now() + 60s);
  ASSERT_TRUE(f);
  const auto resp = f->get();
  EXPECT_EQ(resp.status, Status::Ok);
  ASSERT_EQ(resp.values.size(), 1u);
  EXPECT_TRUE(std::isfinite(resp.values[0]));
  EXPECT_EQ(service.stats().total.expired, 0u);
}

// --- graceful drain ---------------------------------------------------------

TEST_F(ServiceTest, BeginDrainRefusesAdmissionButServesTheBacklog) {
  ShardRouter service(one_shard(busy_worker()));
  service.add_session("a", test_cloud(), model_path_);
  service.add_session("t0", test_cloud(), model_path_);

  auto busy = service.submit("a", {{1, 1, 1}});
  auto backlog = service.submit("t0", {{1, 1, 1}});
  ASSERT_TRUE(busy && backlog);
  EXPECT_GE(service.queue_depth(), 1u);  // queued behind "a"
  service.begin_drain();
  EXPECT_TRUE(service.draining());
  EXPECT_EQ(service.submit("t0", {{2, 2, 1}}), std::nullopt);
  EXPECT_EQ(service.stats().total.drain_rejects, 1u);

  // The already-admitted request still completes, inside the budget.
  EXPECT_TRUE(service.drain(10s));
  EXPECT_EQ(backlog->get().status, Status::Ok);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST_F(ServiceTest, DrainNeverOrphansARequestEvenOnABlownBudget) {
  ServiceOptions opts = busy_worker();  // a backlog builds behind "a"
  opts.queue_max = 64;
  ShardRouter service(one_shard(opts));
  service.add_session("a", test_cloud(), model_path_);
  service.add_session("b", test_cloud(), model_path_);

  std::vector<std::future<vf::serve::PointResponse>> futures;
  auto first = service.submit("a", {{1, 1, 1}});
  ASSERT_TRUE(first);
  futures.push_back(std::move(*first));
  for (int i = 0; i < 4; ++i) {
    auto f = service.submit("b", {{2, 2, 1}});
    if (f) futures.push_back(std::move(*f));
  }

  // Zero budget: whatever has not drained by "now" is shed as Draining —
  // but every accepted request still gets exactly one terminal answer.
  (void)service.drain(0ms);
  for (auto& f : futures) {
    const auto resp = f.get();
    EXPECT_TRUE(resp.status == Status::Ok || resp.status == Status::Draining)
        << "code " << static_cast<int>(resp.status);
  }
  EXPECT_EQ(service.queue_depth(), 0u);
}

// --- hot swap under a quantized policy -------------------------------------

TEST_F(ServiceTest, HotSwapNeverServesTheSupersededQuantizedModel) {
  // Re-registering a key drops its resident model, and the reload often
  // lands on the freed model's address. A worker's cached quantized copy
  // must follow the model it was built from, not that address.
  auto other = tiny_model();
  other.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(vf::core::kFeatureDim), {16, 8},
      static_cast<std::size_t>(vf::core::kTargetDimScalar), 11);
  const std::string other_path = (dir_ / "other.vfmd").string();
  other.save(other_path);
  const std::vector<std::string> paths = {model_path_, other_path};
  const std::vector<Vec3> probe = {{1.5, 2.5, 0.5}};

  for (const auto policy :
       {vf::nn::QuantPolicy::Int8, vf::nn::QuantPolicy::Fp16}) {
    SCOPED_TRACE(vf::nn::to_string(policy));
    ServiceOptions opts;
    opts.workers = 1;
    opts.quant = policy;
    // Each model's answer from a tier that only ever held that model.
    std::vector<double> want;
    for (const auto& path : paths) {
      ShardRouter fresh(one_shard(opts));
      fresh.add_session("t", test_cloud(), path);
      want.push_back(fresh.query("t", probe).values.at(0));
    }
    ASSERT_NE(want[0], want[1]);

    ShardRouter service(one_shard(opts));
    for (std::size_t swap = 0; swap < 200; ++swap) {
      service.add_session("t", test_cloud(), paths[swap % 2]);
      const auto resp = service.query("t", probe);
      ASSERT_EQ(resp.values.size(), 1u);
      EXPECT_EQ(resp.values[0], want[swap % 2]) << "swap " << swap;
    }
  }
}

}  // namespace
