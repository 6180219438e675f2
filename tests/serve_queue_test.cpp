// RequestQueue: admission control (bounded backlog), work-conserving
// same-key micro-batches (a pop takes what is queued, never waits for more,
// and stops at max_points), per-request expiry, shutdown drain semantics,
// shed_all terminal answers, and multi-producer/multi-consumer safety (run
// under TSan via the sanitize label).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "vf/serve/queue.hpp"

namespace {

using namespace std::chrono_literals;
using vf::field::Vec3;
using vf::serve::Admission;
using vf::serve::PointRequest;
using vf::serve::PointResponse;
using vf::serve::RequestQueue;
using vf::serve::Status;

PointRequest make_request(const std::string& key, std::size_t n_points) {
  PointRequest req;
  req.key = key;
  req.points.assign(n_points, Vec3{1.0, 2.0, 3.0});
  return req;
}

TEST(RequestQueue, AdmissionControlShedsBeyondMaxPending) {
  RequestQueue q(2);
  PointRequest a = make_request("k", 1);
  PointRequest b = make_request("k", 1);
  PointRequest c = make_request("k", 1);
  EXPECT_EQ(q.push(a), Admission::Accepted);
  EXPECT_EQ(q.push(b), Admission::Accepted);
  EXPECT_EQ(q.push(c), Admission::QueueFull);
  EXPECT_EQ(q.depth(), 2u);
  // The shed request still owns its reply: the caller can report the shed.
  EXPECT_TRUE(c.reply.fulfill(Status::Overloaded));
}

TEST(RequestQueue, CoalescesQueuedSameKeyRequestsIntoOneBatch) {
  RequestQueue q(16);
  PointRequest a = make_request("k", 2);
  PointRequest b = make_request("k", 3);
  ASSERT_EQ(q.push(a), Admission::Accepted);
  ASSERT_EQ(q.push(b), Admission::Accepted);

  std::vector<PointRequest> batch;
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/64));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].points.size(), 2u);
  EXPECT_EQ(batch[1].points.size(), 3u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueue, SizeFlushReturnsWithoutWaitingOutTheDeadline) {
  RequestQueue q(16);
  PointRequest a = make_request("k", 2);
  PointRequest b = make_request("k", 2);
  PointRequest c = make_request("k", 2);
  ASSERT_EQ(q.push(a), Admission::Accepted);
  ASSERT_EQ(q.push(b), Admission::Accepted);
  ASSERT_EQ(q.push(c), Admission::Accepted);

  // max_points caps the claim: the third request waits for the next pop.
  std::vector<PointRequest> batch;
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/4));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.depth(), 1u);
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/4));
  EXPECT_EQ(batch.size(), 1u);
}

TEST(RequestQueue, PopReturnsWhatIsQueuedWithoutWaiting) {
  RequestQueue q(16);
  PointRequest a = make_request("k", 1);
  ASSERT_EQ(q.push(a), Admission::Accepted);

  // A lone request is served alone, at once: there is no window to wait
  // out for company (the bound is loose only because runners stall).
  const auto start = std::chrono::steady_clock::now();
  std::vector<PointRequest> batch;
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/64));
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueue, SameKeyRequestPushedAfterAPopFormsTheNextBatch) {
  RequestQueue q(16);
  PointRequest a = make_request("k", 1);
  ASSERT_EQ(q.push(a), Admission::Accepted);

  std::vector<PointRequest> first;
  std::thread popper(
      [&] { ASSERT_TRUE(q.pop_batch(first, /*max_points=*/64)); });
  // Push only once the pop has claimed `a`: the pop must not wait for a
  // same-key arrival, so `b` is left for the next batch.
  while (q.depth() > 0) std::this_thread::yield();
  PointRequest b = make_request("k", 2);
  ASSERT_EQ(q.push(b), Admission::Accepted);
  popper.join();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].points.size(), 1u);

  std::vector<PointRequest> next;
  ASSERT_TRUE(q.pop_batch(next, /*max_points=*/64));
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].points.size(), 2u);
}

TEST(RequestQueue, RequestsQueuedWhileNoConsumerPopsFormOneBatch) {
  // The load case: what queues while the workers are busy is served
  // together on the next pop, other keys staying queued in order.
  RequestQueue q(16);
  PointRequest a = make_request("k", 1);
  ASSERT_EQ(q.push(a), Admission::Accepted);
  std::vector<PointRequest> batch;
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/64));
  ASSERT_EQ(batch.size(), 1u);

  // The consumer is busy with `a`; four requests over two keys queue.
  for (const char* key : {"k", "other", "k", "k"}) {
    PointRequest req = make_request(key, 2);
    ASSERT_EQ(q.push(req), Admission::Accepted);
  }
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/64));
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& req : batch) EXPECT_EQ(req.key, "k");
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/64));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].key, "other");
  EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueue, DifferentKeysStayInSeparateBatches) {
  RequestQueue q(16);
  PointRequest a = make_request("alpha", 1);
  PointRequest b = make_request("beta", 1);
  ASSERT_EQ(q.push(a), Admission::Accepted);
  ASSERT_EQ(q.push(b), Admission::Accepted);

  std::vector<PointRequest> batch;
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/64));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].key, "alpha");

  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/64));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].key, "beta");
}

TEST(RequestQueue, OversizedRequestIsTakenWhole) {
  RequestQueue q(16);
  PointRequest a = make_request("k", 100);
  ASSERT_EQ(q.push(a), Admission::Accepted);
  std::vector<PointRequest> batch;
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/8));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].points.size(), 100u);
}

TEST(RequestQueue, ShutdownDrainsBacklogThenRefuses) {
  RequestQueue q(16);
  PointRequest a = make_request("k", 1);
  ASSERT_EQ(q.push(a), Admission::Accepted);
  q.shutdown();

  PointRequest late = make_request("k", 1);
  EXPECT_EQ(q.push(late), Admission::ShuttingDown);
  EXPECT_TRUE(late.reply.fulfill(Status::Draining));

  std::vector<PointRequest> batch;
  EXPECT_TRUE(q.pop_batch(batch, 64));  // drains the backlog
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(q.pop_batch(batch, 64));  // then reports shutdown
}

TEST(RequestQueue, ShutdownWakesABlockedPopper) {
  RequestQueue q(16);
  std::vector<PointRequest> batch;
  std::thread popper([&] { EXPECT_FALSE(q.pop_batch(batch, 64)); });
  std::this_thread::sleep_for(20ms);
  q.shutdown();
  popper.join();
}

// --- request lifecycle: Reply, deadlines, drain -----------------------------

TEST(Reply, AnswersExactlyOnce) {
  vf::serve::Reply reply;
  auto future = reply.get_future();
  EXPECT_FALSE(reply.answered());
  EXPECT_TRUE(reply.fulfill(Status::DeadlineExceeded));
  EXPECT_TRUE(reply.answered());
  // Every later fulfil/fail is an idempotent no-op, not a future_error.
  EXPECT_FALSE(reply.fulfill(PointResponse{}));
  EXPECT_FALSE(reply.fail(
      std::make_exception_ptr(std::runtime_error("late"))));
  EXPECT_EQ(future.get().status, Status::DeadlineExceeded);
}

TEST(Reply, FailDeliversTheExceptionOnce) {
  vf::serve::Reply reply;
  auto future = reply.get_future();
  EXPECT_TRUE(reply.fail(
      std::make_exception_ptr(std::runtime_error("worker died"))));
  EXPECT_FALSE(reply.fulfill(Status::Ok));
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(RequestQueue, ExpireSweepRemovesOnlyExpiredEntries) {
  RequestQueue q(16);
  const auto now = std::chrono::steady_clock::now();
  PointRequest dead = make_request("k", 1);
  dead.deadline = now - 1ms;
  PointRequest live = make_request("k", 1);
  live.deadline = now + 60s;
  PointRequest forever = make_request("k", 1);  // default: no deadline
  auto dead_future = dead.reply.get_future();
  ASSERT_EQ(q.push(dead), Admission::Accepted);
  ASSERT_EQ(q.push(live), Admission::Accepted);
  ASSERT_EQ(q.push(forever), Admission::Accepted);

  EXPECT_EQ(q.expire_sweep(), 1u);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.expired_count(), 1u);
  // The swept request got its terminal answer, not silence.
  EXPECT_EQ(dead_future.get().status, Status::DeadlineExceeded);
  // Sweeping again finds nothing new.
  EXPECT_EQ(q.expire_sweep(), 0u);
}

TEST(RequestQueue, PopBatchSkipsExpiredBacklogAndServesLiveRequests) {
  // A dead backlog must not starve live requests: expired entries are
  // answered during the pop, and the batch holds only live members.
  RequestQueue q(16);
  PointRequest dead = make_request("k", 1);
  dead.deadline = std::chrono::steady_clock::now() - 1ms;
  PointRequest live = make_request("k", 2);
  auto dead_future = dead.reply.get_future();
  ASSERT_EQ(q.push(dead), Admission::Accepted);
  ASSERT_EQ(q.push(live), Admission::Accepted);

  std::vector<PointRequest> batch;
  ASSERT_TRUE(q.pop_batch(batch, /*max_points=*/64));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].points.size(), 2u);
  EXPECT_EQ(dead_future.get().status, Status::DeadlineExceeded);
}

TEST(RequestQueue, ShedAllAnswersEveryQueuedRequestWithTheGivenStatus) {
  RequestQueue q(16);
  PointRequest a = make_request("alpha", 1);
  PointRequest b = make_request("beta", 2);
  auto fa = a.reply.get_future();
  auto fb = b.reply.get_future();
  ASSERT_EQ(q.push(a), Admission::Accepted);
  ASSERT_EQ(q.push(b), Admission::Accepted);

  EXPECT_EQ(q.shed_all(Status::Draining), 2u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(fa.get().status, Status::Draining);
  EXPECT_EQ(fb.get().status, Status::Draining);
  EXPECT_EQ(q.shed_all(Status::Draining), 0u);  // idempotent on empty
}

// Multi-producer / multi-consumer stress: every accepted request is served
// exactly once with the right point count; no request is lost or
// double-served. The sanitize label runs this under TSan.
TEST(RequestQueue, ConcurrentProducersAndConsumersServeEveryRequest) {
  RequestQueue q(10000);
  constexpr int kProducers = 4;
  constexpr int kRequestsPerProducer = 50;

  std::atomic<std::size_t> served_requests{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&q, &served_requests] {
      std::vector<PointRequest> batch;
      while (q.pop_batch(batch, /*max_points=*/16)) {
        for (auto& req : batch) {
          PointResponse resp;
          resp.values.assign(req.points.size(), 1.0);
          req.reply.fulfill(std::move(resp));
          served_requests.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::future<PointResponse>> futures(
      static_cast<std::size_t>(kProducers * kRequestsPerProducer));
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &futures, p] {
      for (int i = 0; i < kRequestsPerProducer; ++i) {
        PointRequest req =
            make_request(p % 2 == 0 ? "even" : "odd",
                         static_cast<std::size_t>(1 + (i % 3)));
        auto future = req.reply.get_future();
        while (q.push(req) != Admission::Accepted) {
          std::this_thread::yield();
        }
        futures[static_cast<std::size_t>(p * kRequestsPerProducer + i)] =
            std::move(future);
      }
    });
  }
  for (auto& t : producers) t.join();
  // Let the consumers drain everything, then stop them.
  while (q.depth() > 0) std::this_thread::sleep_for(1ms);
  q.shutdown();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(served_requests.load(),
            static_cast<std::size_t>(kProducers * kRequestsPerProducer));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto resp = futures[i].get();
    EXPECT_EQ(resp.values.size(), 1 + (i % kRequestsPerProducer) % 3);
  }
}

}  // namespace
