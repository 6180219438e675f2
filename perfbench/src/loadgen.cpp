#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "host.hpp"
#include "vf/serve/wire.hpp"

namespace perfbench {

namespace wire = vf::serve::wire;
using vf::field::Vec3;

namespace {

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

QueryStream::QueryStream(std::uint64_t seed, std::size_t sessions,
                         double zipf_exponent,
                         const vf::field::BoundingBox& box, std::size_t points)
    : rng_(seed), box_(box), points_(points) {
  double total = 0.0;
  std::vector<double> w(sessions);
  for (std::size_t r = 0; r < sessions; ++r) {
    w[r] = zipf_exponent > 0.0
               ? 1.0 / std::pow(static_cast<double>(r + 1), zipf_exponent)
               : 1.0;
    total += w[r];
  }
  double run = 0.0;
  for (const double x : w) {
    run += x / total;
    cdf_.push_back(run);
  }
  rank_to_session_.resize(sessions);
  for (std::size_t i = 0; i < sessions; ++i) rank_to_session_[i] = i;
  for (std::size_t i = sessions; i > 1; --i) {
    std::swap(rank_to_session_[i - 1],
              rank_to_session_[rng_.below(static_cast<std::uint32_t>(i))]);
  }
}

std::size_t QueryStream::next_session() {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform());
  const auto rank = std::min(static_cast<std::size_t>(it - cdf_.begin()),
                             cdf_.size() - 1);
  return rank_to_session_[rank];
}

std::vector<Vec3> QueryStream::next_points() {
  std::vector<Vec3> pts(points_);
  for (auto& p : pts) {
    p = {rng_.uniform(box_.min.x, box_.max.x),
         rng_.uniform(box_.min.y, box_.max.y),
         rng_.uniform(box_.min.z, box_.max.z)};
  }
  return pts;
}

double QueryStream::next_gap(double rate) {
  const double u = std::min(rng_.uniform(), 0.999999999);
  return -std::log(1.0 - u) / rate;
}

void PhaseResult::report_to(Report& report) const {
  report.attempt(sent);
  if (shed > 0) {
    report.fail("serve: " + std::to_string(shed) + " queries shed", shed);
  }
  for (std::size_t i = 0; i < failed; ++i) {
    report.fail(i < reasons.size() ? reasons[i] : reasons.back());
  }
  report.check(harvested + shed == sent,
               "serve: a query was not answered exactly once");
}

LoadGen::LoadGen(vf::serve::ShardRouter& router, std::vector<std::string> keys,
                 Tracer& tracer, TagFn tag)
    : router_(router),
      keys_(std::move(keys)),
      tracer_(tracer),
      tag_(std::move(tag)) {}

PhaseResult LoadGen::closed_loop(QueryStream& qs, Phase phase,
                                 std::size_t outstanding, double seconds,
                                 std::uint64_t count) {
  begin(phase, seconds,
        count > 0 ? static_cast<std::size_t>(count)
                  : static_cast<std::size_t>(seconds * kClosedLoopRate));
  const auto end = phase_start_ + to_duration(seconds);
  for (std::uint64_t sent = 0;; ++sent) {
    if (count > 0 ? sent >= count : Clock::now() >= end) break;
    while (inflight_.size() >= outstanding) harvest_front();
    const std::size_t s = qs.next_session();
    send(s, qs.next_points(), nullptr);
  }
  return finish();
}

PhaseResult LoadGen::open_loop(QueryStream& qs, double rate, double seconds) {
  const auto expected = static_cast<std::size_t>(rate * seconds * 1.1) + 64;
  begin(Phase::Latency, seconds, expected);
  result_.lag_ms.reserve(expected);
  const auto end = phase_start_ + to_duration(seconds);
  auto due = phase_start_;
  while (due < end) {
    // Collect the replies that arrive before the next send is due.
    while (!inflight_.empty() && inflight_.front().future.wait_until(due) ==
                                     std::future_status::ready) {
      harvest_front();
    }
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const std::size_t s = qs.next_session();
    send(s, qs.next_points(), &due);
    due += to_duration(qs.next_gap(rate));
  }
  return finish();
}

std::vector<Checked> LoadGen::take_checked() { return std::move(checked_); }

void LoadGen::begin(Phase phase, double seconds, std::size_t expected) {
  phase_ = phase;
  result_ = PhaseResult{};
  if (phase == Phase::Latency) result_.latency_ms.reserve(expected);
  slice_done_.assign(
      phase == Phase::Capacity ? static_cast<std::size_t>(seconds / kSlice) : 0,
      0);
  phase_cpu0_ = process_cpu_s();
  phase_thread_cpu0_ = thread_cpu_s();
  phase_start_ = Clock::now();
}

PhaseResult LoadGen::finish() {
  while (!inflight_.empty()) harvest_front();
  result_.wall_s = seconds_since(phase_start_);
  result_.cpu_s = process_cpu_s() - phase_cpu0_;
  result_.generator_cpu_s = thread_cpu_s() - phase_thread_cpu0_;
  // Replies after the window fall past the last slice and are not counted.
  for (const std::uint64_t n : slice_done_) {
    result_.slice_rates.push_back(static_cast<double>(n) / kSlice);
  }
  return std::move(result_);
}

void LoadGen::send(std::size_t s, std::vector<Vec3> points,
                   const Clock::time_point* due) {
  const std::uint64_t id = ++next_id_;
  const bool tagged = tag_ && tag_();
  const bool traced =
      tracer_.enabled() && phase_ == Phase::Latency && id % 2 == 0;
  const std::uint64_t root = traced ? tracer_.open("serve.request", 0, id) : 0;
  const auto t_enc = Clock::now();
  const auto start = due != nullptr ? *due : t_enc;
  wire::Request req;
  req.id = static_cast<std::int64_t>(id);
  req.key = keys_[s];
  req.points = points;
  const std::string frame = wire::encode_request_frame(req);
  const auto t_dec = Clock::now();
  wire::Request parsed;
  std::size_t consumed = 0;
  std::string error;
  const auto st = wire::decode_request_frame(frame, consumed, parsed, error);
  const auto t_sub = Clock::now();
  std::optional<std::future<vf::serve::PointResponse>> fut;
  if (st == wire::FrameStatus::Ok) {
    fut = router_.submit(parsed.key, std::move(parsed.points));
  }
  const auto t_sent = Clock::now();
  if (traced) {
    tracer_.record("wire.request_encode", t_enc, t_dec, root, id);
    tracer_.record("wire.request_decode", t_dec, t_sub, root, id);
    tracer_.record("router.submit", t_sub, t_sent, root, id);
  }
  ++result_.sent;
  if (due != nullptr) result_.lag_ms.push_back(ms_between(*due, t_enc));
  if (st != wire::FrameStatus::Ok || !fut) {
    ++result_.shed;
    if (traced) tracer_.close(root, start, t_sent);
    return;
  }
  inflight_.push_back(Pending{id, s, tagged, std::move(points), start, t_sent,
                              root, std::move(*fut)});
}

void LoadGen::harvest_front() {
  Pending p = std::move(inflight_.front());
  inflight_.pop_front();
  ++result_.harvested;
  try {
    const vf::serve::PointResponse resp = p.future.get();
    const auto t_ready = Clock::now();
    const wire::Response wr =
        wire::make_query_response(static_cast<std::int64_t>(p.id), resp);
    const std::string frame = wire::encode_response_frame(wr);
    const auto t_encoded = Clock::now();
    wire::Response decoded;
    std::size_t consumed = 0;
    std::string error;
    const auto st = wire::decode_response_frame(frame, consumed, decoded, error);
    const auto t_done = Clock::now();
    const bool traced = p.root_span != 0;
    if (traced) {
      tracer_.record("serve.wait", p.submitted, t_ready, p.root_span, p.id);
      tracer_.record("wire.response_encode", t_ready, t_encoded, p.root_span,
                     p.id);
      tracer_.record("wire.response_decode", t_encoded, t_done, p.root_span,
                     p.id);
      tracer_.close(p.root_span, p.start, t_done);
    }
    const bool ok = st == wire::FrameStatus::Ok &&
                    decoded.status == vf::serve::Status::Ok &&
                    decoded.values.size() == p.points.size() &&
                    !decoded.fallback_classical &&
                    std::all_of(decoded.values.begin(), decoded.values.end(),
                                [](double v) { return std::isfinite(v); });
    if (!ok) {
      std::string why = "serve: query ";
      why += std::to_string(p.id);
      why += " answered ";
      why += wire::status_name(decoded.status);
      if (decoded.fallback_classical) why += " by the classical fallback";
      ++result_.failed;
      if (result_.reasons.size() < 8) result_.reasons.push_back(why);
      return;
    }
    if (phase_ == Phase::Capacity) {
      const auto slice = static_cast<std::size_t>(
          std::chrono::duration<double>(t_done - phase_start_).count() /
          kSlice);
      if (slice < slice_done_.size()) ++slice_done_[slice];
    }
    if (phase_ == Phase::Latency) {
      const double latency = ms_between(p.start, t_done);
      result_.latency_ms.push_back(latency);
      if (p.tagged) result_.tagged_ms.push_back(latency);
      if (tracer_.enabled()) {
        (traced ? split_.traced_ms : split_.untraced_ms).push_back(latency);
      }
    }
    if (phase_ != Phase::Warmup && p.id % kCheckEvery == 0) {
      checked_.push_back({p.session, std::move(p.points),
                          std::move(decoded.values)});
    }
  } catch (const std::exception& e) {
    ++result_.failed;
    if (result_.reasons.size() < 8) {
      result_.reasons.push_back(std::string("serve: reply failed: ") +
                                e.what());
    }
  }
}

namespace {

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

double report_serve(const vf::serve::ServiceStats& before,
                    const vf::serve::ServiceStats& after,
                    const PhaseResult& open, Report& report) {
  const auto count = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    report.set(name, static_cast<double>(a - b), "count");
  };
  const std::uint64_t batches = after.batches - before.batches;
  const double batch =
      share(after.served_points - before.served_points, batches);
  report.set("serve.batch_points_mean", batch, "count", batches);
  const std::uint64_t hits = after.registry.hits - before.registry.hits;
  const std::uint64_t loads = after.registry.loads - before.registry.loads;
  report.set("serve.registry_hit_ratio", share(hits, hits + loads), "ratio",
             hits + loads);
  count("serve.registry_loads", after.registry.loads, before.registry.loads);
  count("serve.registry_evictions", after.registry.evictions,
        before.registry.evictions);
  count("serve.shed", after.shed, before.shed);
  count("serve.expired", after.expired, before.expired);
  count("serve.degraded_points", after.degraded_points,
        before.degraded_points);
  count("serve.fallback_batches", after.fallback_batches,
        before.fallback_batches);

  const auto& lat = open.latency_ms;
  report.set("serve.latency_p99_ms", percentile(lat, 0.99), "ms", lat.size());
  report.set("serve.latency_p999_ms", percentile(lat, 0.999), "ms", lat.size());
  report.set("serve.samples", static_cast<double>(lat.size()), "count");
  const auto& lag = open.lag_ms;
  report.set("bench.generator_lag_max_ms",
             lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()),
             "ms", lag.size());
  report.set("bench.generator_lag_p99_ms", percentile(lag, 0.99), "ms",
             lag.size());
  return batch;
}

void report_request_spans(const Tracer& tracer, double predict_points_us,
                          Report& report) {
  const auto totals = tracer.totals();
  const auto mean_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.seconds * 1e6 /
                     static_cast<double>(it->second.count);
  };
  report.set("serve.wire_decode_us", mean_us("wire.request_decode"), "us");
  report.set("serve.wire_encode_us", mean_us("wire.response_encode"), "us");
  report.set("serve.submit_us", mean_us("router.submit"), "us");
  double wait_ms = 0.0;
  if (const auto it = totals.find("serve.wait"); it != totals.end()) {
    wait_ms = percentile(it->second.durations, 0.5) * 1e3;
  }
  report.set("serve.wait_ms", wait_ms, "ms");
  report.set("serve.queue_wait_ms", wait_ms - predict_points_us * 1e-3, "ms");
}

}  // namespace perfbench
