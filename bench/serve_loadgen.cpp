// serve_loadgen — open-loop SLO load generator for the sharded serve tier.
//
// Spins up an in-process ShardRouter (hurricane scene, paper-architecture
// model, several session keys so the hash ring spreads load) and drives it
// with a Poisson arrival process that is *detached from completions*: the
// generator schedules each arrival at an absolute time drawn from the
// exponential inter-arrival distribution and submits at that instant (or
// immediately, in a burst, when it has fallen behind) whether or not
// earlier requests have finished. Closed-loop clients slow down when the
// server does and so hide queueing collapse (coordinated omission); the
// open-loop design keeps offering load, so saturation shows up where it
// belongs — in the latency tail and the shed count.
//
// Latency is measured from the request's *intended arrival time* to
// completion, so scheduler lag on the generator side counts against the
// server, not for it. Shed requests (queue-full backpressure) are dropped,
// never retried — an open-loop generator must not convert sheds into rate
// reduction.
//
// Three measured stages:
//
//   saturate   per shard count in --shards-sweep: arrivals far above
//              capacity; completed q/s approximates tier capacity. The
//              ratio capacity(max shards)/capacity(1) is
//              `serve_shard_scaling` (the PR's >=3x acceptance demo).
//   slo        max shards at ~50% of measured capacity (bounded by
//              --rate): p50/p99/p999 and the fraction of requests
//              answered within --slo-ms (`serve_slo_attainment`);
//              `serve_open_loop_p99_headroom` = slo_ms / p99_ms is the
//              gated, higher-is-better form.
//   wire       server-side codec cost, same query shape through both
//              codecs: ndjson parse_request + render_json vs VFW1
//              decode_request_frame + encode_response_frame.
//              `serve_wire_speedup` = binary ops/s over ndjson ops/s.
//
//   serve_loadgen [--rate 4000] [--duration-ms 1500] [--points 4]
//                 [--slo-ms 50] [--shards-sweep 1,4] [--sessions 8]
//                 [--wire-iters 20000] [--out FILE]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/core/model.hpp"
#include "vf/data/registry.hpp"
#include "vf/obs/obs.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/serve/router.hpp"
#include "vf/serve/wire.hpp"
#include "vf/util/cli.hpp"
#include "vf/util/mutex.hpp"
#include "vf/util/rng.hpp"

namespace {

using vf::field::Vec3;
using vf::serve::RouterOptions;
using vf::serve::ShardRouter;
using Clock = std::chrono::steady_clock;

struct OpenLoopResult {
  double seconds = 0.0;       ///< generation window (not including drain)
  std::uint64_t offered = 0;  ///< arrivals scheduled
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;    ///< queue-full refusals (dropped, open-loop)
  std::uint64_t missed = 0;  ///< answered deadline_exceeded
  std::vector<double> latencies_ms;  ///< intended-arrival -> completion
};

/// One in-flight request awaiting harvest.
struct Pending {
  std::future<vf::serve::PointResponse> future;
  Clock::time_point intended;
};

/// Drive `router` open-loop at `rate` arrivals/sec for `duration`.
/// Arrivals rotate across `keys`; two harvester threads pull completed
/// futures so the generator never blocks on a slow request.
OpenLoopResult run_open_loop(ShardRouter& router,
                             const std::vector<std::string>& keys,
                             double rate, std::chrono::milliseconds duration,
                             int points, const Vec3& lo, const Vec3& hi,
                             std::uint64_t seed) {
  OpenLoopResult r;
  // vf-lint: allow(unannotated-guard) guards function-locals below
  vf::util::Mutex mu{"bench.loadgen.harvest"};
  vf::util::CondVar cv;
  std::deque<Pending> inflight;
  bool done = false;

  // vf-lint: allow(unannotated-guard) guards the latency sample below
  vf::util::Mutex lat_mu{"bench.loadgen.latency"};
  std::vector<double> latencies;
  std::atomic<std::uint64_t> missed{0};

  std::vector<std::thread> harvesters;
  for (int h = 0; h < 2; ++h) {
    harvesters.emplace_back([&] {
      for (;;) {
        Pending p;
        {
          vf::util::MutexLock lock(mu);
          while (inflight.empty() && !done) cv.wait(mu);
          if (inflight.empty()) return;
          p = std::move(inflight.front());
          inflight.pop_front();
        }
        const auto resp = p.future.get();
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      p.intended)
                .count();
        if (resp.status == vf::serve::Status::DeadlineExceeded) {
          missed.fetch_add(1, std::memory_order_relaxed);
        }
        vf::util::MutexLock lock(lat_mu);
        latencies.push_back(ms);
      }
    });
  }

  vf::util::Rng rng(seed);
  std::vector<Vec3> pts(static_cast<std::size_t>(points));
  const auto t0 = Clock::now();
  const auto t_end = t0 + duration;
  auto next = t0;
  std::size_t key_at = 0;
  while (next < t_end) {
    // Absolute-time pacing: a late generator submits immediately (burst
    // catch-up) instead of silently stretching the schedule.
    if (Clock::now() < next) std::this_thread::sleep_until(next);
    for (auto& p : pts) {
      p = {rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
           rng.uniform(lo.z, hi.z)};
    }
    ++r.offered;
    auto future = router.submit(keys[key_at], pts);
    key_at = (key_at + 1) % keys.size();
    if (future) {
      ++r.accepted;
      vf::util::MutexLock lock(mu);
      inflight.push_back({std::move(*future), next});
      cv.notify_one();
    } else {
      ++r.shed;
    }
    // Exponential inter-arrival: Poisson process at `rate`.
    const double u = std::min(rng.uniform(0.0, 1.0), 0.999999999);
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - u) / rate));
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  {
    vf::util::MutexLock lock(mu);
    done = true;
    cv.notify_all();
  }
  for (auto& t : harvesters) t.join();
  r.missed = missed.load();
  r.latencies_ms = std::move(latencies);
  return r;
}

/// q-th percentile (q in [0,1]) of an unsorted latency sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Build a router over `shards` shards and bind every key to the shared
/// scene. Per-shard workers stay at the ServiceOptions default (2) so a
/// shard is the unit of scaling.
std::unique_ptr<ShardRouter> make_tier(std::size_t shards,
                                       const std::vector<std::string>& keys,
                                       const vf::sampling::SampleCloud& cloud,
                                       const std::string& model_path) {
  RouterOptions ropts;
  ropts.shards = shards;
  ropts.shard.queue_max = 4096;
  auto router = std::make_unique<ShardRouter>(ropts);
  for (const auto& key : keys) router->add_session(key, cloud, model_path);
  return router;
}

}  // namespace

int main(int argc, char** argv) {
  const vf::util::Cli cli(argc, argv);
  const double rate = std::max(1, cli.get_int("rate", 4000));
  const int duration_ms = std::max(50, cli.get_int("duration-ms", 1500));
  const int points = std::max(1, cli.get_int("points", 4));
  const double slo_ms = std::max(1, cli.get_int("slo-ms", 50));
  const int n_sessions = std::max(1, cli.get_int("sessions", 8));
  const int wire_iters = std::max(100, cli.get_int("wire-iters", 20000));
  const std::string out = cli.get("out", "serve_loadgen.json");

  std::vector<std::size_t> sweep;
  {
    const std::string spec = cli.get("shards-sweep", "1,4");
    std::size_t at = 0;
    while (at < spec.size()) {
      std::size_t end = spec.find(',', at);
      if (end == std::string::npos) end = spec.size();
      const int n = std::atoi(spec.substr(at, end - at).c_str());
      if (n > 0) sweep.push_back(static_cast<std::size_t>(n));
      at = end + 1;
    }
    if (sweep.empty()) sweep.push_back(1);
    std::sort(sweep.begin(), sweep.end());
  }

  vf::obs::set_enabled(false);  // measure the serving path, not the probes

  // One shared scene: hurricane 48x48x12 at 2% importance samples, and a
  // paper-architecture model saved where every shard's registry can load
  // it. Several session keys share it so the ring spreads arrivals.
  auto ds = vf::data::make_dataset("hurricane");
  const auto truth = ds->generate({48, 48, 12}, 24.0);
  vf::sampling::ImportanceSampler sampler;
  const auto cloud = sampler.sample(truth, 0.02, 1);
  const auto model_dir =
      std::filesystem::temp_directory_path() / "vf_serve_loadgen";
  std::filesystem::create_directories(model_dir);
  const std::string model_path = (model_dir / "model.vfmd").string();
  // The full-width network is what makes per-request inference expensive
  // enough for batching and sharding to matter.
  auto model = vf::bench::paper_arch_model(vf::core::kTargetDimScalar);
  model.dataset = "serve-loadgen";
  model.save(model_path);

  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(n_sessions));
  for (int i = 0; i < n_sessions; ++i) {
    // Appended: `"t" + to_string(i)` trips GCC 12's false -Wrestrict.
    keys.emplace_back("t");
    keys.back() += std::to_string(i);
  }

  const auto bounds = truth.grid().bounds();
  const Vec3 lo = bounds.min;
  const Vec3 hi = bounds.max;
  const auto duration = std::chrono::milliseconds(duration_ms);

  vf::obs::BenchRecorder rec("serve_loadgen");

  // -- Stage 1: saturation sweep. Offered load far above capacity (the
  // configured rate is a floor, x8 to guarantee overload); completed q/s
  // under sustained overload approximates tier capacity.
  std::vector<double> capacity(sweep.size(), 0.0);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    auto router = make_tier(sweep[i], keys, cloud, model_path);
    const auto r = run_open_loop(*router, keys, rate * 8.0, duration, points,
                                 lo, hi, 1000 + i);
    const double completed =
        static_cast<double>(r.latencies_ms.size());
    capacity[i] = r.seconds > 0.0 ? completed / r.seconds : 0.0;
    vf::obs::BenchPhase phase;
    phase.name = "saturate_" + std::to_string(sweep[i]) + "shard";
    phase.wall_seconds = r.seconds;
    phase.items = completed;
    rec.add_phase(phase);
    std::printf("saturate %zu shard(s): %8.1f q/s completed "
                "(%llu offered, %llu shed)\n",
                sweep[i], capacity[i],
                static_cast<unsigned long long>(r.offered),
                static_cast<unsigned long long>(r.shed));
  }
  const double scaling =
      capacity.front() > 0.0 ? capacity.back() / capacity.front() : 0.0;

  // -- Stage 2: SLO run at max shards, offered at half the measured
  // capacity (bounded by --rate) so the tail reflects service time and
  // queueing slack, not deliberate overload.
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double attainment = 0.0;
  {
    const double slo_rate =
        std::min(rate, std::max(100.0, 0.5 * capacity.back()));
    auto router = make_tier(sweep.back(), keys, cloud, model_path);
    const auto r = run_open_loop(*router, keys, slo_rate, duration, points,
                                 lo, hi, 2000);
    p50 = percentile(r.latencies_ms, 0.50);
    p99 = percentile(r.latencies_ms, 0.99);
    p999 = percentile(r.latencies_ms, 0.999);
    std::uint64_t within = 0;
    for (const double ms : r.latencies_ms) {
      if (ms <= slo_ms) ++within;
    }
    attainment = r.offered > 0
                     ? static_cast<double>(within) /
                           static_cast<double>(r.offered)
                     : 0.0;
    vf::obs::BenchPhase phase;
    phase.name = "slo";
    phase.wall_seconds = r.seconds;
    phase.items = static_cast<double>(r.latencies_ms.size());
    rec.add_phase(phase);
    std::printf("slo @ %.0f q/s, %zu shard(s): p50 %.2fms p99 %.2fms "
                "p999 %.2fms, %.1f%% within %.0fms "
                "(%llu shed, %llu deadline-missed)\n",
                slo_rate, sweep.back(), p50, p99, p999, 100.0 * attainment,
                slo_ms, static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.missed));
  }

  // -- Stage 3: server-side wire codec cost, identical query through both
  // codecs. The ndjson side pays parse + per-value formatting; the binary
  // side pays frame validation + two bulk memcpys.
  double ndjson_ops = 0.0;
  double binary_ops = 0.0;
  {
    namespace wire = vf::serve::wire;
    wire::Request req;
    req.id = 7;
    req.key = keys.front();
    vf::util::Rng rng(3000);
    for (int i = 0; i < points; ++i) {
      req.points.push_back({rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                            rng.uniform(lo.z, hi.z)});
    }
    vf::serve::PointResponse presp;
    presp.status = vf::serve::Status::Ok;
    presp.values.assign(req.points.size(), 1014.2915);
    presp.batch_points = static_cast<std::uint32_t>(req.points.size());
    const wire::Response resp = wire::make_query_response(req.id, presp);

    // ndjson: render the request line once (client side), then measure the
    // server's parse + response render.
    std::string line = "{\"id\": 7, \"key\": \"" + req.key +
                       "\", \"points\": [";
    for (std::size_t i = 0; i < req.points.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s[%.12g, %.12g, %.12g]",
                    i == 0 ? "" : ", ", req.points[i].x, req.points[i].y,
                    req.points[i].z);
      line += buf;
    }
    line += "]}";
    volatile std::size_t sink = 0;
    {
      const auto t0 = Clock::now();
      for (int i = 0; i < wire_iters; ++i) {
        wire::Request parsed;
        std::string error;
        if (!wire::parse_request(line, parsed, error)) return 1;
        sink = sink + wire::render_json(resp).size();
      }
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      ndjson_ops = s > 0.0 ? wire_iters / s : 0.0;
      vf::obs::BenchPhase phase;
      phase.name = "wire_ndjson";
      phase.wall_seconds = s;
      phase.items = wire_iters;
      rec.add_phase(phase);
    }
    const std::string frame = wire::encode_request_frame(req);
    {
      const auto t0 = Clock::now();
      for (int i = 0; i < wire_iters; ++i) {
        wire::Request parsed;
        std::string error;
        std::size_t consumed = 0;
        if (wire::decode_request_frame(frame, consumed, parsed, error) !=
            wire::FrameStatus::Ok) {
          return 1;
        }
        sink = sink + wire::encode_response_frame(resp).size();
      }
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      binary_ops = s > 0.0 ? wire_iters / s : 0.0;
      vf::obs::BenchPhase phase;
      phase.name = "wire_binary";
      phase.wall_seconds = s;
      phase.items = wire_iters;
      rec.add_phase(phase);
    }
    std::printf("wire: ndjson %8.0f ops/s, binary %8.0f ops/s "
                "(%.2fx, sink %zu)\n",
                ndjson_ops, binary_ops,
                ndjson_ops > 0.0 ? binary_ops / ndjson_ops : 0.0, sink);
  }

  rec.set_metric("serve_open_loop_queries_per_second", capacity.back());
  rec.set_metric("serve_shard_scaling", scaling);
  rec.set_metric("serve_p50_ms", p50);
  rec.set_metric("serve_p99_ms", p99);
  rec.set_metric("serve_p999_ms", p999);
  rec.set_metric("serve_slo_attainment", attainment);
  rec.set_metric("serve_open_loop_p99_headroom",
                 p99 > 0.0 ? slo_ms / p99 : 0.0);
  rec.set_metric("serve_wire_ndjson_ops_per_second", ndjson_ops);
  rec.set_metric("serve_wire_binary_ops_per_second", binary_ops);
  rec.set_metric("serve_wire_speedup",
                 ndjson_ops > 0.0 ? binary_ops / ndjson_ops : 0.0);
  rec.write(out);
  std::printf("shard scaling %zu->%zu: %.2fx  (wrote %s)\n", sweep.front(),
              sweep.back(), scaling, out.c_str());
  std::filesystem::remove_all(model_dir);
  return 0;
}
