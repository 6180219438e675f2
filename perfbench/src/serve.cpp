// serve_hot and serve_campaign — point queries through the serve tier.
//
// Both build an in-process ShardRouter with the `vfctl serve` defaults
// (1 shard, 2 workers, fp64, queue_max 256, 4 resident models) over
// hurricane sessions at the bench scale, each session with its own cloud
// and model file, and drive it with LoadGen (wire bytes in, reply bytes
// out) in two closed-loop phases:
//
//   latency phase   one query outstanding: an analyst who waits for each
//                   answer before the next probe
//   capacity phase  a fixed number of queries outstanding (below
//                   queue_max, so none is shed); answered queries per
//                   second is the tier's capacity
//
// serve_hot binds 2 sessions and picks between them uniformly: the
// registry always hits. serve_campaign binds 16 sessions (four times the
// resident limit) and draws keys from a seeded Zipf distribution, so the
// registry's miss path and LRU eviction are on the critical path.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "host.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "vf/api/reconstruct.hpp"
#include "vf/data/registry.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/serve/router.hpp"
#include "vf/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Query shape: points per request.
constexpr std::size_t kQueryPoints = 4;
constexpr std::size_t kHotSessions = 2;
constexpr std::size_t kCampaignSessions = 16;
/// Zipf exponent of serve_campaign's key distribution, an assumption
/// (NOTES.md, "Fixed rates").
constexpr double kZipfExponent = 0.8;
/// Queries kept outstanding in the capacity phase (queue_max is 256).
constexpr std::size_t kOutstanding = 64;
/// Share of the window given to the latency phase; the rest measures
/// capacity.
constexpr double kLatencyShare = 0.6;
/// Closed-loop warm-up queries run in set-up after each session's first
/// query, so scratch buffers and (for the campaign) the LRU set are in
/// their steady state before timing.
constexpr std::size_t kHotWarmup = 1000;
constexpr std::size_t kCampaignWarmup = 200;
/// Void grid nodes of each session's evaluation query (snr_db), at most
/// one batch.
constexpr std::size_t kEvalPoints = 512;
/// Tolerance of the reference check (LoadGen keeps every 97th answer).
constexpr double kCheckTolerance = 1e-9;

struct Session {
  std::string key;
  Frame frame;
  std::string model_path;
};

struct Tier {
  std::vector<Session> sessions;
  std::unique_ptr<vf::serve::ShardRouter> router;
  std::size_t workers = 0;  ///< serve worker threads over every shard
  double bind_ms = 0.0;     ///< mean add_session time
};

std::vector<std::string> keys(const Tier& tier) {
  std::vector<std::string> out;
  for (const auto& s : tier.sessions) out.push_back(s.key);
  return out;
}

Tier make_tier(const Args& args, bool campaign, const vf::data::Dataset& ds,
               Tracer& tracer, Report& report) {
  const std::string w = campaign ? "serve_campaign" : "serve_hot";
  const std::size_t n = campaign ? kCampaignSessions : kHotSessions;
  Tier tier;
  const auto dims = hurricane_dims(ds);
  // Sessions spread evenly over the series from a seeded start, so every
  // seed covers early and late storm alike (NOTES.md, seed-dependent
  // quality).
  const int limit = ds.timestep_count();
  const int spacing = limit / static_cast<int>(n);
  const auto steps =
      pick_timesteps(derive_seed(args.seed, w + ".timesteps"),
                     static_cast<int>(n), limit, spacing);
  std::printf("%s: hurricane timesteps %d..%d, %d apart\n", w.c_str(),
              steps.front(), steps.back(), spacing);
  for (std::size_t i = 0; i < n; ++i) {
    Session s;
    s.key = "s";
    s.key += std::to_string(i);
    s.frame = make_frame(ds, dims, steps[i], kSceneFraction,
                         derive_seed(args.seed, w + ".sample." + std::to_string(i)));
    s.model_path = args.workdir + "/" + s.key + ".vfmd";
    tier.sessions.push_back(std::move(s));
  }
  // serve_hot trains each session's model on its own timestep. Sixteen
  // trainings would dominate the campaign's set-up, so it trains one model
  // and saves it once per session: every session still loads its own
  // file. That model serves timesteps up to 24 away, and how well it
  // extrapolates swung snr_db by a third between training shuffles and
  // training timesteps, so it is the same on every run: trained on the
  // series' middle timestep with a fixed shuffle stream (NOTES.md,
  // seed-dependent quality).
  const vf::sampling::ImportanceSampler sampler;
  if (campaign) {
    const auto model =
        vf::core::pretrain(ds.generate(dims, static_cast<double>(limit / 2)),
                           sampler,
                           scene_train_config(derive_seed(0, w + ".train")))
            .model;
    for (const auto& s : tier.sessions) model.save(s.model_path);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      vf::core::pretrain(tier.sessions[i].frame.truth, sampler,
                         scene_train_config(derive_seed(
                             args.seed, w + ".train." + std::to_string(i))))
          .model.save(tier.sessions[i].model_path);
    }
  }

  vf::serve::RouterOptions ropts;  // the vfctl serve defaults
  tier.router = std::make_unique<vf::serve::ShardRouter>(ropts);
  tier.workers = ropts.shards * ropts.shard.workers;
  std::vector<double> bind_ms;
  for (const auto& s : tier.sessions) {
    const auto t0 = Clock::now();
    tier.router->add_session(s.key, s.frame.cloud, s.model_path);
    const auto t1 = Clock::now();
    tracer.record("serve.add_session", t0, t1);
    bind_ms.push_back(ms_between(t0, t1));
  }
  tier.bind_ms = mean(bind_ms);

  // Warm every session with one query (its model load), then drive a
  // fixed closed-loop warm-up so the timed phases start in steady state.
  QueryStream warm(derive_seed(args.seed, w + ".warmup"), n,
                   campaign ? kZipfExponent : 0.0,
                   tier.sessions.front().frame.truth.grid().bounds(),
                   kQueryPoints);
  for (const auto& s : tier.sessions) {
    const auto resp = tier.router->query(s.key, warm.next_points());
    if (resp.status != vf::serve::Status::Ok) {
      throw std::runtime_error("serve: warm-up query failed for " + s.key);
    }
  }
  LoadGen gen(*tier.router, keys(tier), tracer);
  const auto warmed = gen.closed_loop(warm, Phase::Warmup, kOutstanding, 0.0,
                                      campaign ? kCampaignWarmup : kHotWarmup);
  warmed.report_to(report);
  return tier;
}

}  // namespace

void run_serve(const Args& args, bool campaign, Tracer& tracer,
               Report& report) {
  const std::string w = campaign ? "serve_campaign" : "serve_hot";
  const auto ds = vf::data::make_dataset("hurricane");
  SetupTimer setup;
  Tier tier;
  setup.time([&] { tier = make_tier(args, campaign, *ds, tracer, report); });
  report.set("serve.session_bind_ms", tier.bind_ms, "ms", tier.sessions.size());
  reset_peak_rss();

  const std::size_t n = tier.sessions.size();
  const auto box = tier.sessions.front().frame.truth.grid().bounds();
  QueryStream qs(derive_seed(args.seed, w + ".queries"), n,
                 campaign ? kZipfExponent : 0.0, box, kQueryPoints);
  const auto before = tier.router->stats();
  PhaseResult lat;
  PhaseResult cap;
  LoadGen::Split split;
  std::vector<Checked> checked;
  // The capacity phase's serve counters, for the trace coverage.
  vf::serve::RouterStats cap_before;
  {
    LoadGen gen(*tier.router, keys(tier), tracer);
    lat = gen.closed_loop(qs, Phase::Latency, 1, args.seconds * kLatencyShare,
                          0);
    cap_before = tier.router->stats();
    cap = gen.closed_loop(qs, Phase::Capacity, kOutstanding,
                          args.seconds * (1.0 - kLatencyShare), 0);
    checked = gen.take_checked();
    split = gen.split();
  }
  const auto after = tier.router->stats();
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  lat.report_to(report);
  cap.report_to(report);

  // Capacity is the median of the capacity phase's 0.5-s slice rates, so a
  // host stall over a few slices does not move it.
  report.set("latency_p50_ms", percentile(lat.latency_ms, 0.5), "ms",
             lat.latency_ms.size());
  report.set("throughput_per_s", median(cap.slice_rates), "1/s",
             cap.slice_rates.size());
  // Quality, after the window: every session answers one query of
  // kEvalPoints seeded void grid nodes of its timestep, scored against
  // Dataset::evaluate there. snr_db is the mean over sessions, so which
  // sessions the key stream favours does not move it, and every session's
  // SNR rests on as many points.
  std::vector<double> session_snr;
  {
    vf::util::Rng pick(derive_seed(args.seed, w + ".eval"));
    for (const auto& s : tier.sessions) {
      const auto voids = s.frame.cloud.void_indices();
      std::vector<vf::field::Vec3> pts;
      for (std::size_t i = 0; i < kEvalPoints; ++i) {
        pts.push_back(s.frame.truth.grid().position(
            voids[pick.below(static_cast<std::uint32_t>(voids.size()))]));
      }
      const auto resp = tier.router->query(s.key, pts);
      const bool ok = resp.status == vf::serve::Status::Ok &&
                      resp.values.size() == pts.size();
      report.check(ok, "serve: evaluation query failed on " + s.key);
      if (!ok) continue;
      SnrAccumulator acc;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        acc.add(ds->evaluate(pts[i], s.frame.t), resp.values[i]);
      }
      session_snr.push_back(acc.db());
    }
  }
  report.set("snr_db", mean(session_snr), "dB", n * kEvalPoints);

  const auto& b = before.total;
  const auto& a = after.total;
  const double batch = report_serve(b, a, lat, report);
  if (a.degraded_points > b.degraded_points) {
    report.fail("serve: " +
                std::to_string(a.degraded_points - b.degraded_points) +
                " points answered degraded");
  }

  // Reference check of the kept subset: the same points through
  // reconstruct_points on the session's cloud and model file.
  {
    std::vector<std::unique_ptr<vf::api::Reconstructor>> refs(n);
    for (const auto& c : checked) {
      auto& ref = refs[c.session];
      if (!ref) {
        vf::api::ReconstructOptions o;
        o.method = vf::api::Method::FcnnStream;
        o.model_path = tier.sessions[c.session].model_path;
        o.engine.index = vf::spatial::IndexKind::KdTree;
        ref = std::make_unique<vf::api::Reconstructor>(o);
      }
      const auto want =
          ref->reconstruct_points(tier.sessions[c.session].frame.cloud,
                                  c.points);
      bool same = want.values.size() == c.values.size();
      for (std::size_t i = 0; same && i < c.values.size(); ++i) {
        same = std::abs(c.values[i] - want.values[i]) <=
               kCheckTolerance * std::max(1.0, std::abs(want.values[i]));
      }
      report.check(same, "serve: answer differs from reconstruct_points on " +
                             tier.sessions[c.session].key);
    }
  }

  if (!tracer.enabled()) {
    tier = Tier{};  // the remaining set-ups run alone
    setup.repeat(args.setup_reps, [&] {
      (void)make_tier(args, campaign, *ds, tracer, report);
    });
    setup.report_to(report);
    return;
  }

  // Traced run: per-request spans from the latency phase, plus replays of
  // the calls the serve workers make, at one thread as the workers run.
  const auto model = vf::core::FcnnModel::load(tier.sessions.front().model_path);
  const Frame& f = tier.sessions.front().frame;
  const auto pts = replay_points(
      model, f.cloud, static_cast<std::size_t>(std::max(1.0, std::round(batch))),
      derive_seed(args.seed, w + ".replay"), tracer);
  report_point_split(pts, report);
  report_request_spans(tracer, pts.predict_points_us, report);
  const auto sp = replay_spatial(f, tracer);
  report.set("spatial.index_build_ms", sp.index_build_ms, "ms");
  report.set("spatial.knn_batch_ms", sp.knn_batch_ms, "ms");
  const auto io = replay_model_io(model, args.workdir, 5, tracer);
  report.set("core.model_save_ms", io.save_ms, "ms", 5);
  report.set("core.model_load_ms", io.load_ms, "ms", 5);
  const auto in = replay_inputs(*ds, hurricane_dims(*ds), f.t, kSceneFraction,
                                derive_seed(args.seed, w + ".sample.0"), tracer);
  report.set("data.generate_ms", in.generate_ms, "ms");
  report.set("sampling.sample_ms", in.sample_ms, "ms");

  // Coverage: the workers' CPU time over the capacity phase (the process's
  // less the generator thread's) should be what the replayed layer calls
  // account for: predict_points at the phase's mean batch for each batch,
  // on sessions drawn as the phase drew its keys, and a model load per
  // registry load. The rest is serve-tier work no layer span covers
  // (queueing, coalescing, routing, registry lookups, replies).
  const auto& cb = cap_before.total;
  const std::uint64_t cap_batches = a.batches - cb.batches;
  const double cap_batch =
      cap_batches == 0 ? 1.0
                       : static_cast<double>(a.served_points - cb.served_points) /
                             static_cast<double>(cap_batches);
  std::vector<vf::core::FcnnModel> models;
  for (const auto& s : tier.sessions) {
    models.push_back(vf::core::FcnnModel::load(s.model_path));
  }
  std::vector<ReplaySession> sessions;
  for (std::size_t i = 0; i < n; ++i) {
    sessions.push_back({&models[i], &tier.sessions[i].frame.cloud});
  }
  const std::size_t rows =
      static_cast<std::size_t>(std::max(1.0, std::round(cap_batch)));
  QueryStream replay_keys(derive_seed(args.seed, w + ".replay.capacity"), n,
                          campaign ? kZipfExponent : 0.0, box, kQueryPoints);
  // About as many point rows as two seconds of the capacity phase serve,
  // so the replay sees the host much as the phase did.
  std::vector<std::size_t> replay_order(std::max<std::size_t>(1000, 100000 / rows));
  for (auto& k : replay_order) k = replay_keys.next_session();
  const double cap_predict_us =
      replay_predict_us(sessions, replay_order, rows,
                        derive_seed(args.seed, w + ".replay.points"), tracer);
  const double replayed_s =
      static_cast<double>(cap_batches) * cap_predict_us * 1e-6 +
      static_cast<double>(a.registry.loads - cb.registry.loads) * io.load_ms *
          1e-3;
  const double cap_worker_cpu_s = cap.cpu_s - cap.generator_cpu_s;
  const double coverage =
      cap_worker_cpu_s > 0.0 ? replayed_s / cap_worker_cpu_s : 0.0;
  std::printf("%s: capacity phase: %llu batches of %.1f points; the %zu "
              "workers ran %.0f %% of %.2f s; replayed layers %.3f s of their "
              "%.3f CPU s\n",
              w.c_str(), static_cast<unsigned long long>(cap_batches),
              cap_batch, tier.workers, 100.0 * cap_worker_cpu_s / cap.wall_s,
              cap.wall_s, replayed_s, cap_worker_cpu_s);
  report.set("trace.coverage", coverage, "ratio", cap_batches);
  report.set("trace.overhead",
             percentile(split.traced_ms, 0.5) /
                 percentile(split.untraced_ms, 0.5),
             "ratio", split.traced_ms.size());
  report.check(coverage >= 1.0 - kMaxUnaccounted,
               "serve: replayed layers leave " +
                   std::to_string((1.0 - coverage) * 100.0) +
                   "% of the workers' capacity-phase CPU time unaccounted");
}

}  // namespace perfbench
