// insitu — the paper's live loop through vf::api::Pipeline.
//
// Set-up: the pipeline at its defaults on ionization (32x32x16, 5 %
// archive, 10 epochs per step, 1 fine-tune worker, 1 shard with 2 serve
// workers), started: step 0 pretrains and publishes the first model.
// It streams until stopped instead of its default 8 steps, so the window
// decides how many steps run. Its threads share the run's one CPU.
//
// Timed loop (closed): step() ingests the next timestep, then the loop
// waits for that step's publish (the on_step callback) before the next
// step, like a simulation that blocks on its in-situ stage. Meanwhile a
// low-rate open-loop stream of point queries reads the live session.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "host.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "vf/api/pipeline.hpp"
#include "vf/api/reconstruct.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/nn/trainer.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/mutex.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Background reads: rate (queries/s) and points per query.
constexpr double kReadRate = 100.0;
constexpr std::size_t kReadPoints = 4;
/// snr_db averages the first kSnrSteps steps of the window; the loop runs
/// at least that many so the value repeats exactly at one seed.
constexpr std::size_t kSnrSteps = 24;
/// A step not published within this long counts as failed.
constexpr std::chrono::seconds kStepTimeout{60};

/// Publishes seen by the on_step callback (a fine-tune worker thread).
class StepLog {
 public:
  struct Entry {
    Clock::time_point at;
    double snr_db = 0.0;
    bool published = false;
    bool classical = false;
  };

  void add(const vf::pipeline::StepReport& r) {
    {
      const vf::util::MutexLock lock(mu_);
      entries_[r.step] = {Clock::now(), r.model_snr_db, r.published,
                          r.classical};
    }
    cv_.notify_all();
  }

  /// Wait until step `step` is logged, `failed()` turns true, or timeout.
  /// `failed` runs without this log's lock held.
  std::optional<Entry> wait(int step, const std::function<bool()>& failed) {
    const auto deadline = Clock::now() + kStepTimeout;
    for (;;) {
      {
        const vf::util::MutexLock lock(mu_);
        if (const auto it = entries_.find(step); it != entries_.end()) {
          return it->second;
        }
        if (Clock::now() >= deadline) return std::nullopt;
        cv_.wait_for(mu_, std::chrono::milliseconds(50));
        if (const auto it = entries_.find(step); it != entries_.end()) {
          return it->second;
        }
      }
      if (failed()) return std::nullopt;
    }
  }

 private:
  vf::util::Mutex mu_{"perfbench.steplog"};
  vf::util::CondVar cv_;
  std::map<int, Entry> entries_ VF_GUARDED_BY(mu_);
};

vf::api::PipelineConfig pipeline_config(const Args& args,
                                        const std::string& workdir,
                                        StepLog& log) {
  vf::api::PipelineConfig cfg;  // defaults: ionization 32x32x16, 5 %, ...
  cfg.with_workdir(workdir)
      .with_seed(derive_seed(args.seed, "insitu.pipeline"))
      .with_max_steps(0);
  cfg.t0 = static_cast<double>(
      pick_timesteps(derive_seed(args.seed, "insitu.t0"), 1, 100).front());
  cfg.on_step = [&log](const vf::pipeline::StepReport& r) { log.add(r); };
  return cfg;
}

}  // namespace

void run_insitu(const Args& args, Tracer& tracer, Report& report) {
  StepLog log;
  int rep = 0;
  // Set-up: construct and start the pipeline (step-0 pretrain and first
  // publish) in a fresh work directory, then answer one warm query.
  const auto start = [&](StepLog& steps) {
    const std::string dir = args.workdir + "/rep" + std::to_string(rep++);
    fresh_dir(dir);
    auto p = std::make_unique<vf::api::Pipeline>(
        pipeline_config(args, dir, steps));
    p->start();
    const auto warm = p->query({{0.5, 0.5, 0.5}});
    if (warm.status != vf::serve::Status::Ok) {
      throw std::runtime_error("insitu: warm-up query failed");
    }
    return p;
  };
  SetupTimer setup;
  std::unique_ptr<vf::api::Pipeline> pipe;
  setup.time([&] { pipe = start(log); });
  reset_peak_rss();

  const auto& cfg = pipe->config();
  const auto ds = vf::data::make_dataset(cfg.dataset, cfg.seed);
  const auto box = ds->grid_for(cfg.dims).bounds();

  // Background reads on their own thread for the window; a query sent
  // after a new generation went live is tagged (its first reply after a
  // hot swap pays the registry load).
  std::uint64_t seen_generation = pipe->generation();
  const auto tag = [&]() {
    const std::uint64_t g = pipe->generation();
    const bool first = g != seen_generation;
    seen_generation = g;
    return first;
  };
  LoadGen reads(pipe->router(), {cfg.session_key}, tracer, tag);
  QueryStream qs(derive_seed(args.seed, "insitu.reads"), 1, 0.0, box,
                 kReadPoints);
  PhaseResult read_result;
  std::jthread reader([&] {
    read_result = reads.open_loop(qs, kReadRate, args.seconds);
  });

  // Closed step loop. In a traced run every other step carries spans.
  const auto served_before = pipe->stats().serve.total;
  std::vector<double> step_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> ingest_ms;
  std::vector<double> snr;
  const auto w0 = Clock::now();
  std::size_t published = 0;
  const int failures_before = pipe->stats().train_failures;
  for (int step = 1;; ++step) {
    if (seconds_since(w0) >= args.seconds && snr.size() >= kSnrSteps) break;
    const bool traced = tracer.enabled() && step % 2 == 0;
    const std::uint64_t root = traced ? tracer.open("pipeline.step") : 0;
    const auto t0 = Clock::now();
    (void)pipe->step();
    const auto t1 = Clock::now();
    if (traced) tracer.record("pipeline.ingest", t0, t1, root);
    ingest_ms.push_back(ms_between(t0, t1));
    report.attempt();
    const auto entry = log.wait(step, [&] {
      return pipe->stats().train_failures > failures_before;
    });
    if (!entry || !entry->published || entry->classical) {
      report.fail("insitu: step " + std::to_string(step) +
                  " was not published by the model");
      if (traced) tracer.close(root, t0, Clock::now());
      if (!entry) break;  // the stream is stuck; stop stepping
      continue;
    }
    if (traced) tracer.close(root, t0, entry->at);
    const double ms = ms_between(t0, entry->at);
    step_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (snr.size() < kSnrSteps) snr.push_back(entry->snr_db);
    ++published;
  }
  reader.join();
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Each step starts when the previous one published, so published steps
  // per second is one over their typical time, the median (as for grid).
  const double step_p50 = median(step_ms);
  report.set("latency_p50_ms", step_p50, "ms", step_ms.size());
  report.set("throughput_per_s", step_p50 > 0.0 ? 1e3 / step_p50 : 0.0, "1/s",
             step_ms.size());
  report.set("snr_db", mean(snr), "dB", snr.size());
  report.check(snr.size() == kSnrSteps, "insitu: fewer than " +
                                            std::to_string(kSnrSteps) +
                                            " steps published");

  // Reads: every accepted query answered exactly once, none shed.
  read_result.report_to(report);

  const auto stats = pipe->stats();
  report.set("pipeline.ingest_ms", median(ingest_ms), "ms", ingest_ms.size());
  report.set("pipeline.read_latency_p50_ms",
             percentile(read_result.latency_ms, 0.5), "ms",
             read_result.latency_ms.size());
  report.set("pipeline.swap_first_query_ms", median(read_result.tagged_ms),
             "ms", read_result.tagged_ms.size());
  report.set("pipeline.steps_coalesced", stats.steps_coalesced, "count");
  report.set("pipeline.train_failures", stats.train_failures, "count");
  report.set("pipeline.refinetunes", stats.refinetunes, "count");
  report.set("pipeline.fallbacks", stats.fallbacks, "count");
  if (stats.train_failures > failures_before) {
    report.fail("insitu: " +
                std::to_string(stats.train_failures - failures_before) +
                " fine-tunes failed");
  }
  const double batch =
      report_serve(served_before, stats.serve.total, read_result, report);

  if (!tracer.enabled()) {
    pipe.reset();  // the remaining set-ups run alone
    setup.repeat(args.setup_reps, [&] {
      StepLog steps;
      (void)start(steps);
    });
    setup.report_to(report);
    return;
  }

  // Traced run: replay one step outside-in with the pipeline's settings,
  // at the pipeline's thread count, against the newest published model.
  pipe->drain();
  const auto base = pipe->model();
  const double t_next = cfg.t0 + cfg.stride * static_cast<double>(published + 1);
  const auto in = replay_inputs(*ds, cfg.dims, t_next, cfg.sample_fraction,
                                derive_seed(args.seed, "insitu.replay"), tracer);
  report.set("data.generate_ms", in.generate_ms, "ms");
  report.set("sampling.sample_ms", in.sample_ms, "ms");
  const Frame frame = make_frame(*ds, cfg.dims, t_next, cfg.sample_fraction,
                                 derive_seed(args.seed, "insitu.replay"));

  vf::core::FcnnConfig ft;  // the pipeline's training settings
  ft.hidden = cfg.hidden;
  ft.max_train_rows = cfg.max_train_rows;
  ft.seed = cfg.seed;
  const vf::sampling::ImportanceSampler sampler;
  const auto fine_tune = [&](const std::string& ckpt, const char* span) {
    auto model = base->clone();
    auto c = ft;
    c.checkpoint_dir = ckpt;
    const auto t0 = Clock::now();
    (void)vf::core::fine_tune(model, frame.truth, sampler, c,
                              vf::core::FineTuneMode::FullNetwork,
                              cfg.epochs_per_step);
    const auto t1 = Clock::now();
    tracer.record(span, t0, t1);
    return std::chrono::duration<double>(t1 - t0).count();
  };
  const std::string ckpt = args.workdir + "/replay_ckpt";
  fresh_dir(ckpt);
  const double tune_s = fine_tune(ckpt, "core.fine_tune");
  const double tune_nockpt_s = fine_tune("", "core.fine_tune_nockpt");
  report.set("core.fine_tune_s", tune_s, "s");
  report.set("core.fine_tune_nockpt_s", tune_nockpt_s, "s");

  // One epoch of Trainer::fit on the step's rows, at one thread and at
  // every CPU: the plain single-threaded baseline of the training layer.
  {
    auto set = vf::core::build_training_set(frame.truth, sampler, ft);
    base->in_norm.apply(set.X);
    base->out_norm.apply(set.Y);
    vf::nn::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = ft.batch_size;
    const vf::nn::Trainer trainer(topt);
    const int threads = omp_get_max_threads();
    const auto epoch = [&](int n, const char* span) {
      omp_set_num_threads(n);
      auto net = base->net.clone();
      const auto t0 = Clock::now();
      (void)trainer.fit(net, set.X, set.Y);
      const auto t1 = Clock::now();
      tracer.record(span, t0, t1);
      return std::chrono::duration<double>(t1 - t0).count();
    };
    report.set("nn.train_epoch_s", epoch(1, "nn.train_epoch"), "s");
    // The nproc baseline runs on every CPU, not on the run's one.
    unpin_cpus();
    report.set("nn.train_epoch_nproc_s",
               epoch(cpu_count(), "nn.train_epoch_nproc"), "s");
    (void)pin_to_one_cpu();
    omp_set_num_threads(threads);
  }

  // The step's two scored reconstructions, the model save and the publish.
  auto t0 = Clock::now();
  {
    vf::api::ReconstructOptions ro;
    ro.method = vf::api::Method::FcnnStream;
    ro.model = base.get();
    vf::api::Reconstructor fcnn(ro);
    (void)fcnn.reconstruct(frame.cloud, frame.truth.grid());
    vf::api::ReconstructOptions co;
    co.method = vf::api::Method::Shepard;
    vf::api::Reconstructor shepard(co);
    (void)shepard.reconstruct(frame.cloud, frame.truth.grid());
  }
  auto t1 = Clock::now();
  tracer.record("pipeline.evaluate", t0, t1);
  const double evaluate_ms = ms_between(t0, t1);
  report.set("pipeline.evaluate_ms", evaluate_ms, "ms");
  const auto io = replay_model_io(*base, args.workdir, 5, tracer);
  report.set("core.model_save_ms", io.save_ms, "ms", 5);
  report.set("core.model_load_ms", io.load_ms, "ms", 5);
  const std::string model_path = args.workdir + "/replay_model.vfmd";
  t0 = Clock::now();
  pipe->router().add_session("replay", frame.cloud, model_path);
  t1 = Clock::now();
  tracer.record("pipeline.publish", t0, t1);
  const double publish_ms = ms_between(t0, t1);
  report.set("pipeline.publish_ms", publish_ms, "ms");
  report.set("serve.session_bind_ms", publish_ms, "ms");
  t0 = Clock::now();
  const auto first = pipe->router().query("replay", {{0.5, 0.5, 0.5}});
  t1 = Clock::now();
  tracer.record("pipeline.first_query", t0, t1);
  report.check(first.status == vf::serve::Status::Ok,
               "insitu: replayed publish answered no query");

  // The serve tier's and the grid path's layers at this model's shapes.
  const auto pts = replay_points(
      *base, frame.cloud,
      static_cast<std::size_t>(std::max(1.0, std::round(batch))),
      derive_seed(args.seed, "insitu.points"), tracer);
  report_point_split(pts, report);
  report_request_spans(tracer, pts.predict_points_us, report);
  t0 = Clock::now();
  {
    vf::api::ReconstructOptions ro;
    ro.model = base.get();
    vf::api::Reconstructor single(ro);
    (void)single.reconstruct(frame.cloud, frame.truth.grid());
  }
  t1 = Clock::now();
  tracer.record("api.reconstruct_1t", t0, t1);
  report.set("api.grid_single_thread_s",
             std::chrono::duration<double>(t1 - t0).count(), "s");
  const GridSplit split = replay_grid(*base, frame, tracer);
  const SpatialSplit sp = replay_spatial(frame, tracer);
  report_grid_split(split, report);
  report.set("spatial.index_build_ms", split.index_build_ms, "ms");
  report.set("spatial.knn_batch_ms", sp.knn_batch_ms, "ms");

  // Coverage: the replayed stages of one step against the traced steps'
  // median latency (the first query runs after the publish, off the path).
  const double stages_ms = in.generate_ms + in.sample_ms + tune_s * 1e3 +
                           evaluate_ms + io.save_ms + publish_ms;
  const double traced_step = median(traced_ms);
  const double coverage = traced_step > 0.0 ? stages_ms / traced_step : 0.0;
  report.set("trace.coverage", coverage, "ratio", traced_ms.size());
  report.set("trace.overhead", median(traced_ms) / median(untraced_ms), "ratio",
             traced_ms.size());
  report.check(coverage >= 1.0 - kMaxUnaccounted,
               "insitu: replayed stages leave " +
                   std::to_string((1.0 - coverage) * 100.0) +
                   "% of a traced step unaccounted");
}

}  // namespace perfbench
