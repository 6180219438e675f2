// vf_perfbench — the repository benchmark.
//
//   vf_perfbench --workload grid|serve_hot|serve_campaign|insitu
//                --seed N --seconds S --trace 0|1
//                [--workdir DIR] [--trace-out FILE]
//
// Prints a human-readable metric table (name, value, unit, samples) and,
// as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (kEndToEnd / kPerLayer below; BENCHMARK.json lists the
// same names). A per-layer metric of a layer the workload does not drive
// reads 0. Any failed output check makes "correct" false; an error that
// stops the run exits non-zero without a JSON line.

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "host.hpp"
#include "vf/obs/metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"snr_db", "dB"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"data.generate_ms", "ms"},
    {"sampling.sample_ms", "ms"},
    {"spatial.index_build_ms", "ms"},
    {"spatial.knn_batch_ms", "ms"},
    {"spatial.knn_us", "us"},
    {"core.features_ms", "ms"},
    {"core.normalize_ms", "ms"},
    {"core.fine_tune_s", "s"},
    {"core.fine_tune_nockpt_s", "s"},
    {"core.model_save_ms", "ms"},
    {"core.model_load_ms", "ms"},
    {"nn.dense1_ms", "ms"},
    {"nn.dense2_ms", "ms"},
    {"nn.dense3_ms", "ms"},
    {"nn.dense1_gflops", "GFLOP/s"},
    {"nn.dense2_gflops", "GFLOP/s"},
    {"nn.dense3_gflops", "GFLOP/s"},
    {"nn.dense1_us", "us"},
    {"nn.dense2_us", "us"},
    {"nn.dense3_us", "us"},
    {"nn.dense4_us", "us"},
    {"nn.dense5_us", "us"},
    {"nn.dense6_us", "us"},
    {"nn.train_epoch_s", "s"},
    {"nn.train_epoch_nproc_s", "s"},
    {"api.predict_points_us", "us"},
    {"api.grid_single_thread_s", "s"},
    {"serve.wire_decode_us", "us"},
    {"serve.wire_encode_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.wait_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.batch_points_mean", "count"},
    {"serve.registry_hit_ratio", "ratio"},
    {"serve.registry_loads", "count"},
    {"serve.registry_evictions", "count"},
    {"serve.session_bind_ms", "ms"},
    {"serve.shed", "count"},
    {"serve.expired", "count"},
    {"serve.degraded_points", "count"},
    {"serve.fallback_batches", "count"},
    {"serve.latency_p99_ms", "ms"},
    {"serve.latency_p999_ms", "ms"},
    {"serve.samples", "count"},
    {"pipeline.ingest_ms", "ms"},
    {"pipeline.evaluate_ms", "ms"},
    {"pipeline.publish_ms", "ms"},
    {"pipeline.swap_first_query_ms", "ms"},
    {"pipeline.read_latency_p50_ms", "ms"},
    {"pipeline.steps_coalesced", "count"},
    {"pipeline.train_failures", "count"},
    {"pipeline.refinetunes", "count"},
    {"pipeline.fallbacks", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"host.steal_share", "ratio"},
    {"bench.generator_lag_max_ms", "ms"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.omp_threads", "count"},
    {"bench.busy_threads", "count"},
};

const char* const kWorkloads[] = {"grid", "serve_hot", "serve_campaign",
                                  "insitu"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vf_perfbench: %s\nusage: vf_perfbench --workload "
               "grid|serve_hot|serve_campaign|insitu --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val != "0";
    } else if (key == "--workdir") {
      a.workdir = val;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      usage("unknown option " + key);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace) a.setup_reps = 1;
  if (a.workdir.empty()) {
    a.workdir = ".bench_work/" + a.workload + "-" + std::to_string(getpid());
  }
  if (a.trace_out.empty()) {
    a.trace_out = ".bench_out/trace-" + a.workload + "-seed" +
                  std::to_string(a.seed) + ".json";
  }
  return a;
}

/// OpenMP reads OMP_NUM_THREADS once, when the runtime starts, and threads
/// the program creates inherit that default rather than the main thread's
/// setting. So the thread count goes into the environment and the process
/// re-executes itself once before any OpenMP call.
void pin_omp_threads(char** argv) {
  const std::string value = std::to_string(perfbench::kOmpThreads);
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have != nullptr && value == have) return;
  setenv("OMP_NUM_THREADS", value.c_str(), 1);
  execv("/proc/self/exe", argv);
  std::perror("vf_perfbench: re-exec with OMP_NUM_THREADS");
  std::exit(2);
}

void print_table(const Args& a, const Report& r) {
  std::printf("\n%-32s %16s  %-8s %s\n", "metric", "value", "unit",
              "samples");
  for (const auto& [name, m] : r.metrics()) {
    std::printf("%-32s %16.6f  %-8s %zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("workload %s seed %llu trace %d: attempted %llu, failed %llu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0,
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  for (const auto& why : r.reasons()) std::printf("  failed: %s\n", why.c_str());
}

/// The result line. End-to-end metrics must all be present; a per-layer
/// metric the workload does not exercise reads 0.
std::string result_json(const Args& a, const Report& r) {
  const auto& specs = a.trace ? kPerLayer : kEndToEnd;
  std::string out = "{\"correct\": ";
  out += r.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted());
  out += ", \"failed\": " + std::to_string(r.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : specs) {
    const auto it = r.metrics().find(spec.name);
    if (it == r.metrics().end() && !a.trace) {
      throw std::runtime_error(std::string("end-to-end metric not measured: ") +
                               spec.name);
    }
    double v = it == r.metrics().end() ? 0.0 : it->second.value;
    if (!std::isfinite(v)) {
      throw std::runtime_error(std::string("metric is not finite: ") +
                               spec.name);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, v, spec.unit);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace

namespace perfbench {

int busy_threads_for(const std::string& workload) {
  if (workload == "grid") return 1;
  // serve: the load generator and the two serve workers. insitu: the
  // ingest thread, the fine-tune worker and a serve worker answering the
  // background reads (whose thread sleeps between its few sends). They
  // take turns on the one CPU the run is pinned to.
  return 3;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // One CPU for the whole run (the affinity survives the re-exec below):
  // NOTES.md, Noise findings.
  const int cpu = perfbench::pin_to_one_cpu();
  pin_omp_threads(argv);
  // End-to-end metrics are measured with tracing off, and that includes
  // the library's own run-time telemetry (spans, counters, histograms),
  // as in the repository's perf benches; the traced run's spans are the
  // benchmark's own. NOTES.md records what the telemetry costs.
  vf::obs::set_enabled(false);
  const auto cpu0 = perfbench::read_cpu_times();
  const int cpus = perfbench::cpu_count();
  try {
    perfbench::fresh_dir(args.workdir);
    perfbench::Tracer tracer(args.trace);
    Report report;
    std::printf("vf_perfbench %s: seed %llu, %.1f s window, trace %d, "
                "%d cpus, pinned to cpu %d, %d OpenMP threads, %d busy "
                "threads, workdir on %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, cpus, cpu, omp_get_max_threads(),
                perfbench::busy_threads_for(args.workload),
                perfbench::fs_type(args.workdir).c_str());
    std::fflush(stdout);
    if (args.workload == "grid") {
      perfbench::run_grid(args, tracer, report);
    } else if (args.workload == "serve_hot") {
      perfbench::run_serve(args, false, tracer, report);
    } else if (args.workload == "serve_campaign") {
      perfbench::run_serve(args, true, tracer, report);
    } else {
      perfbench::run_insitu(args, tracer, report);
    }
    report.set("host.steal_share",
               perfbench::steal_share(cpu0, perfbench::read_cpu_times()),
               "ratio");
    report.set("bench.omp_threads", omp_get_max_threads(), "count");
    report.set("bench.busy_threads",
               perfbench::busy_threads_for(args.workload), "count");
    if (args.trace) {
      std::filesystem::create_directories(
          std::filesystem::path(args.trace_out).parent_path());
      if (!tracer.write(args.trace_out)) {
        report.fail("cannot write span dump " + args.trace_out);
      }
    }
    std::filesystem::remove_all(args.workdir);
    print_table(args, report);
    const std::string line = result_json(args, report);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "vf_perfbench %s: %s\n", args.workload.c_str(),
                 e.what());
    std::error_code ec;
    std::filesystem::remove_all(args.workdir, ec);
    return 1;
  }
}
