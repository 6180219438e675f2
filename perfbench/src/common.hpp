#pragma once
// Shared pieces of the benchmark program: arguments, the metric report and
// its JSON line, seeded input derivation, order statistics, and the
// scenes (dataset + sampling + trained model) the workloads start from.
//
// The program drives the library through its public headers only. Every
// random choice (timesteps, samples, training shuffles, query streams, key
// sequences) is derived from the single --seed argument through
// derive_seed(), so one seed always yields the same inputs.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vf/core/fcnn.hpp"
#include "vf/core/model.hpp"
#include "vf/data/dataset.hpp"
#include "vf/field/scalar_field.hpp"
#include "vf/sampling/sample_cloud.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for model files, checkpoints and the
  /// span dump; created fresh per run and removed at exit.
  std::string workdir;
  /// Where the span dump of a traced run is written (kept after exit).
  std::string trace_out;
  /// Set-up repetitions whose median is setup_s (a traced run reports no
  /// set-up time and sets up once).
  int setup_reps = 3;
};

/// One reported metric. `samples` is the number of measurements behind
/// the value (printed in the human-readable table, not in the JSON line).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one run reports. Output checks add to `attempted` and
/// `failed`; a check that fails also records a one-line reason.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count a failed operation and keep its reason (first few are printed).
  void fail(const std::string& why, std::uint64_t n = 1);
  /// Check `ok`; counts one attempt and, when false, one failure.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Deterministic 64-bit seed for one named input stream of a run.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        const std::string& stream);

/// Order statistics over an unsorted sample (q in [0, 1], nearest rank).
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Running SNR in dB of approximations against their truths, with
/// vf::field::snr_db's definition (stddev of the truth over stddev of the
/// error), accumulated without storing the values (Welford updates, so
/// one order of additions gives one result to the last digit).
class SnrAccumulator {
 public:
  void add(double truth, double approx);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double db() const;

 private:
  std::size_t n_ = 0;
  double truth_mean_ = 0.0;
  double truth_m2_ = 0.0;
  double err_mean_ = 0.0;
  double err_m2_ = 0.0;
};

/// `count` integer timesteps `spacing` apart from a seeded start, all in
/// [0, limit).
[[nodiscard]] std::vector<int> pick_timesteps(std::uint64_t seed, int count,
                                              int limit, int spacing = 1);

/// One sampled timestep: rasterised truth plus its importance samples.
struct Frame {
  double t = 0.0;
  vf::field::ScalarField truth;
  vf::sampling::SampleCloud cloud;
};

/// Rasterise + importance-sample one timestep.
[[nodiscard]] Frame make_frame(const vf::data::Dataset& ds,
                               vf::field::Dims dims, double t,
                               double fraction, std::uint64_t sample_seed);

/// Training settings of the hurricane scenes: the paper's network
/// (512-256-128-64-16, gradient head) on a small fixed budget.
[[nodiscard]] vf::core::FcnnConfig scene_train_config(std::uint64_t seed);

/// The bench scale of the hurricane scene (83x83x16, 110,224 points).
[[nodiscard]] vf::field::Dims hurricane_dims(const vf::data::Dataset& ds);

/// Sampling fraction of the hurricane scenes (2 % importance samples).
inline constexpr double kSceneFraction = 0.02;

/// A traced run fails when its layer spans leave more than this share of
/// the workload's traced end-to-end time unaccounted.
inline constexpr double kMaxUnaccounted = 0.25;

/// Make `path` an empty directory.
void fresh_dir(const std::string& path);

/// Set-up times, whose median is setup_s. The first set-up builds the
/// state the timed window uses, in a fresh process; a workload repeats
/// the set-up after its window and checks, each repetition building a
/// state of its own and dropping it, so their leftovers (freed heap the
/// allocator keeps) never sit in the window's peak_rss_mb.
class SetupTimer {
 public:
  template <typename F>
  void time(F&& fn) {
    const auto t0 = Clock::now();
    fn();
    times_.push_back(seconds_since(t0));
  }
  /// Time `fn` until `reps` set-ups have been timed in all.
  template <typename F>
  void repeat(int reps, F&& fn) {
    while (static_cast<int>(times_.size()) < reps) time(fn);
  }
  void report_to(Report& report) const {
    report.set("setup_s", median(times_), "s", times_.size());
  }

 private:
  std::vector<double> times_;
};

}  // namespace perfbench
