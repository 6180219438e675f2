#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <numeric>

#include "vf/data/registry.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/rng.hpp"

namespace perfbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  if (reasons_.size() < 16) reasons_.push_back(why);
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) fail(what);
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& stream) {
  // FNV-1a over the stream name, folded into the run seed with a
  // splitmix64 finaliser: distinct streams of one seed are independent.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^ h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void SnrAccumulator::add(double truth, double approx) {
  ++n_;
  const double dn = static_cast<double>(n_);
  const double dt = truth - truth_mean_;
  truth_mean_ += dt / dn;
  truth_m2_ += dt * (truth - truth_mean_);
  const double err = truth - approx;
  const double de = err - err_mean_;
  err_mean_ += de / dn;
  err_m2_ += de * (err - err_mean_);
}

double SnrAccumulator::db() const {
  if (err_m2_ == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(truth_m2_ / err_m2_);
}

std::vector<int> pick_timesteps(std::uint64_t seed, int count, int limit,
                                int spacing) {
  vf::util::Rng rng(seed);
  const int span = (count - 1) * spacing;
  const int start =
      static_cast<int>(rng.below(static_cast<std::uint32_t>(limit - span)));
  std::vector<int> out;
  for (int i = 0; i < count; ++i) out.push_back(start + i * spacing);
  return out;
}

Frame make_frame(const vf::data::Dataset& ds, vf::field::Dims dims, double t,
                 double fraction, std::uint64_t sample_seed) {
  Frame f;
  f.t = t;
  f.truth = ds.generate(dims, t);
  const vf::sampling::ImportanceSampler sampler;
  f.cloud = sampler.sample(f.truth, fraction, sample_seed);
  return f;
}

vf::core::FcnnConfig scene_train_config(std::uint64_t seed) {
  vf::core::FcnnConfig cfg;  // paper widths, gradient head, 1%+5% mix
  cfg.epochs = 6;
  cfg.batch_size = 128;
  cfg.max_train_rows = 4000;
  // Gradient heads as a mild regulariser: at this budget the equal-weight
  // loss leaves some seeds' models far worse than others (NOTES.md).
  cfg.gradient_loss_weight = 0.25;
  cfg.seed = seed;
  return cfg;
}

vf::field::Dims hurricane_dims(const vf::data::Dataset& ds) {
  return vf::data::scaled_dims(ds, 3);
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

}  // namespace perfbench
