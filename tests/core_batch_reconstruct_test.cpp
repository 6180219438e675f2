// The one FCNN inference engine. Whole-grid reconstruction
// (FcnnReconstructor) is a tiled point query through core::predict_points,
// so the tile size, a single predict_points call over the same positions,
// the facade's point mode and a served request — alone in its batch or
// sharing one with every other — must all give the same answer bit for
// bit, for fp64, fp16 and int8, on the cloud's own grid and on a foreign
// one; at fp64 so must the training forward over the row-major model.
// The engine must also reuse its bound cloud (and rebind a new cloud even
// when it lands on a freed cloud's buffers), keep scratch bounded by the
// tile rather than the grid, and reject clouds too small for the feature
// stencil.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "vf/api/reconstruct.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/core/inference.hpp"
#include "vf/data/registry.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/serve/router.hpp"
#include "vf/util/fault.hpp"

namespace {

using namespace vf::core;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::nn::QuantPolicy;
using vf::sampling::ImportanceSampler;
using vf::sampling::SampleCloud;
using vf::spatial::IndexKind;

ScalarField smooth_truth(vf::field::Dims dims = {18, 18, 8}) {
  ScalarField f(UniformGrid3(dims, {0, 0, 0}, {1, 1, 1}), "t");
  f.fill([](const Vec3& p) {
    return std::sin(0.35 * p.x) * std::cos(0.3 * p.y) + 0.1 * p.z;
  });
  return f;
}

FcnnModel tiny_model(const ScalarField& truth) {
  FcnnConfig cfg;
  cfg.hidden = {24, 12};
  cfg.epochs = 8;
  cfg.max_train_rows = 2500;
  cfg.train_fractions = {0.05};
  ImportanceSampler sampler;
  return pretrain(truth, sampler, cfg).model;
}

/// One trained model and sampling shared by every test in this file.
struct Scene {
  ScalarField truth;
  FcnnModel model;
  SampleCloud cloud;
};

const Scene& scene() {
  static const Scene s = [] {
    Scene out{smooth_truth(), FcnnModel{}, SampleCloud{}};
    out.model = tiny_model(out.truth);
    out.cloud = ImportanceSampler().sample(out.truth, 0.05, 7);
    return out;
  }();
  return s;
}

/// Bitwise equality of two doubles (NaN payloads included).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_fields_identical(const ScalarField& got, const ScalarField& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::int64_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << "at linear index " << i << ": " << got[i] << " vs " << want[i];
  }
}

// ---- engine behaviour -----------------------------------------------------

/// The whole grid in one tile: the single-pass reference for tiled runs.
FcnnReconstructor whole_grid_engine(const FcnnModel& model,
                                    const UniformGrid3& grid) {
  return FcnnReconstructor(
      model.clone(),
      ReconstructOptions{.tile_size =
                             static_cast<std::size_t>(grid.point_count())});
}

TEST(BatchReconstruct, MatchesWholeGridPathOnSameGrid) {
  const auto& s = scene();
  ImportanceSampler sampler;
  SampleCloud cloud = sampler.sample(s.truth, 0.05, 7);

  ScalarField want =
      whole_grid_engine(s.model, s.truth.grid()).reconstruct(cloud, s.truth.grid());

  // A tile far smaller than the void count forces many tiles.
  FcnnReconstructor streaming(s.model.clone(),
                              ReconstructOptions{.tile_size = 333});
  ScalarField got = streaming.reconstruct(cloud, s.truth.grid());
  expect_fields_identical(got, want);

  // Sampled points are pinned to their stored values exactly.
  const auto& kept = cloud.kept_indices();
  const auto& vals = cloud.values();
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(got[kept[i]], vals[i]);
  }
}

TEST(BatchReconstruct, MatchesWholeGridPathOnForeignGrid) {
  const auto& s = scene();
  ImportanceSampler sampler;
  SampleCloud cloud = sampler.sample(s.truth, 0.08, 9);
  // Upscaling target: every point predicted, no pinning.
  UniformGrid3 fine({24, 24, 10}, {0, 0, 0}, {0.75, 0.75, 0.78});

  ScalarField want = whole_grid_engine(s.model, fine).reconstruct(cloud, fine);

  FcnnReconstructor streaming(s.model.clone(),
                              ReconstructOptions{.tile_size = 512});
  ScalarField got = streaming.reconstruct(cloud, fine);
  expect_fields_identical(got, want);
}

TEST(BatchReconstruct, TreeIsCachedAcrossCallsAndRebuiltOnNewCloud) {
  const auto& s = scene();
  ImportanceSampler sampler;
  SampleCloud cloud = sampler.sample(s.truth, 0.05, 11);

  FcnnReconstructor engine(s.model.clone(),
                           ReconstructOptions{.tile_size = 512});
  EXPECT_EQ(engine.tree_builds(), 0u);
  auto a = engine.reconstruct(cloud, s.truth.grid());
  EXPECT_EQ(engine.tree_builds(), 1u);
  auto b = engine.reconstruct(cloud, s.truth.grid());
  EXPECT_EQ(engine.tree_builds(), 1u);  // cache hit
  expect_fields_identical(b, a);         // and deterministic

  // A copy is the same cloud: it shares the id, so it is not rebound.
  const SampleCloud copy = cloud;
  (void)engine.reconstruct(copy, s.truth.grid());
  EXPECT_EQ(engine.tree_builds(), 1u);

  SampleCloud other = sampler.sample(s.truth, 0.05, 12);
  (void)engine.reconstruct(other, s.truth.grid());
  EXPECT_EQ(engine.tree_builds(), 2u);
}

TEST(BatchReconstruct, ScratchScalesWithTileNotGrid) {
  const auto& s = scene();
  ImportanceSampler sampler;
  SampleCloud cloud = sampler.sample(s.truth, 0.05, 13);

  // Same tile, ~2.7x more grid points: scratch high-water mark must not
  // track the grid.
  const std::size_t tile = 256;
  FcnnReconstructor small_grid(s.model.clone(),
                               ReconstructOptions{.tile_size = tile});
  (void)small_grid.reconstruct(cloud, s.truth.grid());
  UniformGrid3 fine({24, 24, 12}, {0, 0, 0}, {0.75, 0.75, 0.64});
  FcnnReconstructor large_grid(s.model.clone(),
                               ReconstructOptions{.tile_size = tile});
  (void)large_grid.reconstruct(cloud, fine);

  ASSERT_GT(small_grid.peak_scratch_elements(), 0u);
  EXPECT_LE(large_grid.peak_scratch_elements(),
            small_grid.peak_scratch_elements() +
                small_grid.peak_scratch_elements() / 4);

  // Quadrupling the tile grows scratch roughly proportionally (within 2x
  // of linear), far below any O(grid) footprint.
  FcnnReconstructor bigger_tile(s.model.clone(),
                                ReconstructOptions{.tile_size = 4 * tile});
  (void)bigger_tile.reconstruct(cloud, s.truth.grid());
  EXPECT_GT(bigger_tile.peak_scratch_elements(),
            small_grid.peak_scratch_elements());
  EXPECT_LE(bigger_tile.peak_scratch_elements(),
            8 * small_grid.peak_scratch_elements());
}

TEST(BatchReconstruct, RejectsUndersizedCloudAndUnfittedModel) {
  const auto& s = scene();
  FcnnReconstructor engine(s.model.clone(),
                           ReconstructOptions{.tile_size = 128});
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  SampleCloud tiny(pts, {1.0, 2.0, 3.0});
  EXPECT_THROW((void)engine.reconstruct(tiny, s.truth.grid()),
               std::invalid_argument);
  EXPECT_THROW(FcnnReconstructor(FcnnModel{}, ReconstructOptions{}),
               std::invalid_argument);
}

// A cloud freed and replaced by another of the same size can land on the
// freed cloud's buffers. A cache keyed on buffer addresses then answered
// the second timestep from the first timestep's samples; the bind is keyed
// on the cloud's id, so both timesteps get their own answer.
TEST(StaleCloud, ACloudBuiltOnAFreedCloudsBuffersIsRebound) {
  const auto ds = vf::data::make_dataset("hurricane");
  const ScalarField t10 = ds->generate({32, 32, 8}, 10.0);
  const ScalarField t30 = ds->generate({32, 32, 8}, 30.0);
  ImportanceSampler sampler;
  const auto kept = sampler.sample(t10, 0.03, 5).kept_indices();
  FcnnConfig cfg;
  cfg.hidden = {16};
  cfg.epochs = 2;
  cfg.max_train_rows = 1000;
  cfg.train_fractions = {0.03};
  cfg.with_gradients = false;
  const FcnnModel model = pretrain(t10, sampler, cfg).model;
  const std::vector<Vec3> probes = {{3.5, 7.25, 2.5}, {20.0, 11.5, 4.75},
                                    {29.5, 30.0, 6.0}};

  vf::api::ReconstructOptions opts;
  opts.method = vf::api::Method::FcnnStream;
  opts.model = &model;
  FcnnReconstructor engine(model.clone());
  vf::api::Reconstructor facade(opts);
  std::optional<SampleCloud> cloud;
  cloud.emplace(t10, kept);
  (void)engine.reconstruct(*cloud, t10.grid());
  (void)facade.reconstruct_points(*cloud, probes);
  cloud.reset();
  cloud.emplace(t30, kept);
  const ScalarField field = engine.reconstruct(*cloud, t30.grid());
  const std::vector<double> values =
      facade.reconstruct_points(*cloud, probes).values;

  FcnnReconstructor fresh_engine(model.clone());
  expect_fields_identical(field, fresh_engine.reconstruct(*cloud, t30.grid()));
  vf::api::Reconstructor fresh_facade(opts);
  const auto want = fresh_facade.reconstruct_points(*cloud, probes).values;
  ASSERT_EQ(values.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bits(values[i], want[i]))
        << "probe " << i << ": " << values[i] << " vs " << want[i];
  }
}

// ---- one answer per point, whatever carried it ----------------------------

struct Case {
  QuantPolicy policy;
  bool foreign_grid;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.policy == QuantPolicy::None
                         ? "fp64"
                         : vf::nn::to_string(info.param.policy)) +
         (info.param.foreign_grid ? "_foreign_grid" : "_same_grid");
}

class Equivalence : public ::testing::TestWithParam<Case> {
 protected:
  // Hermetic against env-armed failpoints; the served-batch case arms
  // model_read itself to hold the worker busy.
  void SetUp() override { vf::util::fault::clear(); }
  void TearDown() override { vf::util::fault::reload_env(); }

  /// The target grid: the cloud's own, or a finer upscaling grid where
  /// every point is predicted.
  [[nodiscard]] UniformGrid3 grid() const {
    return GetParam().foreign_grid
               ? UniformGrid3({24, 24, 10}, {0, 0, 0}, {0.75, 0.75, 0.78})
               : scene().truth.grid();
  }

  [[nodiscard]] ReconstructOptions options(std::size_t tile) const {
    ReconstructOptions o;
    o.tile_size = tile;
    o.quant = GetParam().policy;
    return o;
  }

  /// Grid indices the engine predicts (voids on the same grid, every point
  /// on a foreign one) and their positions.
  [[nodiscard]] std::vector<std::int64_t> targets() const {
    if (!GetParam().foreign_grid) return scene().cloud.void_indices();
    std::vector<std::int64_t> all(
        static_cast<std::size_t>(grid().point_count()));
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<std::int64_t>(i);
    }
    return all;
  }
};

TEST_P(Equivalence, TileSizeDoesNotChangeTheField) {
  const auto& s = scene();
  const UniformGrid3 g = grid();
  const ScalarField want =
      FcnnReconstructor(s.model.clone(), options(2048)).reconstruct(s.cloud, g);
  const auto larger_than_grid = static_cast<std::size_t>(g.point_count()) + 1;
  for (std::size_t tile : {std::size_t{1}, std::size_t{97}, larger_than_grid}) {
    SCOPED_TRACE("tile " + std::to_string(tile));
    expect_fields_identical(
        FcnnReconstructor(s.model.clone(), options(tile)).reconstruct(s.cloud, g),
        want);
  }
}

TEST_P(Equivalence, GridEqualsOnePredictPointsCall) {
  const auto& s = scene();
  const UniformGrid3 g = grid();
  const ScalarField field =
      FcnnReconstructor(s.model.clone(), options(97)).reconstruct(s.cloud, g);

  // The same positions in one kernel call, against a cloud bound the way
  // the engine binds it (neighbour ties must break identically).
  const auto idx = targets();
  std::vector<Vec3> pts(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) pts[i] = g.position(idx[i]);
  BoundCloud bound;
  bound.bind(s.cloud, IndexKind::Auto,
             static_cast<std::size_t>(g.point_count()));
  const PackedModel packed(s.model, GetParam().policy);
  std::vector<double> out(pts.size());
  PointScratch scratch;
  (void)predict_points(packed, bound.index(), bound.values(), pts.data(),
                       pts.size(), out.data(), scratch);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    ASSERT_TRUE(same_bits(field[idx[i]], out[i]))
        << "grid index " << idx[i] << ": " << field[idx[i]] << " vs "
        << out[i];
  }

  // At fp64 the packed weights answer exactly as the training forward
  // over the row-major model: the same features, normalised, through
  // Network::forward, then column 0 de-normalised.
  if (GetParam().policy != QuantPolicy::None) return;
  vf::nn::Matrix x;
  extract_features_into(bound.index(), bound.values(), pts.data(),
                        pts.size(), x);
  s.model.in_norm.apply(x);
  vf::nn::Matrix y;
  s.model.net.clone().forward(x, y);
  const double scale = s.model.out_norm.stddev[0];
  const double shift = s.model.out_norm.mean[0];
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const double reference = y(i, 0) * scale + shift;
    ASSERT_TRUE(same_bits(reference, out[i]))
        << "grid index " << idx[i] << ": " << reference << " vs " << out[i];
  }
}

TEST_P(Equivalence, FacadeAndServedBatchesAgree) {
  const auto& s = scene();
  const UniformGrid3 g = grid();
  const auto idx = targets();
  std::vector<Vec3> pts;
  for (std::size_t i = 0; i < idx.size(); i += 7) {
    pts.push_back(g.position(idx[i]));
  }

  vf::api::ReconstructOptions fo;
  fo.method = vf::api::Method::FcnnStream;
  fo.model = &s.model;
  fo.engine.quant = GetParam().policy;
  fo.engine.index = IndexKind::KdTree;
  vf::api::Reconstructor facade(fo);
  const auto want = facade.reconstruct_points(s.cloud, pts).values;

  // Uneven requests that together cover `pts` in order. Served alone, the
  // first seven are forwards of 1-5, 9 and 12 rows: one 4-row register tile
  // with each count of rows present, and partial and whole tiles after
  // whole ones.
  std::vector<std::vector<Vec3>> requests;
  constexpr std::size_t kSizes[] = {1, 2, 3, 4, 5, 9, 12, 7, 64, 200};
  std::size_t at = 0;
  for (const std::size_t size : kSizes) {
    const std::size_t n = std::min(size, pts.size() - at);
    requests.emplace_back(pts.begin() + static_cast<std::ptrdiff_t>(at),
                          pts.begin() + static_cast<std::ptrdiff_t>(at + n));
    at += n;
  }
  if (at < pts.size()) {
    requests.emplace_back(pts.begin() + static_cast<std::ptrdiff_t>(at),
                          pts.end());
  }

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("vf_equivalence_" + std::to_string(::getpid()) + "_" +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::create_directories(dir);
  const std::string model_path = (dir / "model.vfmd").string();
  s.model.save(model_path);
  // A batch's composition depends on load; check both extremes.
  std::vector<double> alone;
  std::vector<double> together;
  {
    vf::serve::RouterOptions ro;
    ro.shards = 1;
    ro.shard.workers = 1;
    ro.shard.batch_max_points = pts.size();
    ro.shard.quant = GetParam().policy;
    ro.shard.index = IndexKind::KdTree;
    // The first model load of a session retries after 150-300 ms (the
    // 300 ms backoff, jittered per shard) when model_read fails it.
    ro.shard.registry.load_retry.attempts = 2;
    ro.shard.registry.load_retry.initial_delay_ms = 300;
    vf::serve::ShardRouter router(ro);
    router.add_session("equivalence", s.cloud, model_path);
    router.add_session("busy", s.cloud, model_path);

    // Every request served alone: one outstanding, nothing to join it.
    for (const auto& request : requests) {
      const auto resp = router.query("equivalence", request);
      ASSERT_EQ(resp.status, vf::serve::Status::Ok);
      ASSERT_TRUE(resp.fallback.empty());
      ASSERT_EQ(resp.batch_points, request.size());
      alone.insert(alone.end(), resp.values.begin(), resp.values.end());
    }

    // Every request in one micro-batch: all queue while the only worker
    // is busy retrying "busy"'s first model load.
    vf::util::fault::arm("model_read", {vf::util::fault::Mode::Error, 0, 1});
    auto busy = router.submit("busy", {pts.front()});
    ASSERT_TRUE(busy.has_value());
    std::vector<std::future<vf::serve::PointResponse>> replies;
    for (const auto& request : requests) {
      auto reply = router.submit("equivalence", request);
      ASSERT_TRUE(reply.has_value());
      replies.push_back(std::move(*reply));
    }
    for (auto& reply : replies) {
      const auto resp = reply.get();
      ASSERT_EQ(resp.status, vf::serve::Status::Ok);
      ASSERT_TRUE(resp.fallback.empty());
      ASSERT_EQ(resp.batch_points, pts.size());
      together.insert(together.end(), resp.values.begin(), resp.values.end());
    }
    EXPECT_EQ(busy->get().status, vf::serve::Status::Ok);
  }
  fs::remove_all(dir);

  for (const auto* got : {&alone, &together}) {
    SCOPED_TRACE(got == &alone ? "alone" : "one micro-batch");
    ASSERT_EQ(got->size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(same_bits((*got)[i], want[i]))
          << "point " << i << ": " << (*got)[i] << " vs " << want[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, Equivalence,
    ::testing::Values(Case{QuantPolicy::None, false},
                      Case{QuantPolicy::None, true},
                      Case{QuantPolicy::Fp16, false},
                      Case{QuantPolicy::Fp16, true},
                      Case{QuantPolicy::Int8, false},
                      Case{QuantPolicy::Int8, true}),
    case_name);

}  // namespace
