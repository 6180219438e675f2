// Tests for the FCNN pipeline: training-set assembly, pretraining,
// fine-tuning (Case 1 / Case 2), reconstruction, persistence.
//
// Networks here are miniatures (tiny hidden sizes, few epochs) so the suite
// stays fast; behavioural properties — not absolute quality — are asserted.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/nn/dense.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/rng.hpp"

namespace {

using namespace vf::core;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::sampling::ImportanceSampler;

ScalarField smooth_truth(vf::field::Dims dims = {18, 18, 8}) {
  ScalarField f(UniformGrid3(dims, {0, 0, 0}, {1, 1, 1}), "t");
  f.fill([](const Vec3& p) {
    return std::sin(0.35 * p.x) * std::cos(0.3 * p.y) + 0.1 * p.z;
  });
  return f;
}

FcnnConfig tiny_config() {
  FcnnConfig cfg;
  cfg.hidden = {24, 12};
  cfg.epochs = 40;
  cfg.batch_size = 256;
  cfg.max_train_rows = 4000;
  cfg.train_fractions = {0.02, 0.08};
  return cfg;
}

TEST(Config, PaperDefaultsMatchPaper) {
  auto cfg = FcnnConfig::paper();
  EXPECT_EQ(cfg.hidden, (std::vector<std::size_t>{512, 256, 128, 64, 16}));
  EXPECT_EQ(cfg.epochs, 500);
  EXPECT_DOUBLE_EQ(cfg.learning_rate, 1e-3);
  EXPECT_TRUE(cfg.with_gradients);
  EXPECT_EQ(cfg.train_fractions, (std::vector<double>{0.01, 0.05}));
}

TEST(Config, BenchHonoursEnvironmentSwitches) {
  unsetenv("VF_FULL_SCALE");
  unsetenv("VF_QUICK");
  auto normal = FcnnConfig::bench();
  EXPECT_GT(normal.epochs, 8);
  EXPECT_GT(normal.max_train_rows, 3000u);

  setenv("VF_QUICK", "1", 1);
  auto quick = FcnnConfig::bench();
  EXPECT_LT(quick.epochs, normal.epochs);
  EXPECT_LT(quick.max_train_rows, normal.max_train_rows);
  unsetenv("VF_QUICK");

  setenv("VF_FULL_SCALE", "1", 1);
  auto full = FcnnConfig::bench();
  EXPECT_EQ(full.epochs, 500);
  EXPECT_EQ(full.max_train_rows, 0u);
  unsetenv("VF_FULL_SCALE");
}

TEST(Config, PyramidShapes) {
  EXPECT_EQ(FcnnConfig::pyramid(1), (std::vector<std::size_t>{512}));
  EXPECT_EQ(FcnnConfig::pyramid(5),
            (std::vector<std::size_t>{512, 256, 128, 64, 32}));
  auto nine = FcnnConfig::pyramid(9);
  EXPECT_EQ(nine.size(), 9u);
  EXPECT_EQ(nine.back(), 16u);  // floored
}

TEST(TrainingSet, CombinesFractionsAndCaps) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  cfg.max_train_rows = 0;  // uncapped
  auto set = build_training_set(truth, sampler, cfg);
  // Roughly (1 - 0.02) * N + (1 - 0.08) * N rows.
  auto n = static_cast<double>(truth.size());
  EXPECT_NEAR(static_cast<double>(set.X.rows()), n * (0.98 + 0.92),
              n * 0.05);
  EXPECT_EQ(set.X.cols(), 23u);
  EXPECT_EQ(set.Y.cols(), 4u);
  EXPECT_EQ(set.X.rows(), set.Y.rows());

  cfg.max_train_rows = 500;
  auto capped = build_training_set(truth, sampler, cfg);
  EXPECT_EQ(capped.X.rows(), 500u);
}

TEST(TrainingSet, SubsetFractionApplied) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  cfg.max_train_rows = 0;
  auto full = build_training_set(truth, sampler, cfg);
  cfg.train_subset = 0.25;
  auto quarter = build_training_set(truth, sampler, cfg);
  EXPECT_NEAR(static_cast<double>(quarter.X.rows()),
              static_cast<double>(full.X.rows()) * 0.25, 2.0);
}

/// Whether row `a` of `x` and row `b` of `y` are the same bytes.
bool same_row(const vf::nn::Matrix& x, std::size_t a, const vf::nn::Matrix& y,
              std::size_t b) {
  return x.cols() == y.cols() &&
         std::memcmp(x.row(a), y.row(b), x.cols() * sizeof(double)) == 0;
}

TEST(TrainingSet, KeptRowsAreTheFullSetsRowsInShuffleOrder) {
  // The reference for a capped set: stack every fraction's voids (the
  // uncapped set), shuffle the stacked rows with the set's seed, keep the
  // first rows. build_training_set builds only the kept rows, so each must
  // equal its stacked row byte for byte.
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  for (const bool gradients : {true, false}) {
    auto cfg = tiny_config();
    cfg.with_gradients = gradients;
    cfg.max_train_rows = 0;
    const auto full = build_training_set(truth, sampler, cfg);
    const std::size_t total = full.X.rows();
    std::vector<std::size_t> perm(total);
    for (std::size_t i = 0; i < total; ++i) perm[i] = i;
    vf::util::Rng rng(cfg.seed ^ 0xabcdu, 0x726f7773);
    rng.shuffle(perm);

    struct Cap {
      std::size_t max_rows;
      double subset;
    };
    for (const Cap cap : {Cap{500, 1.0}, Cap{0, 0.3}, Cap{2000, 0.5},
                          Cap{total - 1, 1.0}}) {
      cfg.max_train_rows = cap.max_rows;
      cfg.train_subset = cap.subset;
      const auto set = build_training_set(truth, sampler, cfg);
      ASSERT_LT(set.X.rows(), total);
      ASSERT_EQ(set.Y.rows(), set.X.rows());
      for (std::size_t r = 0; r < set.X.rows(); ++r) {
        ASSERT_TRUE(same_row(set.X, r, full.X, perm[r]))
            << "X row " << r << " cap " << cap.max_rows << " subset "
            << cap.subset << " gradients " << gradients;
        ASSERT_TRUE(same_row(set.Y, r, full.Y, perm[r]))
            << "Y row " << r << " cap " << cap.max_rows << " subset "
            << cap.subset << " gradients " << gradients;
      }
    }

    // A cap at or above the row count keeps every row in stacked order.
    for (const std::size_t max_rows : {total, total + 1}) {
      cfg.max_train_rows = max_rows;
      cfg.train_subset = 1.0;
      const auto set = build_training_set(truth, sampler, cfg);
      ASSERT_EQ(set.X.rows(), total);
      for (std::size_t r = 0; r < total; ++r) {
        ASSERT_TRUE(same_row(set.X, r, full.X, r)) << "X row " << r;
        ASSERT_TRUE(same_row(set.Y, r, full.Y, r)) << "Y row " << r;
      }
    }
  }
}

TEST(TrainingSet, ScalarOnlyTargetsWhenGradientsDisabled) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  cfg.with_gradients = false;
  auto set = build_training_set(truth, sampler, cfg);
  EXPECT_EQ(set.Y.cols(), 1u);
}

TEST(TrainingSet, NoFractionsThrows) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  cfg.train_fractions.clear();
  EXPECT_THROW(build_training_set(truth, sampler, cfg),
               std::invalid_argument);
}

TEST(Pretrain, LossDecreasesAndMetadataFilled) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto res = pretrain(truth, sampler, tiny_config());
  ASSERT_GT(res.history.train_loss.size(), 1u);
  EXPECT_LT(res.history.train_loss.back(),
            res.history.train_loss.front() * 0.8);
  EXPECT_EQ(res.model.dataset, "t");
  EXPECT_TRUE(res.model.with_gradients);
  EXPECT_GT(res.train_rows, 100u);
  EXPECT_EQ(res.model.in_norm.mean.size(), 23u);
  EXPECT_EQ(res.model.out_norm.mean.size(), 4u);
}

TEST(Pretrain, DeterministicBySeed) {
  auto truth = smooth_truth({12, 12, 6});
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  cfg.epochs = 5;
  auto a = pretrain(truth, sampler, cfg);
  auto b = pretrain(truth, sampler, cfg);
  EXPECT_EQ(a.history.train_loss, b.history.train_loss);
}

TEST(Reconstruct, SampledPointsKeptExactly) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto res = pretrain(truth, sampler, tiny_config());
  FcnnReconstructor rec(std::move(res.model));
  auto cloud = sampler.sample(truth, 0.05, 999);
  auto out = rec.reconstruct(cloud, truth.grid());
  for (std::int64_t idx : cloud.kept_indices()) {
    ASSERT_DOUBLE_EQ(out[idx], truth[idx]);
  }
}

TEST(Reconstruct, BeatsMeanPredictorOnSmoothField) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto res = pretrain(truth, sampler, tiny_config());
  FcnnReconstructor rec(std::move(res.model));
  auto cloud = sampler.sample(truth, 0.03, 1234);
  auto out = rec.reconstruct(cloud, truth.grid());
  EXPECT_GT(vf::field::snr_db(truth, out), 5.0);
}

TEST(Reconstruct, WorksAcrossSamplingFractions) {
  // The paper's key flexibility claim: ONE model reconstructs at any
  // sampling fraction (Fig 9). Verify quality is sane at 1% and 10%.
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto res = pretrain(truth, sampler, tiny_config());
  FcnnReconstructor rec(std::move(res.model));
  for (double frac : {0.01, 0.05, 0.10}) {
    auto cloud = sampler.sample(truth, frac, 7);
    auto out = rec.reconstruct(cloud, truth.grid());
    EXPECT_GT(vf::field::snr_db(truth, out), 2.0) << frac;
  }
}

TEST(Reconstruct, ForeignGridPredictsEverywhere) {
  // Upscaling path: target grid differs from the cloud's source grid.
  auto truth = smooth_truth({12, 12, 6});
  ImportanceSampler sampler;
  auto res = pretrain(truth, sampler, tiny_config());
  FcnnReconstructor rec(std::move(res.model));
  auto cloud = sampler.sample(truth, 0.1, 3);
  UniformGrid3 fine({23, 23, 11}, {0, 0, 0}, {0.5, 0.5, 0.5});
  auto out = rec.reconstruct(cloud, fine);
  ASSERT_EQ(out.size(), fine.point_count());
  for (std::int64_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(std::isfinite(out[i]));
  }
}

TEST(FineTune, Case1ImprovesOnNewTimestep) {
  auto ds = vf::data::make_dataset("hurricane");
  auto t0 = ds->generate({16, 16, 8}, 5.0);
  auto t1 = ds->generate({16, 16, 8}, 40.0);  // far-away timestep
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  auto res = pretrain(t0, sampler, cfg);

  // Stale model on the new timestep...
  FcnnReconstructor stale(res.model.clone());
  auto cloud = sampler.sample(t1, 0.05, 17);
  double snr_stale = vf::field::snr_db(
      t1, stale.reconstruct(cloud, t1.grid()));

  // ...vs the same model after a short Case-1 fine-tune.
  auto hist = fine_tune(res.model, t1, sampler, cfg,
                        FineTuneMode::FullNetwork, /*epochs=*/15);
  EXPECT_EQ(hist.epochs_run, 15);
  FcnnReconstructor tuned(std::move(res.model));
  double snr_tuned = vf::field::snr_db(
      t1, tuned.reconstruct(cloud, t1.grid()));
  EXPECT_GT(snr_tuned, snr_stale);
}

TEST(FineTune, Case2OnlyTouchesLastTwoDense) {
  auto truth = smooth_truth({14, 14, 6});
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  auto res = pretrain(truth, sampler, cfg);

  // Snapshot head weights (first dense layer).
  auto& head_before =
      dynamic_cast<vf::nn::DenseLayer&>(res.model.net.layer(0)).weights();
  auto head_copy = head_before;

  fine_tune(res.model, truth, sampler, cfg, FineTuneMode::LastTwoLayers, 10);

  auto& head_after =
      dynamic_cast<vf::nn::DenseLayer&>(res.model.net.layer(0)).weights();
  for (std::size_t i = 0; i < head_copy.size(); ++i) {
    ASSERT_EQ(head_after.data()[i], head_copy.data()[i]);
  }
  // Model left fully trainable for subsequent use.
  for (std::size_t i = 0; i < res.model.net.layer_count(); ++i) {
    EXPECT_TRUE(res.model.net.layer(i).trainable());
  }
}

TEST(FineTune, RefitNormalizationRebindsIoSpace) {
  // Cross-simulation transfer: fine-tuning with refit_normalization must
  // replace the stale z-score constants with the new data's statistics.
  auto src = vf::data::make_dataset("hurricane")->generate({14, 14, 6}, 5.0);
  auto dst = vf::data::make_dataset("combustion")->generate({14, 14, 6}, 5.0);
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  auto res = pretrain(src, sampler, cfg);
  double src_out_mean = res.model.out_norm.mean[0];  // ~1000 hPa scale

  fine_tune(res.model, dst, sampler, cfg, FineTuneMode::FullNetwork, 5,
            /*refit_normalization=*/true);
  // Output normalisation now reflects combustion's [0,1] mixfrac scale.
  EXPECT_LT(res.model.out_norm.mean[0], 1.0);
  EXPECT_NE(res.model.out_norm.mean[0], src_out_mean);

  // And the model produces values in the destination range.
  FcnnReconstructor rec(std::move(res.model));
  auto cloud = sampler.sample(dst, 0.05, 3);
  auto out = rec.reconstruct(cloud, dst.grid());
  auto stats = out.stats();
  EXPECT_GT(stats.mean, -1.0);
  EXPECT_LT(stats.mean, 2.0);
}

TEST(FineTune, KeepsNormalisationFixed) {
  auto truth = smooth_truth({14, 14, 6});
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  auto res = pretrain(truth, sampler, cfg);
  auto in_mean = res.model.in_norm.mean;
  auto out_mean = res.model.out_norm.mean;
  fine_tune(res.model, truth, sampler, cfg, FineTuneMode::FullNetwork, 5);
  EXPECT_EQ(res.model.in_norm.mean, in_mean);
  EXPECT_EQ(res.model.out_norm.mean, out_mean);
}

TEST(Model, SaveLoadRoundTrip) {
  auto truth = smooth_truth({12, 12, 6});
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  cfg.epochs = 5;
  auto res = pretrain(truth, sampler, cfg);
  res.model.trained_timestep = 7.0;

  auto dir = std::filesystem::temp_directory_path() /
             ("vf_model_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto path = (dir / "model.vfmd").string();
  res.model.save(path);
  auto back = FcnnModel::load(path);

  EXPECT_EQ(back.dataset, res.model.dataset);
  EXPECT_EQ(back.trained_timestep, 7.0);
  EXPECT_EQ(back.with_gradients, res.model.with_gradients);
  EXPECT_EQ(back.in_norm.mean, res.model.in_norm.mean);
  EXPECT_EQ(back.out_norm.stddev, res.model.out_norm.stddev);

  // Identical predictions.
  vf::nn::Matrix X(3, 23);
  vf::util::Rng rng(3);
  for (auto& v : X.data()) v = rng.uniform(0, 10);
  auto y1 = res.model.predict(X);
  auto y2 = back.predict(X);
  for (std::size_t i = 0; i < y1.size(); ++i) {
    ASSERT_EQ(y1.data()[i], y2.data()[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(Model, PredictDenormalisesOutputs) {
  // A model whose out-normaliser has large mean must produce outputs on
  // that scale, not z-scores.
  auto truth = smooth_truth({12, 12, 6});
  ImportanceSampler sampler;
  auto cfg = tiny_config();
  cfg.epochs = 20;
  auto res = pretrain(truth, sampler, cfg);
  auto cloud = sampler.sample(truth, 0.05, 5);
  FcnnReconstructor rec(std::move(res.model));
  auto out = rec.reconstruct(cloud, truth.grid());
  auto ts = truth.stats();
  auto os = out.stats();
  // Output statistics land in the truth's ballpark.
  EXPECT_NEAR(os.mean, ts.mean, 3 * ts.stddev);
}

TEST(GradientAblation, BothVariantsTrain) {
  // Fig 8 machinery: with- and without-gradient models must both train and
  // reconstruct; equality of SNR is not asserted (stochastic at this size).
  auto truth = smooth_truth({14, 14, 6});
  ImportanceSampler sampler;
  for (bool grad : {true, false}) {
    auto cfg = tiny_config();
    cfg.with_gradients = grad;
    cfg.epochs = 15;
    auto res = pretrain(truth, sampler, cfg);
    FcnnReconstructor rec(std::move(res.model));
    auto cloud = sampler.sample(truth, 0.05, 21);
    auto out = rec.reconstruct(cloud, truth.grid());
    EXPECT_GT(vf::field::snr_db(truth, out), 0.0) << "gradients=" << grad;
  }
}

}  // namespace
