// VFCK checkpoint format, retention, corruption fallback, and the core
// crash-safety claim: a training run killed between epochs and resumed from
// its newest checkpoint finishes with bit-for-bit the weights and loss
// history of a run that was never interrupted.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "vf/core/model.hpp"
#include "vf/nn/checkpoint.hpp"
#include "vf/nn/dense.hpp"
#include "vf/nn/trainer.hpp"
#include "vf/util/fault.hpp"
#include "vf/util/rng.hpp"

namespace {

namespace fault = vf::util::fault;
namespace fs = std::filesystem;
using vf::nn::Checkpointer;
using vf::nn::Matrix;
using vf::nn::Network;
using vf::nn::TrainerState;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    dir_ = fs::temp_directory_path() /
           ("vf_ckpt_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::clear();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string subdir(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void truncate_file(const std::string& p, std::uintmax_t size) {
  fs::resize_file(p, size);
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  vf::util::Rng rng(seed);
  for (double& v : m.data()) v = rng.gaussian();
  return m;
}

testing::AssertionResult networks_bit_equal(const Network& a,
                                            const Network& b) {
  if (a.layer_count() != b.layer_count()) {
    return testing::AssertionFailure() << "layer counts differ";
  }
  for (std::size_t i = 0; i < a.layer_count(); ++i) {
    const auto* da = dynamic_cast<const vf::nn::DenseLayer*>(&a.layer(i));
    const auto* db = dynamic_cast<const vf::nn::DenseLayer*>(&b.layer(i));
    if ((da == nullptr) != (db == nullptr)) {
      return testing::AssertionFailure() << "layer " << i << " kinds differ";
    }
    if (da == nullptr) continue;
    const auto wa = da->weights().data();
    const auto wb = db->weights().data();
    const auto ba = da->bias().data();
    const auto bb = db->bias().data();
    if (wa.size() != wb.size() || ba.size() != bb.size()) {
      return testing::AssertionFailure() << "layer " << i << " shapes differ";
    }
    if (std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(double)) != 0) {
      return testing::AssertionFailure()
             << "layer " << i << " weights differ bitwise";
    }
    if (std::memcmp(ba.data(), bb.data(), ba.size() * sizeof(double)) != 0) {
      return testing::AssertionFailure()
             << "layer " << i << " biases differ bitwise";
    }
  }
  return testing::AssertionSuccess();
}

/// A populated state whose every field differs from the defaults, so a
/// round-trip that silently drops one is caught.
TrainerState sample_state(Network& net, int epoch) {
  TrainerState st;
  st.epoch = epoch;
  st.best = 0.125;
  st.stall = 2;
  vf::util::Rng rng(99);
  (void)rng.gaussian();  // populate the Box-Muller cache
  st.rng = rng.state();
  st.order = {3, 1, 4, 1, 5};
  st.val_order = {9, 2, 6};
  st.train_loss = {1.0, 0.5, 0.25};
  st.val_loss = {1.5, 0.75, 0.375};
  vf::nn::AdamOptimizer opt(1e-3);
  opt.attach(net.params());
  opt.step();  // non-trivial moments
  st.adam = opt.export_state();
  return st;
}

// ---- Checkpointer basics --------------------------------------------------

TEST_F(CheckpointTest, DueRespectsEvery) {
  const Checkpointer ck({subdir("due"), /*every=*/5, /*keep_last=*/3});
  EXPECT_FALSE(ck.due(0));
  EXPECT_FALSE(ck.due(4));
  EXPECT_TRUE(ck.due(5));
  EXPECT_FALSE(ck.due(6));
  EXPECT_TRUE(ck.due(10));
}

TEST_F(CheckpointTest, WriteLoadRoundTripIsBitExact) {
  auto net = Network::mlp(4, {6}, 2, /*seed=*/11);
  const TrainerState st = sample_state(net, 3);
  const Checkpointer ck({subdir("rt"), 1, 5});
  ck.write(net, st);

  const auto paths = Checkpointer::list(subdir("rt"));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NE(paths[0].find("ckpt_000003.vfck"), std::string::npos);

  Network loaded_net;
  TrainerState loaded;
  Checkpointer::load(paths[0], loaded_net, loaded);

  EXPECT_EQ(loaded.epoch, st.epoch);
  EXPECT_EQ(loaded.best, st.best);
  EXPECT_EQ(loaded.stall, st.stall);
  EXPECT_EQ(loaded.rng.state, st.rng.state);
  EXPECT_EQ(loaded.rng.inc, st.rng.inc);
  EXPECT_EQ(loaded.rng.cached_gaussian, st.rng.cached_gaussian);
  EXPECT_EQ(loaded.rng.has_cached_gaussian, st.rng.has_cached_gaussian);
  EXPECT_EQ(loaded.order, st.order);
  EXPECT_EQ(loaded.val_order, st.val_order);
  EXPECT_EQ(loaded.train_loss, st.train_loss);
  EXPECT_EQ(loaded.val_loss, st.val_loss);
  EXPECT_TRUE(networks_bit_equal(net, loaded_net));

  ASSERT_EQ(loaded.adam.m.size(), st.adam.m.size());
  ASSERT_EQ(loaded.adam.v.size(), st.adam.v.size());
  EXPECT_EQ(loaded.adam.t, st.adam.t);
  for (std::size_t i = 0; i < st.adam.m.size(); ++i) {
    const auto want = st.adam.m[i].data();
    const auto got = loaded.adam.m[i].data();
    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          want.size() * sizeof(double)),
              0)
        << "adam m[" << i << "]";
  }
}

TEST_F(CheckpointTest, KeepLastPrunesOldest) {
  auto net = Network::mlp(3, {4}, 1, /*seed=*/1);
  const Checkpointer ck({subdir("keep"), 1, /*keep_last=*/2});
  for (int e = 1; e <= 5; ++e) ck.write(net, sample_state(net, e));

  const auto paths = Checkpointer::list(subdir("keep"));
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].find("ckpt_000004.vfck"), std::string::npos);
  EXPECT_NE(paths[1].find("ckpt_000005.vfck"), std::string::npos);
}

TEST_F(CheckpointTest, ListIgnoresForeignFiles) {
  auto net = Network::mlp(3, {4}, 1, /*seed=*/1);
  const Checkpointer ck({subdir("foreign"), 1, 5});
  ck.write(net, sample_state(net, 2));
  { std::ofstream(subdir("foreign") + "/notes.txt") << "hi"; }
  { std::ofstream(subdir("foreign") + "/ckpt_xyz.vfck") << "junk"; }

  const auto paths = Checkpointer::list(subdir("foreign"));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NE(paths[0].find("ckpt_000002.vfck"), std::string::npos);
}

TEST_F(CheckpointTest, MissingDirectoryListsEmptyAndLoadsNothing) {
  EXPECT_TRUE(Checkpointer::list(subdir("nope")).empty());
  Network net;
  TrainerState st;
  EXPECT_FALSE(Checkpointer::load_latest(subdir("nope"), net, st));
}

TEST_F(CheckpointTest, LoadLatestSkipsCorruptAndFallsBack) {
  auto net = Network::mlp(4, {5}, 2, /*seed=*/2);
  const auto d = subdir("fallback");
  const Checkpointer ck({d, 1, 5});
  ck.write(net, sample_state(net, 1));
  ck.write(net, sample_state(net, 2));

  auto paths = Checkpointer::list(d);
  ASSERT_EQ(paths.size(), 2u);
  // Tear the newest checkpoint in half: load() must reject it outright and
  // load_latest() must fall back to the older intact one.
  truncate_file(paths[1], fs::file_size(paths[1]) / 2);

  Network n1;
  TrainerState s1;
  EXPECT_THROW(Checkpointer::load(paths[1], n1, s1), std::runtime_error);

  Network n2;
  TrainerState s2;
  ASSERT_TRUE(Checkpointer::load_latest(d, n2, s2));
  EXPECT_EQ(s2.epoch, 1);
  EXPECT_TRUE(networks_bit_equal(net, n2));

  // Both corrupt: no checkpoint to resume from.
  truncate_file(paths[0], 3);
  Network n3;
  TrainerState s3;
  EXPECT_FALSE(Checkpointer::load_latest(d, n3, s3));
}

TEST_F(CheckpointTest, FailedWriteLeavesPreviousCheckpointsIntact) {
  auto net = Network::mlp(4, {5}, 2, /*seed=*/2);
  const auto d = subdir("wfault");
  const Checkpointer ck({d, 1, 5});
  ck.write(net, sample_state(net, 1));

  fault::arm("checkpoint_write", {fault::Mode::Error});
  EXPECT_THROW(ck.write(net, sample_state(net, 2)), std::runtime_error);
  fault::clear();

  fault::arm("atomic_rename", {fault::Mode::Error});
  EXPECT_THROW(ck.write(net, sample_state(net, 3)), std::runtime_error);
  fault::clear();

  Network n;
  TrainerState st;
  ASSERT_TRUE(Checkpointer::load_latest(d, n, st));
  EXPECT_EQ(st.epoch, 1);
}

// ---- Trainer integration --------------------------------------------------

struct TrainFixture {
  Matrix X = random_matrix(48, 4, 1001);
  Matrix Y = random_matrix(48, 2, 2002);

  [[nodiscard]] vf::nn::TrainOptions options(const std::string& dir) const {
    vf::nn::TrainOptions o;
    o.epochs = 12;
    o.batch_size = 16;
    o.learning_rate = 1e-3;
    o.shuffle_seed = 9;
    o.validation_fraction = 0.25;
    o.checkpoint_dir = dir;
    o.checkpoint_every = 3;
    o.checkpoint_keep = 10;
    return o;
  }
};

TEST_F(CheckpointTest, TrainerWritesDueAndFinalCheckpoints) {
  const TrainFixture fx;
  auto net = Network::mlp(4, {6}, 2, /*seed=*/5);
  auto opts = fx.options(subdir("train"));
  opts.epochs = 4;
  opts.checkpoint_every = 2;
  (void)vf::nn::Trainer(opts).fit(net, fx.X, fx.Y);

  const auto paths = Checkpointer::list(subdir("train"));
  ASSERT_EQ(paths.size(), 2u);  // epochs 2 and 4 (final is always written)
  EXPECT_NE(paths[0].find("ckpt_000002.vfck"), std::string::npos);
  EXPECT_NE(paths[1].find("ckpt_000004.vfck"), std::string::npos);
}

TEST_F(CheckpointTest, KillAndResumeIsBitIdentical) {
  const TrainFixture fx;

  // Reference: 12 epochs, never interrupted.
  auto net_a = Network::mlp(4, {6}, 2, /*seed=*/5);
  const auto hist_a =
      vf::nn::Trainer(fx.options(subdir("runA"))).fit(net_a, fx.X, fx.Y);
  ASSERT_EQ(hist_a.train_loss.size(), 12u);
  EXPECT_EQ(hist_a.resumed_from_epoch, -1);

  // Crash run: identical options, killed at the top of epoch 7 (after 6
  // completed epochs) by the trainer_epoch failpoint — exactly what a
  // SIGKILL between epochs loses.
  auto net_b = Network::mlp(4, {6}, 2, /*seed=*/5);
  auto opts_b = fx.options(subdir("runB"));
  fault::arm("trainer_epoch", {fault::Mode::Error, /*after=*/6, /*times=*/1});
  EXPECT_THROW((void)vf::nn::Trainer(opts_b).fit(net_b, fx.X, fx.Y),
               std::runtime_error);
  fault::clear();

  // The interrupted run checkpointed at epochs 3 and 6; the epoch-6 file
  // must match the reference run's bit for bit (same data, same seeds).
  EXPECT_EQ(slurp(subdir("runA") + "/ckpt_000006.vfck"),
            slurp(subdir("runB") + "/ckpt_000006.vfck"));

  // Resume into a DIFFERENTLY seeded fresh network: the checkpoint must
  // replace it wholesale.
  auto net_c = Network::mlp(4, {6}, 2, /*seed=*/999);
  opts_b.resume = true;
  const auto hist_b = vf::nn::Trainer(opts_b).fit(net_c, fx.X, fx.Y);

  EXPECT_EQ(hist_b.resumed_from_epoch, 6);
  EXPECT_EQ(hist_b.epochs_run, 12);
  ASSERT_EQ(hist_b.train_loss.size(), hist_a.train_loss.size());
  for (std::size_t i = 0; i < hist_a.train_loss.size(); ++i) {
    EXPECT_EQ(hist_b.train_loss[i], hist_a.train_loss[i]) << "epoch " << i;
  }
  ASSERT_EQ(hist_b.val_loss.size(), hist_a.val_loss.size());
  for (std::size_t i = 0; i < hist_a.val_loss.size(); ++i) {
    EXPECT_EQ(hist_b.val_loss[i], hist_a.val_loss[i]) << "epoch " << i;
  }
  EXPECT_TRUE(networks_bit_equal(net_a, net_c));
}

TEST_F(CheckpointTest, ResumeWithoutCheckpointIsAFreshRun) {
  const TrainFixture fx;
  auto net = Network::mlp(4, {6}, 2, /*seed=*/5);
  auto opts = fx.options(subdir("fresh"));
  opts.epochs = 2;
  opts.resume = true;  // nothing to resume from yet
  const auto hist = vf::nn::Trainer(opts).fit(net, fx.X, fx.Y);
  EXPECT_EQ(hist.resumed_from_epoch, -1);
  EXPECT_EQ(hist.epochs_run, 2);
}

TEST_F(CheckpointTest, ResumeRejectsMismatchedDataset) {
  const TrainFixture fx;
  auto net = Network::mlp(4, {6}, 2, /*seed=*/5);
  auto opts = fx.options(subdir("mismatch"));
  opts.epochs = 2;
  (void)vf::nn::Trainer(opts).fit(net, fx.X, fx.Y);

  // Same directory, different row count: the checkpointed permutation no
  // longer describes this dataset.
  const Matrix x2 = random_matrix(32, 4, 3003);
  const Matrix y2 = random_matrix(32, 2, 4004);
  auto net2 = Network::mlp(4, {6}, 2, /*seed=*/5);
  opts.resume = true;
  EXPECT_THROW((void)vf::nn::Trainer(opts).fit(net2, x2, y2),
               std::runtime_error);
}

TEST_F(CheckpointTest, RestoredNetworksFineTuneLikeTheOriginal) {
  // A network restored by FcnnModel::load or Checkpointer::load carries no
  // gradient buffers until it is first trained; fine-tuning it must match
  // fine-tuning the in-memory original, whose buffers are sized and dirty
  // from pretraining, bit for bit.
  const TrainFixture fx;
  auto original = Network::mlp(4, {6, 5}, 2, /*seed=*/5);
  auto pretrain = fx.options("");
  pretrain.epochs = 2;
  pretrain.validation_fraction = 0.0;
  (void)vf::nn::Trainer(pretrain).fit(original, fx.X, fx.Y);

  // sample_state takes one Adam step on `original`, so checkpoint first
  // and save the model file from the stepped weights.
  const Checkpointer ck({subdir("ft"), 1, 1});
  ck.write(original, sample_state(original, 2));
  Network from_ckpt;
  TrainerState st;
  Checkpointer::load(Checkpointer::list(subdir("ft")).back(), from_ckpt, st);

  vf::core::FcnnModel model;
  model.net = original.clone();
  model.in_norm.mean.assign(4, 0.0);
  model.in_norm.stddev.assign(4, 1.0);
  model.out_norm.mean.assign(2, 0.0);
  model.out_norm.stddev.assign(2, 1.0);
  model.save(subdir("m.vfmd"));
  Network from_model = vf::core::FcnnModel::load(subdir("m.vfmd")).net;

  // First use sizes every gradient to its parameter, zero-filled.
  for (const auto& p : from_model.params()) {
    EXPECT_EQ(p.grad->rows(), p.value->rows());
    EXPECT_EQ(p.grad->cols(), p.value->cols());
    EXPECT_EQ(p.grad->squared_norm(), 0.0);
  }

  // Case-2 fine-tune (last two dense layers trainable) on a shifted
  // target, the pipeline's per-timestep regime.
  const Matrix y_shift = random_matrix(48, 2, 3003);
  auto finetune = fx.options("");
  finetune.epochs = 3;
  finetune.validation_fraction = 0.0;
  const vf::nn::Trainer trainer(finetune);
  std::vector<double> losses[3];
  Network* nets[3] = {&original, &from_model, &from_ckpt};
  for (int i = 0; i < 3; ++i) {
    nets[i]->set_trainable_last_dense(2);
    losses[i] = trainer.fit(*nets[i], fx.X, y_shift).train_loss;
  }
  EXPECT_EQ(losses[1], losses[0]);
  EXPECT_EQ(losses[2], losses[0]);
  EXPECT_TRUE(networks_bit_equal(from_model, original));
  EXPECT_TRUE(networks_bit_equal(from_ckpt, original));
}

TEST_F(CheckpointTest, ResumeSkipsTornNewestCheckpoint) {
  const TrainFixture fx;
  auto net = Network::mlp(4, {6}, 2, /*seed=*/5);
  const auto d = subdir("torn");
  (void)vf::nn::Trainer(fx.options(d)).fit(net, fx.X, fx.Y);

  auto paths = Checkpointer::list(d);
  ASSERT_GE(paths.size(), 2u);
  // Simulate a non-atomic filesystem leaving the newest file torn: resume
  // must fall back to the previous checkpoint, not die.
  truncate_file(paths.back(), fs::file_size(paths.back()) / 3);

  auto net2 = Network::mlp(4, {6}, 2, /*seed=*/5);
  auto opts = fx.options(d);
  opts.resume = true;
  const auto hist = vf::nn::Trainer(opts).fit(net2, fx.X, fx.Y);
  EXPECT_EQ(hist.resumed_from_epoch, 9);  // fell back from 12 to 9
  EXPECT_EQ(hist.epochs_run, 12);
}

}  // namespace
