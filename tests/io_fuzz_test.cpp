// Corruption fuzzing for the crash-safe binary formats.
//
// The v2 formats (VFNN networks, VFB fields, VFMD models) frame every
// variable-length payload with a size + CRC32, so the contract under test is
// absolute: a file truncated at ANY byte, carrying ANY single-bit flip, or
// followed by ANY trailing garbage must be rejected with std::runtime_error
// — never undefined behaviour, never a silently corrupt object. The sweeps
// below are exhaustive (every truncation length, every bit of every byte),
// which the suite can afford because the fixtures are tiny; the suite runs
// under ASan/UBSan via the `sanitize` label, so an out-of-bounds parse of a
// corrupt header would be caught even if it failed to throw. A golden test
// pins the VFMD bytes themselves, so a format or checksum change cannot
// pass by round-tripping only its own files.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "vf/core/model.hpp"
#include "vf/field/native_io.hpp"
#include "vf/nn/network.hpp"
#include "vf/nn/serialize.hpp"
#include "vf/util/atomic_io.hpp"

namespace {

namespace fs = std::filesystem;

class IoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vf_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spew(const std::string& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Assert that `load(path)` throws std::runtime_error for the truncation of
/// `blob` to every length, for every single-bit flip, and for appended
/// trailing garbage.
template <typename LoadFn>
void fuzz_blob(const std::string& blob, const std::string& p,
               const LoadFn& load) {
  // Sanity: the pristine bytes load.
  spew(p, blob);
  EXPECT_NO_THROW(load(p));

  for (std::size_t len = 0; len < blob.size(); ++len) {
    spew(p, blob.substr(0, len));
    EXPECT_THROW(load(p), std::runtime_error) << "truncated to " << len
                                              << " of " << blob.size();
  }

  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = blob;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      spew(p, bad);
      EXPECT_THROW(load(p), std::runtime_error)
          << "flip at byte " << byte << " bit " << bit;
    }
  }

  spew(p, blob + '\0');
  EXPECT_THROW(load(p), std::runtime_error) << "one trailing byte";
  spew(p, blob + "trailing garbage");
  EXPECT_THROW(load(p), std::runtime_error) << "trailing garbage";

  // Leave the pristine file behind for any follow-up assertions.
  spew(p, blob);
}

vf::field::ScalarField small_field() {
  vf::field::UniformGrid3 grid({5, 4, 3}, {0, 0, 0}, {0.5, 0.5, 0.5});
  vf::field::ScalarField f(grid, "fuzz");
  for (std::int64_t i = 0; i < f.size(); ++i) {
    f[i] = 0.25 * static_cast<double>(i) - 7.0;
  }
  return f;
}

// ---- VFNN (network) -------------------------------------------------------

TEST_F(IoFuzzTest, NetworkFileRejectsAllCorruption) {
  const auto net = vf::nn::Network::mlp(4, {6, 5}, 2, /*seed=*/7);
  const auto p = path("net.vfnn");
  vf::nn::save_network(net, p);
  fuzz_blob(slurp(p), path("net_fuzz.vfnn"),
            [](const std::string& f) { (void)vf::nn::load_network(f); });
}

TEST_F(IoFuzzTest, DenseTailFileRejectsAllCorruption) {
  const auto net = vf::nn::Network::mlp(4, {6, 5}, 2, /*seed=*/7);
  const auto p = path("tail.vfnt");
  vf::nn::save_dense_tail(net, 2, p);
  auto target = vf::nn::Network::mlp(4, {6, 5}, 2, /*seed=*/8);
  fuzz_blob(slurp(p), path("tail_fuzz.vfnt"), [&](const std::string& f) {
    vf::nn::load_dense_tail(target, 2, f);
  });
}

TEST_F(IoFuzzTest, MissingNetworkFileThrows) {
  EXPECT_THROW((void)vf::nn::load_network(path("does_not_exist.vfnn")),
               std::runtime_error);
}

// ---- VFB (native field) ---------------------------------------------------

TEST_F(IoFuzzTest, NativeFieldRejectsAllCorruption) {
  const auto f = small_field();
  const auto p = path("field.vfb");
  vf::field::write_native(f, p);
  fuzz_blob(slurp(p), path("field_fuzz.vfb"),
            [](const std::string& q) { (void)vf::field::read_native(q); });

  // The pristine file round-trips bit-exactly.
  const auto back = vf::field::read_native(path("field_fuzz.vfb"));
  ASSERT_EQ(back.size(), f.size());
  for (std::int64_t i = 0; i < f.size(); ++i) EXPECT_EQ(back[i], f[i]);
}

TEST_F(IoFuzzTest, LegacyNativeHeaderIsBoundCheckedBeforeAllocation) {
  // Hand-craft a legacy VFB1 file whose header claims a petabyte-scale grid.
  // read_native must reject it against the actual file size instead of
  // attempting the allocation.
  vf::util::ByteWriter w;
  w.bytes("VFB1", 4);
  w.pod(std::int32_t{1000000});
  w.pod(std::int32_t{1000000});
  w.pod(std::int32_t{1000});
  for (int i = 0; i < 6; ++i) w.pod(0.0);  // origin + spacing
  w.str("huge");
  w.bytes("\0\0\0\0\0\0\0\0", 8);  // one lonely value
  const auto p = path("huge.vfb");
  spew(p, w.data());
  EXPECT_THROW((void)vf::field::read_native(p), std::runtime_error);
}

TEST_F(IoFuzzTest, LegacyNativeFileStillLoads) {
  // A well-formed legacy VFB1 file remains readable, and must be consumed
  // exactly: a trailing byte is rejected.
  const auto f = small_field();
  vf::util::ByteWriter w;
  w.bytes("VFB1", 4);
  w.pod(static_cast<std::int32_t>(f.grid().dims().nx));
  w.pod(static_cast<std::int32_t>(f.grid().dims().ny));
  w.pod(static_cast<std::int32_t>(f.grid().dims().nz));
  w.pod(f.grid().origin().x);
  w.pod(f.grid().origin().y);
  w.pod(f.grid().origin().z);
  w.pod(f.grid().spacing().x);
  w.pod(f.grid().spacing().y);
  w.pod(f.grid().spacing().z);
  w.str(f.name());
  w.bytes(f.values().data(),
          static_cast<std::size_t>(f.size()) * sizeof(double));

  const auto p = path("legacy.vfb");
  spew(p, w.data());
  const auto back = vf::field::read_native(p);
  ASSERT_EQ(back.size(), f.size());
  EXPECT_EQ(back.name(), f.name());
  for (std::int64_t i = 0; i < f.size(); ++i) EXPECT_EQ(back[i], f[i]);

  spew(p, w.data() + '\0');
  EXPECT_THROW((void)vf::field::read_native(p), std::runtime_error);
}

// ---- VFMD (full model) ----------------------------------------------------

TEST_F(IoFuzzTest, ModelFileRejectsEveryTruncationAndTrailingGarbage) {
  vf::core::FcnnModel model;
  model.net = vf::nn::Network::mlp(23, {8}, 4, /*seed=*/3);
  model.in_norm.mean.assign(23, 0.5);
  model.in_norm.stddev.assign(23, 2.0);
  model.out_norm.mean.assign(4, -1.0);
  model.out_norm.stddev.assign(4, 3.0);
  model.with_gradients = true;
  model.dataset = "fuzz";
  model.trained_timestep = 1.5;

  const auto p = path("model.vfmd");
  model.save(p);
  // Every truncation, every single-bit flip, and trailing bytes.
  fuzz_blob(slurp(p), path("model_fuzz.vfmd"), [](const std::string& f) {
    (void)vf::core::FcnnModel::load(f);
  });
}

// ---- Golden bytes ---------------------------------------------------------

/// FNV-1a 64 of a file's bytes: a fingerprint independent of the CRC-32
/// the formats embed.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST_F(IoFuzzTest, ModelFileBytesMatchGolden) {
  // A model built from fixed, RNG-free weights must serialise to the bytes
  // every earlier build wrote: same layout, same per-section CRC-32
  // values. A change here breaks every model file already on disk.
  vf::nn::Network net;
  net.add(std::make_unique<vf::nn::DenseLayer>(3, 20));
  net.add(std::make_unique<vf::nn::ReluLayer>());
  net.add(std::make_unique<vf::nn::DenseLayer>(20, 2));
  net.add(std::make_unique<vf::nn::LeakyReluLayer>(0.125));
  int k = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.layer(i).kind() != "dense") continue;
    auto& d = static_cast<vf::nn::DenseLayer&>(net.layer(i));
    for (double& w : d.weights().data()) w = 0.0625 * (k++ % 37) - 1.0;
    for (double& b : d.bias().data()) b = 0.5 - 0.25 * (k++ % 5);
  }
  net.layer(0).set_trainable(false);

  vf::core::FcnnModel model;
  model.net = std::move(net);
  model.in_norm.mean = {0.5, -1.25, 3.0};
  model.in_norm.stddev = {1.0, 2.0, 0.75};
  model.out_norm.mean = {-0.5, 8.0};
  model.out_norm.stddev = {4.0, 0.25};
  model.with_gradients = false;
  model.dataset = "golden";
  model.trained_timestep = 12.0;

  const auto p = path("golden.vfmd");
  model.save(p);
  const std::string bytes = slurp(p);
  EXPECT_EQ(bytes.size(), 1303u);
  EXPECT_EQ(fnv1a64(bytes), 0xacfeb4265612ea3dull)
      << std::hex << "fnv1a64 = 0x" << fnv1a64(bytes);

  const auto back = vf::core::FcnnModel::load(p);
  EXPECT_EQ(back.dataset, "golden");
  EXPECT_EQ(back.net.parameter_count(), model.net.parameter_count());
}

}  // namespace
