#include "vf/nn/checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "vf/nn/serialize.hpp"
#include "vf/util/atomic_io.hpp"
#include "vf/util/contract.hpp"
#include "vf/util/fault.hpp"

namespace vf::nn {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[4] = {'V', 'F', 'C', 'K'};
constexpr std::uint32_t kVersion = 1;

std::string checkpoint_name(int epoch) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt_%06d.vfck", epoch);
  return buf;
}

/// Parse the epoch out of "ckpt_NNNNNN.vfck"; -1 when the name is foreign.
int epoch_from_name(const std::string& name) {
  constexpr const char* kPrefix = "ckpt_";
  constexpr const char* kSuffix = ".vfck";
  if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix)) return -1;
  if (name.rfind(kPrefix, 0) != 0) return -1;
  if (name.substr(name.size() - std::strlen(kSuffix)) != kSuffix) return -1;
  const std::string digits = name.substr(
      std::strlen(kPrefix),
      name.size() - std::strlen(kPrefix) - std::strlen(kSuffix));
  int epoch = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
    if (epoch > 214748363) return -1;  // would overflow int
    epoch = epoch * 10 + (c - '0');
  }
  return epoch;
}

void write_index_vector(vf::util::ByteWriter& out,
                        const std::vector<std::size_t>& v) {
  out.pod(static_cast<std::uint64_t>(v.size()));
  for (std::size_t x : v) out.pod(static_cast<std::uint64_t>(x));
}

std::vector<std::size_t> read_index_vector(vf::util::ByteReader& in) {
  const auto n = in.pod<std::uint64_t>();
  if (n > in.remaining() / sizeof(std::uint64_t)) {
    throw std::runtime_error("checkpoint: corrupt index vector length");
  }
  std::vector<std::size_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::size_t>(in.pod<std::uint64_t>());
  return v;
}

void write_double_vector(vf::util::ByteWriter& out,
                         const std::vector<double>& v) {
  out.pod(static_cast<std::uint64_t>(v.size()));
  out.bytes(v.data(), v.size() * sizeof(double));
}

std::vector<double> read_double_vector(vf::util::ByteReader& in) {
  const auto n = in.pod<std::uint64_t>();
  if (n > in.remaining() / sizeof(double)) {
    throw std::runtime_error("checkpoint: corrupt loss history length");
  }
  std::vector<double> v(static_cast<std::size_t>(n));
  in.bytes(v.data(), v.size() * sizeof(double));
  return v;
}

std::string trainer_payload(const TrainerState& s) {
  vf::util::ByteWriter out;
  out.pod(static_cast<std::int32_t>(s.epoch));
  out.pod(s.best);
  out.pod(static_cast<std::int32_t>(s.stall));
  out.pod(s.rng.state);
  out.pod(s.rng.inc);
  out.pod(s.rng.cached_gaussian);
  out.pod(static_cast<std::uint8_t>(s.rng.has_cached_gaussian ? 1 : 0));
  write_index_vector(out, s.order);
  write_index_vector(out, s.val_order);
  write_double_vector(out, s.train_loss);
  write_double_vector(out, s.val_loss);
  return out.take();
}

void trainer_from_payload(std::string_view payload, TrainerState& s) {
  vf::util::ByteReader in(payload, "checkpoint trainer state");
  s.epoch = in.pod<std::int32_t>();
  s.best = in.pod<double>();
  s.stall = in.pod<std::int32_t>();
  s.rng.state = in.pod<std::uint64_t>();
  s.rng.inc = in.pod<std::uint64_t>();
  s.rng.cached_gaussian = in.pod<double>();
  s.rng.has_cached_gaussian = in.pod<std::uint8_t>() != 0;
  s.order = read_index_vector(in);
  s.val_order = read_index_vector(in);
  s.train_loss = read_double_vector(in);
  s.val_loss = read_double_vector(in);
  in.expect_end();
  if (s.epoch < 0) {
    throw std::runtime_error("checkpoint: negative epoch count");
  }
}

void write_moment_matrix(vf::util::ByteWriter& out, const Matrix& m) {
  out.pod(static_cast<std::uint64_t>(m.rows()));
  out.pod(static_cast<std::uint64_t>(m.cols()));
  out.bytes(m.data().data(), m.size() * sizeof(double));
}

Matrix read_moment_matrix(vf::util::ByteReader& in) {
  const auto rows = in.pod<std::uint64_t>();
  const auto cols = in.pod<std::uint64_t>();
  if (rows == 0 || cols == 0 ||
      cols > in.remaining() / sizeof(double) / rows) {
    throw std::runtime_error("checkpoint: corrupt moment matrix shape");
  }
  Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  in.bytes(m.data().data(), m.size() * sizeof(double));
  return m;
}

std::string adam_payload(const AdamState& a) {
  VF_REQUIRE(a.m.size() == a.v.size(),
             "checkpoint: Adam m/v vectors must be parallel");
  vf::util::ByteWriter out;
  out.pod(static_cast<std::int64_t>(a.t));
  out.pod(static_cast<std::uint32_t>(a.m.size()));
  for (std::size_t i = 0; i < a.m.size(); ++i) {
    write_moment_matrix(out, a.m[i]);
    write_moment_matrix(out, a.v[i]);
  }
  return out.take();
}

void adam_from_payload(std::string_view payload, AdamState& a) {
  vf::util::ByteReader in(payload, "checkpoint adam state");
  a.t = static_cast<long>(in.pod<std::int64_t>());
  const auto n = in.pod<std::uint32_t>();
  a.m.clear();
  a.v.clear();
  a.m.reserve(n);
  a.v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    a.m.push_back(read_moment_matrix(in));
    a.v.push_back(read_moment_matrix(in));
  }
  in.expect_end();
  if (a.t < 0) throw std::runtime_error("checkpoint: negative Adam step");
}

}  // namespace

Checkpointer::Checkpointer(Options options) : options_(std::move(options)) {
  VF_REQUIRE(!options_.dir.empty(), "Checkpointer: empty directory");
  VF_REQUIRE(options_.every >= 1, "Checkpointer: every must be >= 1");
  VF_REQUIRE(options_.keep_last >= 1, "Checkpointer: keep_last must be >= 1");
}

bool Checkpointer::due(int epoch) const {
  return epoch > 0 && epoch % options_.every == 0;
}

void Checkpointer::write(const Network& net, const TrainerState& state) const {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);  // rename target must exist
  if (vf::util::fault::should_fail("checkpoint_write")) {
    throw std::runtime_error("Checkpointer::write: injected fault");
  }
  const std::string trainer_bytes = trainer_payload(state);
  const std::string net_bytes = network_to_bytes(net);
  const std::string adam_bytes = adam_payload(state.adam);
  const std::string path =
      (fs::path(options_.dir) / checkpoint_name(state.epoch)).string();
  vf::util::atomic_write_file(path, [&](std::ostream& out) {
    out.write(kMagic, 4);
    const std::uint32_t version = kVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    vf::util::write_crc_section(out, trainer_bytes);
    vf::util::write_crc_section(out, net_bytes);
    vf::util::write_crc_section(out, adam_bytes);
  });

  // Keep-last-K retention: drop the oldest surplus checkpoints. Best effort
  // — a failed unlink must not fail the training run.
  const auto existing = list(options_.dir);
  if (existing.size() > static_cast<std::size_t>(options_.keep_last)) {
    const std::size_t surplus =
        existing.size() - static_cast<std::size_t>(options_.keep_last);
    for (std::size_t i = 0; i < surplus; ++i) {
      fs::remove(existing[i], ec);
    }
  }
}

std::vector<std::string> Checkpointer::list(const std::string& dir) {
  std::vector<std::pair<int, std::string>> found;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const int epoch = epoch_from_name(it->path().filename().string());
    if (epoch >= 0) found.emplace_back(epoch, it->path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [epoch, path] : found) paths.push_back(std::move(path));
  return paths;
}

void Checkpointer::load(const std::string& path, Network& net,
                        TrainerState& state) {
  const std::string bytes =
      vf::util::read_file(path, "Checkpointer::load", "checkpoint_read");
  vf::util::ByteReader in(bytes, "Checkpointer::load");
  if (in.view(4) != std::string_view(kMagic, 4)) {
    throw std::runtime_error("Checkpointer::load: bad magic in " + path);
  }
  if (in.pod<std::uint32_t>() != kVersion) {
    throw std::runtime_error("Checkpointer::load: unsupported version in " +
                             path);
  }
  const std::string_view trainer_bytes = in.section();
  const std::string_view net_bytes = in.section();
  const std::string_view adam_bytes = in.section();
  in.expect_end();

  // Parse everything before mutating the outputs so a corrupt checkpoint
  // cannot leave net/state half-restored.
  TrainerState parsed;
  trainer_from_payload(trainer_bytes, parsed);
  Network parsed_net = network_from_bytes(net_bytes, "Checkpointer::load");
  adam_from_payload(adam_bytes, parsed.adam);
  net = std::move(parsed_net);
  state = std::move(parsed);
}

bool Checkpointer::load_latest(const std::string& dir, Network& net,
                               TrainerState& state) {
  const auto paths = list(dir);
  // Newest first; fall back through older checkpoints when one is torn or
  // corrupt. That is the crash-recovery contract: the most recent *intact*
  // checkpoint wins.
  for (auto it = paths.rbegin(); it != paths.rend(); ++it) {
    try {
      load(*it, net, state);
      return true;
    } catch (const std::runtime_error&) {
      continue;
    }
  }
  return false;
}

}  // namespace vf::nn
