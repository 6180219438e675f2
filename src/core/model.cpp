#include "vf/core/model.hpp"

#include <stdexcept>
#include <string_view>

#include "vf/nn/serialize.hpp"
#include "vf/util/atomic_io.hpp"

namespace vf::core {

using vf::nn::Matrix;

Matrix FcnnModel::predict(const Matrix& features, std::size_t batch) {
  Matrix X = features;
  in_norm.apply(X);
  Matrix out;
  vf::nn::QuantScratch scratch;
  vf::nn::QuantizedNetwork(net, vf::nn::QuantPolicy::None)
      .infer(X, out, scratch, batch);
  if (out.cols() != out_norm.mean.size()) {
    throw std::logic_error("FcnnModel::predict: output width mismatch");
  }
  out_norm.invert(out);
  return out;
}

FcnnModel FcnnModel::clone() const {
  FcnnModel copy;
  copy.net = net.clone();
  copy.in_norm = in_norm;
  copy.out_norm = out_norm;
  copy.with_gradients = with_gradients;
  copy.dataset = dataset;
  copy.trained_timestep = trained_timestep;
  return copy;
}

PackedModel::PackedModel(const FcnnModel& model, vf::nn::QuantPolicy policy)
    : net(model.net, policy),
      in_norm(model.in_norm),
      out_norm(model.out_norm),
      with_gradients(model.with_gradients) {}

std::size_t PackedModel::memory_bytes() const {
  return sizeof(PackedModel) - sizeof(net) + net.memory_bytes() +
         (in_norm.mean.size() + in_norm.stddev.size() +
          out_norm.mean.size() + out_norm.stddev.size()) *
             sizeof(double);
}

std::size_t FcnnModel::memory_bytes() const {
  std::size_t bytes = net.parameter_count() * sizeof(double);
  bytes += (in_norm.mean.size() + in_norm.stddev.size() +
            out_norm.mean.size() + out_norm.stddev.size()) *
           sizeof(double);
  bytes += dataset.size();
  bytes += sizeof(FcnnModel);
  return bytes;
}

namespace {

constexpr char kMagic[4] = {'V', 'F', 'M', 'D'};
constexpr std::uint32_t kVersion = 2;
/// Width bound for normaliser vectors at load (real models use 23/4).
constexpr std::uint32_t kMaxNormWidth = 4096;

void write_normalizer(vf::util::ByteWriter& out, const Normalizer& n) {
  out.pod(static_cast<std::uint32_t>(n.mean.size()));
  out.bytes(n.mean.data(), n.mean.size() * sizeof(double));
  out.bytes(n.stddev.data(), n.stddev.size() * sizeof(double));
}

Normalizer read_normalizer(vf::util::ByteReader& in) {
  const auto len = in.pod<std::uint32_t>();
  if (len > kMaxNormWidth || 2ull * len * sizeof(double) > in.remaining()) {
    throw std::runtime_error("FcnnModel::load: corrupt normalizer");
  }
  Normalizer n;
  n.mean.resize(len);
  n.stddev.resize(len);
  in.bytes(n.mean.data(), len * sizeof(double));
  in.bytes(n.stddev.data(), len * sizeof(double));
  return n;
}

std::string metadata_payload(const FcnnModel& m) {
  vf::util::ByteWriter out;
  out.pod(static_cast<std::uint8_t>(m.with_gradients ? 1 : 0));
  out.str(m.dataset);
  out.pod(m.trained_timestep);
  write_normalizer(out, m.in_norm);
  write_normalizer(out, m.out_norm);
  return out.take();
}

/// Metadata fields in the order metadata_payload writes them. The legacy
/// (pre-versioning) layout stored the same fields, unframed and
/// unchecksummed, right after the magic.
void read_metadata(vf::util::ByteReader& in, FcnnModel& m) {
  m.with_gradients = in.pod<std::uint8_t>() != 0;
  m.dataset = in.str(kMaxNormWidth);
  m.trained_timestep = in.pod<double>();
  m.in_norm = read_normalizer(in);
  m.out_norm = read_normalizer(in);
  in.expect_end();
}

}  // namespace

void FcnnModel::save(const std::string& path) const {
  // One atomic file: versioned header, then CRC-framed metadata and network
  // sections. A crash mid-save leaves the previous model intact; a torn
  // file is rejected at load rather than half-parsed.
  const std::string net_bytes = vf::nn::network_to_bytes(net);
  const std::string meta = metadata_payload(*this);
  vf::util::atomic_write_file(path, [&](std::ostream& out) {
    out.write(kMagic, 4);
    const std::uint32_t version = kVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    vf::util::write_crc_section(out, meta);
    vf::util::write_crc_section(out, net_bytes);
  });
}

namespace {

/// Parse a model file: its metadata into `meta` (whose network stays
/// empty), and its network's bytes to `network`. One read, then every
/// section is checked and parsed in place.
template <typename NetworkSink>
void parse_model_file(const std::string& path, FcnnModel& meta,
                      NetworkSink network) {
  const std::string bytes =
      vf::util::read_file(path, "FcnnModel::load", "model_read");
  vf::util::ByteReader in(bytes, "FcnnModel::load");
  if (in.view(4) != std::string_view(kMagic, 4)) {
    throw std::runtime_error("FcnnModel::load: bad magic in " + path);
  }
  if (in.pod<std::uint32_t>() != kVersion) {
    // Not a known version marker: assume the legacy two-file layout
    // (metadata here, network in `path`.net), whose next bytes are the
    // grad flag + name length (never equal to a small version integer —
    // the flag byte is 0/1 and names are short). No checksums; bounds come
    // from the real byte counts.
    vf::util::ByteReader legacy(std::string_view(bytes).substr(4),
                                "FcnnModel::load");
    read_metadata(legacy, meta);
    const std::string net_path = path + ".net";
    try {
      network(vf::util::read_file(net_path, "load_network", "serialize_read"),
              "load_network");
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(std::string(e.what()) + " in " + net_path);
    }
    return;
  }
  vf::util::ByteReader section(in.section(), "FcnnModel::load");
  read_metadata(section, meta);
  const std::string_view net_bytes = in.section();
  in.expect_end();
  network(net_bytes, "FcnnModel::load");
}

}  // namespace

FcnnModel FcnnModel::load(const std::string& path) {
  FcnnModel m;
  parse_model_file(path, m, [&m](std::string_view bytes, const char* what) {
    m.net = vf::nn::network_from_bytes(bytes, what);
  });
  return m;
}

PackedModel PackedModel::load(const std::string& path,
                              vf::nn::QuantPolicy policy) {
  FcnnModel meta;
  PackedModel m;
  parse_model_file(path, meta,
                   [&](std::string_view bytes, const char* what) {
                     m.net = vf::nn::packed_network_from_bytes(bytes, what,
                                                               policy);
                   });
  m.in_norm = std::move(meta.in_norm);
  m.out_norm = std::move(meta.out_norm);
  m.with_gradients = meta.with_gradients;
  return m;
}

}  // namespace vf::core
