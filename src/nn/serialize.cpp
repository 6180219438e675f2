#include "vf/nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "vf/util/atomic_io.hpp"
#include "vf/util/contract.hpp"

namespace vf::nn {

namespace {

using vf::util::ByteReader;
using vf::util::ByteWriter;

constexpr char kMagic[4] = {'V', 'F', 'N', 'N'};
constexpr char kTailMagic[4] = {'V', 'F', 'N', 'T'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kLegacyVersion = 1;
/// Upper bound on any matrix element count accepted at load: larger than
/// every real model, small enough that a corrupt header cannot OOM.
constexpr std::uint64_t kMaxMatrixElements = 1ull << 28;

void write_matrix(ByteWriter& out, const Matrix& m) {
  out.pod(static_cast<std::uint64_t>(m.rows()));
  out.pod(static_cast<std::uint64_t>(m.cols()));
  out.bytes(m.data().data(), m.size() * sizeof(double));
}

/// A serialized matrix viewed in place: its shape, checked against the
/// bytes left, and its row-major doubles (no alignment guarantee).
struct MatrixView {
  std::size_t rows = 0;
  std::size_t cols = 0;
  const char* data = nullptr;
};

MatrixView read_matrix_view(ByteReader& in, const char* what) {
  const auto rows = in.pod<std::uint64_t>();
  const auto cols = in.pod<std::uint64_t>();
  if (rows == 0 || cols == 0 || cols > kMaxMatrixElements / rows ||
      rows * cols * sizeof(double) > in.remaining()) {
    throw std::runtime_error(std::string(what) + ": corrupt matrix header");
  }
  const std::string_view bytes =
      in.view(static_cast<std::size_t>(rows * cols * sizeof(double)));
  return {static_cast<std::size_t>(rows), static_cast<std::size_t>(cols),
          bytes.data()};
}

Matrix read_matrix(ByteReader& in, const char* what) {
  const MatrixView v = read_matrix_view(in, what);
  Matrix m(v.rows, v.cols);
  std::memcpy(m.data().data(), v.data, m.size() * sizeof(double));
  return m;
}

/// One layer record: kind, trainability, parameters.
std::string layer_payload(const Layer& l) {
  ByteWriter out;
  out.str(l.kind());
  out.pod(static_cast<std::uint8_t>(l.trainable() ? 1 : 0));
  if (l.kind() == "dense") {
    const auto& d = static_cast<const DenseLayer&>(l);
    write_matrix(out, d.weights());
    write_matrix(out, d.bias());
  } else if (l.kind() == "leaky_relu") {
    out.pod(static_cast<const LeakyReluLayer&>(l).slope());
  }
  return out.take();
}

/// One parsed layer record, its parameters viewed in the buffer.
struct LayerRecord {
  std::string kind;
  bool trainable = true;
  MatrixView weights;  // dense only
  MatrixView bias;     // dense only
  double slope = 0.0;  // leaky_relu only
};

LayerRecord read_layer(ByteReader& in, const char* what) {
  LayerRecord r;
  r.kind = in.str(64);
  r.trainable = in.pod<std::uint8_t>() != 0;
  if (r.kind == "dense") {
    r.weights = read_matrix_view(in, what);
    r.bias = read_matrix_view(in, what);
    if (r.bias.rows != 1 || r.bias.cols != r.weights.cols) {
      throw std::runtime_error(std::string(what) +
                               ": bias/weights shape mismatch");
    }
  } else if (r.kind == "leaky_relu") {
    r.slope = in.pod<double>();
  } else if (r.kind != "relu" && r.kind != "tanh") {
    throw std::runtime_error(std::string(what) + ": unknown layer kind " +
                             r.kind);
  }
  return r;
}

/// Parse a serialized network's layer records in order, handing each to
/// `visit`. Version 2 frames each record in its own CRC section; version 1
/// (unchecksummed, kept so archived models still load) wrote them back to
/// back. Either way the ByteReader bounds every field against the real
/// byte count, and the buffer must be consumed exactly.
template <typename Visit>
void for_each_layer(std::string_view bytes, const char* what, Visit visit) {
  ByteReader in(bytes, what);
  if (in.view(4) != std::string_view(kMagic, 4)) {
    throw std::runtime_error(std::string(what) + ": bad magic");
  }
  const auto version = in.pod<std::uint32_t>();
  if (version == kLegacyVersion) {
    const auto layers = in.pod<std::uint32_t>();
    for (std::uint32_t i = 0; i < layers; ++i) visit(read_layer(in, what));
  } else if (version == kVersion) {
    ByteReader hdr(in.section(), what);
    const auto layers = hdr.pod<std::uint32_t>();
    hdr.expect_end();
    for (std::uint32_t i = 0; i < layers; ++i) {
      ByteReader layer(in.section(), what);
      visit(read_layer(layer, what));
      layer.expect_end();
    }
  } else {
    throw std::runtime_error(std::string(what) + ": unsupported version " +
                             std::to_string(version));
  }
  in.expect_end();
}

std::unique_ptr<Layer> make_layer(const LayerRecord& r) {
  std::unique_ptr<Layer> layer;
  if (r.kind == "dense") {
    Matrix w(r.weights.rows, r.weights.cols);
    Matrix b(1, r.bias.cols);
    std::memcpy(w.data().data(), r.weights.data, w.size() * sizeof(double));
    std::memcpy(b.data().data(), r.bias.data, b.size() * sizeof(double));
    layer = std::make_unique<DenseLayer>(std::move(w), std::move(b));
  } else if (r.kind == "relu") {
    layer = std::make_unique<ReluLayer>();
  } else if (r.kind == "tanh") {
    layer = std::make_unique<TanhLayer>();
  } else {
    layer = std::make_unique<LeakyReluLayer>(r.slope);
  }
  layer->set_trainable(r.trainable);
  return layer;
}

}  // namespace

std::string network_to_bytes(const Network& net) {
  std::ostringstream out;
  out.write(kMagic, 4);
  const std::uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  ByteWriter header;
  header.pod(static_cast<std::uint32_t>(net.layer_count()));
  vf::util::write_crc_section(out, header.data());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    vf::util::write_crc_section(out, layer_payload(net.layer(i)));
  }
  return out.str();
}

Network network_from_bytes(std::string_view bytes, const char* what) {
  Network net;
  for_each_layer(bytes, what,
                 [&](const LayerRecord& r) { net.add(make_layer(r)); });
  return net;
}

QuantizedNetwork packed_network_from_bytes(std::string_view bytes,
                                           const char* what,
                                           QuantPolicy policy) {
  std::vector<LayerView> layers;
  for_each_layer(bytes, what, [&](const LayerRecord& r) {
    LayerView v;
    v.kind = r.kind;
    v.in = r.weights.rows;
    v.out = r.weights.cols;
    v.weights = r.weights.data;
    v.bias = r.bias.data;
    layers.push_back(std::move(v));
  });
  return QuantizedNetwork(layers, policy);
}

void save_network(const Network& net, const std::string& path) {
  const std::string bytes = network_to_bytes(net);
  vf::util::atomic_write_file(path, [&](std::ostream& out) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
}

Network load_network(const std::string& path) {
  try {
    return network_from_bytes(
        vf::util::read_file(path, "load_network", "serialize_read"),
        "load_network");
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " in " + path);
  }
}

void save_dense_tail(const Network& net, int n, const std::string& path) {
  const int total = net.dense_count();
  VF_REQUIRE(n >= 0 && n <= total,
             "save_dense_tail: tail longer than dense stack");
  vf::util::atomic_write_file(path, [&](std::ostream& out) {
    out.write(kTailMagic, 4);
    const std::uint32_t version = kVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    ByteWriter header;
    header.pod(static_cast<std::uint32_t>(n));
    vf::util::write_crc_section(out, header.data());
    int seen = 0;
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      const Layer& l = net.layer(i);
      if (l.kind() != "dense") continue;
      ++seen;
      if (seen <= total - n) continue;
      const auto& d = static_cast<const DenseLayer&>(l);
      ByteWriter section;
      write_matrix(section, d.weights());
      write_matrix(section, d.bias());
      vf::util::write_crc_section(out, section.data());
    }
  });
}

void load_dense_tail(Network& net, int n, const std::string& path) {
  const std::string bytes =
      vf::util::read_file(path, "load_dense_tail", "serialize_read");
  ByteReader in(bytes, "load_dense_tail");
  if (in.view(4) != std::string_view(kTailMagic, 4)) {
    throw std::runtime_error("load_dense_tail: bad magic in " + path);
  }
  const auto version = in.pod<std::uint32_t>();

  const int total = net.dense_count();
  VF_REQUIRE(n >= 0 && n <= total,
             "load_dense_tail: tail longer than dense stack");

  // Parse every tail matrix before touching `net`, so a corrupt later
  // section cannot leave the network half-overwritten.
  std::vector<std::pair<Matrix, Matrix>> tail;
  const auto check_count = [n](std::uint32_t count) {
    if (static_cast<int>(count) != n) {
      throw std::runtime_error("load_dense_tail: layer count mismatch");
    }
  };
  if (version == kLegacyVersion) {
    const auto count = in.pod<std::uint32_t>();
    check_count(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Matrix w = read_matrix(in, "load_dense_tail");
      Matrix b = read_matrix(in, "load_dense_tail");
      tail.emplace_back(std::move(w), std::move(b));
    }
  } else if (version == kVersion) {
    ByteReader hdr(in.section(), "load_dense_tail");
    const auto count = hdr.pod<std::uint32_t>();
    hdr.expect_end();
    check_count(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ByteReader section(in.section(), "load_dense_tail");
      Matrix w = read_matrix(section, "load_dense_tail");
      Matrix b = read_matrix(section, "load_dense_tail");
      section.expect_end();
      tail.emplace_back(std::move(w), std::move(b));
    }
  } else {
    throw std::runtime_error("load_dense_tail: unsupported version in " + path);
  }
  in.expect_end();

  int seen = 0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    Layer& l = net.layer(i);
    if (l.kind() != "dense") continue;
    ++seen;
    if (seen <= total - n) continue;
    auto& d = static_cast<DenseLayer&>(l);
    auto& [w, b] = tail[next++];
    if (w.rows() != d.weights().rows() || w.cols() != d.weights().cols() ||
        b.rows() != 1 || b.cols() != d.bias().cols()) {
      throw std::runtime_error("load_dense_tail: shape mismatch");
    }
    d.weights() = std::move(w);
    d.bias() = std::move(b);
  }
}

}  // namespace vf::nn
