#include "vf/util/atomic_io.hpp"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "vf/util/fault.hpp"

namespace vf::util {

namespace {

// The word loads in crc32 and every on-disk format (POD fields written in
// native layout) assume a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "vf::util formats and crc32 assume a little-endian host");

/// Slicing-by-16 tables: kCrcTables[0] is the bytewise IEEE table, and
/// kCrcTables[k][b] advances the CRC of byte b by k further zero bytes, so
/// one step folds 16 input bytes with 16 independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1u) : c >> 1u;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8u) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009). The fold
// is compiled for PCLMUL whatever the build's -march, and crc32 runs it
// only where the CPU reports the instructions.

__attribute__((target("pclmul,sse4.1"))) __m128i load_16(
    const unsigned char* p) {
  // vf-lint: allow(cast) an unaligned load, which needs no alignment
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries the 128-bit lane `x` forward by the distance `k` encodes (its
/// low constant multiplies x's low half, its high constant the high half)
/// and adds the 16 bytes found there.
__attribute__((target("pclmul,sse4.1"))) __m128i fold_16(__m128i x,
                                                         __m128i k,
                                                         __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Advances the CRC register `c` (pre- and post-inversion are the
/// caller's) over `len` bytes, a multiple of 16 and at least 64. The
/// constants are the paper's for the reflected IEEE polynomial: k1/k2 move
/// a lane 512 bits ahead, k3/k4 128 bits, k5 folds 96 bits to 64, and
/// P'/mu are the Barrett pair that reduces 64 bits to the 32-bit CRC.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    const unsigned char* p, std::size_t len, std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four lanes, each folded 64 bytes ahead per step.
  __m128i x0 =
      _mm_xor_si128(load_16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load_16(p + 16);
  __m128i x2 = load_16(p + 32);
  __m128i x3 = load_16(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x0 = fold_16(x0, k1k2, load_16(p));
    x1 = fold_16(x1, k1k2, load_16(p + 16));
    x2 = fold_16(x2, k1k2, load_16(p + 32));
    x3 = fold_16(x3, k1k2, load_16(p + 48));
  }
  // The lanes into one, which then takes the remaining bytes 16 per step.
  x0 = fold_16(x0, k3k4, x1);
  x0 = fold_16(x0, k3k4, x2);
  x0 = fold_16(x0, k3k4, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = fold_16(x0, k3k4, load_16(p));

  // 128 -> 96 -> 64 bits, then Barrett reduction to the 32-bit register.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x10),
                     _mm_srli_si128(x0, 8));
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
                     _mm_srli_si128(x0, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // __x86_64__

/// fsync the file at `path` via a short-lived descriptor (ofstream cannot
/// fsync). Returns false on open/fsync failure.
bool fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg,hicpp-vararg)
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable. Failure is ignored: the data file is already synced
/// and some filesystems reject directory fsync.
void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg,hicpp-vararg)
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  static const bool clmul =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  if (clmul && len >= 64) {
    const std::size_t folded = len & ~std::size_t{15};
    c = crc32_clmul(bytes, folded, c);
    bytes += folded;
    len -= folded;
  }
#endif
  // Short buffers, the tail under 16 bytes, and CPUs without PCLMUL.
  for (; len >= 16; bytes += 16, len -= 16) {
    const std::uint32_t a = load_u32(bytes) ^ c;
    const std::uint32_t b = load_u32(bytes + 4);
    const std::uint32_t d = load_u32(bytes + 8);
    const std::uint32_t e = load_u32(bytes + 12);
    c = t[15][a & 0xFFu] ^ t[14][(a >> 8u) & 0xFFu] ^
        t[13][(a >> 16u) & 0xFFu] ^ t[12][a >> 24u] ^
        t[11][b & 0xFFu] ^ t[10][(b >> 8u) & 0xFFu] ^
        t[9][(b >> 16u) & 0xFFu] ^ t[8][b >> 24u] ^
        t[7][d & 0xFFu] ^ t[6][(d >> 8u) & 0xFFu] ^
        t[5][(d >> 16u) & 0xFFu] ^ t[4][d >> 24u] ^
        t[3][e & 0xFFu] ^ t[2][(e >> 8u) & 0xFFu] ^
        t[1][(e >> 16u) & 0xFFu] ^ t[0][e >> 24u];
  }
  for (; len > 0; ++bytes, --len) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8u);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string read_file(const std::string& path, const char* what,
                      const char* failpoint) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg,hicpp-vararg)
  if (fd < 0 || fault::should_fail(failpoint)) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  const struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};
  // Size the buffer from the open descriptor, not the path: a concurrent
  // atomic_write_file may rename a new file over `path` meanwhile.
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw std::runtime_error(std::string(what) + ": not a regular file " +
                             path);
  }
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  for (std::size_t got = 0; got < bytes.size();) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error(std::string(what) + ": read failed for " +
                               path);
    }
    got += static_cast<std::size_t>(n);
  }
  return bytes;
}

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  // Remove the temp on every exit path; harmless when the rename won.
  struct TmpGuard {
    const std::string& tmp;
    ~TmpGuard() {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
    }
  } guard{tmp};

  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);  // vf-lint: allow(raw-ofstream) the atomic-write implementation itself
    if (!out || fault::should_fail("atomic_open")) {
      throw std::runtime_error("atomic_write_file: cannot open temp for " +
                               path);
    }
    writer(out);
    out.flush();
    if (!out) {
      throw std::runtime_error("atomic_write_file: write failed for " + path);
    }
    if (fault::fire("atomic_write") == fault::Mode::ShortWrite) {
      // Injected torn write: truncate the temp to half and fail as a crash
      // mid-write would. The destination must remain untouched.
      out.close();
      std::error_code ec;
      const auto size = std::filesystem::file_size(tmp, ec);
      if (!ec) std::filesystem::resize_file(tmp, size / 2, ec);
      throw std::runtime_error("atomic_write_file: short write for " + path);
    }
  }
  if (!fsync_path(tmp) || fault::should_fail("atomic_fsync")) {
    throw std::runtime_error("atomic_write_file: fsync failed for " + path);
  }
  if (fault::should_fail("atomic_rename") ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("atomic_write_file: rename failed for " + path +
                             ": " + std::strerror(errno));
  }
  fsync_parent_dir(path);
}

void write_crc_section(std::ostream& out, const std::string& payload) {
  const auto size = static_cast<std::uint64_t>(payload.size());
  out.write(reinterpret_cast<const char*>(&size), sizeof size);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
}

std::string read_crc_section(std::istream& in, std::uint64_t max_size,
                             const char* what) {
  std::uint64_t size = 0;
  in.read(reinterpret_cast<char*>(&size), sizeof size);
  if (!in || size > max_size) {
    throw std::runtime_error(std::string(what) +
                             ": corrupt section size (torn or tampered file)");
  }
  std::string payload(static_cast<std::size_t>(size), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(size));
  std::uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof stored);
  if (!in) {
    throw std::runtime_error(std::string(what) + ": truncated section");
  }
  if (crc32(payload.data(), payload.size()) != stored) {
    throw std::runtime_error(std::string(what) + ": section checksum mismatch");
  }
  return payload;
}

void write_crc_section(std::ostream& out, const void* data, std::size_t len) {
  const auto size = static_cast<std::uint64_t>(len);
  out.write(reinterpret_cast<const char*>(&size), sizeof size);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
  const std::uint32_t crc = crc32(data, len);
  out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
}

void read_crc_section_into(std::istream& in, void* dst, std::uint64_t expected,
                           const char* what) {
  std::uint64_t size = 0;
  in.read(reinterpret_cast<char*>(&size), sizeof size);
  if (!in || size != expected) {
    throw std::runtime_error(std::string(what) +
                             ": section size mismatch (torn or tampered file)");
  }
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(size));
  std::uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof stored);
  if (!in) {
    throw std::runtime_error(std::string(what) + ": truncated section");
  }
  if (crc32(dst, static_cast<std::size_t>(size)) != stored) {
    throw std::runtime_error(std::string(what) + ": section checksum mismatch");
  }
}

std::string_view ByteReader::section() {
  const auto size = pod<std::uint64_t>();
  if (size > remaining()) {
    corrupt("corrupt section size (torn or tampered file)");
  }
  const std::string_view payload = view(static_cast<std::size_t>(size));
  if (remaining() < sizeof(std::uint32_t)) corrupt("truncated section");
  if (crc32(payload.data(), payload.size()) != pod<std::uint32_t>()) {
    corrupt("section checksum mismatch");
  }
  return payload;
}

void ByteReader::overrun() const {
  corrupt("corrupt payload (field extends past section)");
}

void ByteReader::corrupt(const char* why) const {
  throw std::runtime_error(std::string(what_) + ": " + why);
}

void expect_eof(std::istream& in, const char* what) {
  if (in.peek() != std::istream::traits_type::eof()) {
    throw std::runtime_error(std::string(what) +
                             ": trailing bytes after payload");
  }
}

std::uint64_t bytes_remaining(std::istream& in) {
  const std::istream::pos_type at = in.tellg();
  if (at == std::istream::pos_type(-1)) return 0;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(at);
  return end >= at ? static_cast<std::uint64_t>(end - at) : 0;
}

std::vector<int> retry_delays_ms(const RetryPolicy& policy) {
  std::vector<int> out;
  if (policy.attempts <= 1) return out;
  out.reserve(static_cast<std::size_t>(policy.attempts - 1));
  Rng rng(policy.jitter_seed);
  int delay_ms = policy.initial_delay_ms;
  for (int i = 1; i < policy.attempts; ++i) {
    out.push_back(detail::jittered_delay_ms(
        delay_ms, policy.jitter_seed != 0 ? &rng : nullptr));
    delay_ms *= 2;
  }
  return out;
}

}  // namespace vf::util
