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

/// Advances the CRC register `c` over `len` bytes by the table loop, 16
/// bytes per step and then one at a time. Inlined, so that a short buffer
/// pays no call for it.
[[gnu::always_inline]] inline std::uint32_t crc32_table(
    const unsigned char* bytes, std::size_t len, std::uint32_t c) {
  const auto& t = kCrcTables;
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
  return c;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in a
// 128-bit form (PCLMULQDQ) and a 512-bit one (VPCLMULQDQ). Each fold is
// compiled for its instructions whatever the build's -march, and crc32 runs
// it only where the CPU reports them. A fold constant that carries a
// 128-bit part D bits ahead holds x^(D+32) mod P in its low half and
// x^(D-32) mod P in its high half, each bit-reflected and shifted left one
// bit, as in the paper.

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

/// Folds the last `len` bytes at `p` (a multiple of 16) into the lane `x`
/// 16 per step (k3/k4 move a lane 128 bits ahead), then reduces it: k5
/// folds 96 bits to 64, and P'/mu are the Barrett pair that brings 64 bits
/// to the 32-bit CRC register.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t reduce_lane(
    __m128i x, const unsigned char* p, std::size_t len) {
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  for (; len >= 16; p += 16, len -= 16) x = fold_16(x, k3k4, load_16(p));

  // 128 -> 96 -> 64 bits, then Barrett reduction to the 32-bit register.
  x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
                    _mm_srli_si128(x, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

/// Advances the CRC register `c` (pre- and post-inversion are the
/// caller's) over `len` bytes, a multiple of 16 and at least 64: four
/// 128-bit lanes fold 64 bytes per step (k1/k2 move a lane 512 bits
/// ahead), then fold into one.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    const unsigned char* p, std::size_t len, std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);

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
  x0 = fold_16(x0, k3k4, x1);
  x0 = fold_16(x0, k3k4, x2);
  x0 = fold_16(x0, k3k4, x3);
  return reduce_lane(x0, p, len);
}

// The 512-bit fold adds pclmul to its target so that reduce_lane inlines.
// Its constants are built with _mm512_set_epi64 and its 128-bit parts
// taken with masked extracts: GCC 12's plain broadcast and extract
// intrinsics pass _mm*_undefined_* operands that -Wmaybe-uninitialized
// flags.

/// The 128-bit fold over each of a 512-bit lane's four parts at once.
__attribute__((target("avx512f,vpclmulqdq,pclmul"))) __m512i fold_64(
    __m512i x, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next,
                                   0x96);  // a ^ b ^ c
}

/// crc32_clmul's contract for `len` of at least 256: four 512-bit lanes
/// fold 256 bytes per step (2048 bits ahead), then fold into one, which
/// takes 64 bytes per step (512 bits ahead, k1/k2). Its four parts are
/// carried 384, 256 and 128 bits ahead onto the last, and the sum joins
/// the 128-bit fold's last steps.
__attribute__((target("avx512f,vpclmulqdq,pclmul"))) std::uint32_t
crc32_vpclmul(const unsigned char* p, std::size_t len, std::uint32_t c) {
  const __m512i k2048 =
      _mm512_set_epi64(0x1322d1430, 0x11542778a, 0x1322d1430, 0x11542778a,
                       0x1322d1430, 0x11542778a, 0x1322d1430, 0x11542778a);
  const __m512i k512 =
      _mm512_set_epi64(0x1c6e41596, 0x154442bd4, 0x1c6e41596, 0x154442bd4,
                       0x1c6e41596, 0x154442bd4, 0x1c6e41596, 0x154442bd4);
  // Parts 0-2 move 384, 256 and 128 bits ahead; part 3 stays.
  const __m512i k_parts =
      _mm512_set_epi64(0, 0, 0x0ccaa009e, 0x1751997d0, 0x15a546366,
                       0xf1da05aa, 0x174359406, 0x3db1ecdc);

  __m512i z0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(c))));
  __m512i z1 = _mm512_loadu_si512(p + 64);
  __m512i z2 = _mm512_loadu_si512(p + 128);
  __m512i z3 = _mm512_loadu_si512(p + 192);
  for (p += 256, len -= 256; len >= 256; p += 256, len -= 256) {
    z0 = fold_64(z0, k2048, _mm512_loadu_si512(p));
    z1 = fold_64(z1, k2048, _mm512_loadu_si512(p + 64));
    z2 = fold_64(z2, k2048, _mm512_loadu_si512(p + 128));
    z3 = fold_64(z3, k2048, _mm512_loadu_si512(p + 192));
  }
  z0 = fold_64(z0, k512, z1);
  z0 = fold_64(z0, k512, z2);
  z0 = fold_64(z0, k512, z3);
  for (; len >= 64; p += 64, len -= 64) {
    z0 = fold_64(z0, k512, _mm512_loadu_si512(p));
  }
  const __m512i t = fold_64(z0, k_parts, _mm512_maskz_mov_epi64(0xC0, z0));
  const __m128i x =
      _mm_xor_si128(_mm_xor_si128(_mm512_maskz_extracti32x4_epi32(0xF, t, 0),
                                  _mm512_maskz_extracti32x4_epi32(0xF, t, 1)),
                    _mm_xor_si128(_mm512_maskz_extracti32x4_epi32(0xF, t, 2),
                                  _mm512_maskz_extracti32x4_epi32(0xF, t, 3)));
  return reduce_lane(x, p, len);
}

/// The length from which the 512-bit fold starts at a cache line. Below
/// it the buffer fits in L1, where loads that span two lines cost no more
/// than the table loop over the head.
constexpr std::size_t kAlignFrom = 65536;

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
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  static const bool clmul =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  static const bool vpclmul = clmul && __builtin_cpu_supports("avx512f") &&
                              __builtin_cpu_supports("vpclmulqdq");
  if (clmul && len >= 64) {
    const bool wide = vpclmul && len >= 256;
    if (wide && len >= kAlignFrom) {
      // Streamed from L2, the fold runs about a quarter slower when its
      // 512-bit loads span two cache lines, so the table loop takes the
      // bytes up to a 64-byte boundary.
      const std::size_t head = -std::bit_cast<std::uintptr_t>(bytes) & 63u;
      c = crc32_table(bytes, head, c);
      bytes += head;
      len -= head;
    }
    const std::size_t folded = len & ~std::size_t{15};
    c = wide ? crc32_vpclmul(bytes, folded, c) : crc32_clmul(bytes, folded, c);
    bytes += folded;
    len -= folded;
  }
#endif
  // Short buffers, the tail under 16 bytes, and CPUs without PCLMUL.
  return crc32_table(bytes, len, c) ^ 0xFFFFFFFFu;
}

FileBytes read_file(const std::string& path, const char* what,
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
  const auto size = static_cast<std::size_t>(st.st_size);
  FileBytes bytes{std::make_unique_for_overwrite<char[]>(size), size};
  for (std::size_t got = 0; got < size;) {
    const ssize_t n = ::read(fd, bytes.data.get() + got, size - got);
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
