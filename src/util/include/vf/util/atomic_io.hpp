#pragma once
// Crash-safe file persistence primitives.
//
// Every binary artifact the library persists (VFNN/VFNT networks, VFMD
// models, VFB fields, VFCK training checkpoints) goes through
// atomic_write_file: the payload is written to a sibling temp file, flushed
// and fsync'd, and only then renamed over the destination. A crash at any
// point leaves either the old file or the new file — never a torn hybrid.
// The write path carries failpoints (atomic_open / atomic_write /
// atomic_fsync / atomic_rename, see vf/util/fault.hpp) so tests can
// deterministically exercise every failure leg.
//
// The section helpers frame variable-length payloads as
// `u64 size | bytes | u32 crc32`, which is how the v2 serialization formats
// detect torn writes and bit flips: a loader rejects a section whose size
// exceeds the bytes actually left in the file (no multi-GB allocations from
// a corrupt header) and whose checksum does not match. Loaders of files
// that fit in memory read them once with read_file and parse the buffer
// through a ByteReader, whose section() hands each payload out as a view.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "vf/util/rng.hpp"

namespace vf::util {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `len` bytes. Chainable:
/// pass the previous result as `seed` to extend a running checksum. On
/// x86-64, chosen once at run time from the CPU whatever the build's
/// -march, buffers are folded by carry-less multiplication: 512 bits per
/// instruction (AVX-512F with VPCLMULQDQ) from 256 bytes, 128 bits
/// (PCLMULQDQ) from 64 bytes. Shorter buffers, the last 0-15 bytes, and
/// other CPUs take a slicing-by-16 table loop, as do the bytes before the
/// first 64-byte boundary of a 512-bit fold over 64 KiB or more, so that
/// its loads do not span two cache lines. Every path gives the same value.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// A whole file's bytes, as read_file returns them: move-only, with
/// storage that was not zero-filled before the read wrote it.
struct FileBytes {
  std::unique_ptr<char[]> data;
  std::size_t size = 0;

  [[nodiscard]] std::string_view view() const { return {data.get(), size}; }
};

/// The whole regular file at `path` in one buffer, for loaders that parse
/// its view through a ByteReader. The buffer is written once, by the read.
/// `failpoint` names the fault site (see vf/util/fault.hpp) that injects an
/// open failure. Throws std::runtime_error tagged with `what` when the file
/// cannot be opened, is not a regular file, or cannot be read in full, so
/// no byte that was not read is ever returned.
FileBytes read_file(const std::string& path, const char* what,
                    const char* failpoint);

/// Atomically replace `path` with the bytes `writer` produces: write-temp,
/// flush, fsync, rename. On any failure (including injected faults) the
/// destination is untouched, the temp file is removed best-effort, and
/// std::runtime_error is thrown.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// Write one checksummed section: u64 payload size, payload, u32 CRC.
void write_crc_section(std::ostream& out, const std::string& payload);

/// Same framing, streaming straight from a caller buffer (no staging copy —
/// used for multi-hundred-MB field payloads).
void write_crc_section(std::ostream& out, const void* data, std::size_t len);

/// Read a section whose payload size must equal `expected` bytes into `dst`
/// (caller allocated). Throws std::runtime_error on size mismatch,
/// truncation, or checksum failure.
void read_crc_section_into(std::istream& in, void* dst, std::uint64_t expected,
                           const char* what);

/// Read back one checksummed section from a stream — the counterpart of
/// ByteReader::section() for files too large to read whole (VFB fields).
/// `max_size` bounds the allocation (callers pass the bytes remaining in
/// the file, so corrupt sizes are rejected before any allocation). Throws
/// std::runtime_error with `what` in the message on truncation, oversize,
/// or checksum mismatch.
std::string read_crc_section(std::istream& in, std::uint64_t max_size,
                             const char* what);

/// Throw std::runtime_error unless `in` is positioned exactly at EOF —
/// loaders call this last so trailing garbage is rejected, not ignored.
void expect_eof(std::istream& in, const char* what);

/// Bytes from the stream's current position to EOF (position restored).
std::uint64_t bytes_remaining(std::istream& in);

/// Append-only byte buffer for assembling section payloads in memory before
/// checksumming. POD values are written in native (little-endian on every
/// supported target) layout, matching the on-disk formats.
class ByteWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void bytes(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  /// Length-prefixed string: u32 size + bytes.
  void str(const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  [[nodiscard]] const std::string& data() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked cursor over an in-memory payload. Every overrun throws
/// std::runtime_error tagged with `what`, so a corrupt length field can
/// never read past the buffer or trigger an oversized allocation. The
/// reader views the caller's buffer, which must outlive it and every view
/// it hands out.
class ByteReader {
 public:
  ByteReader(std::string_view buf, const char* what) : buf_(buf), what_(what) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    bytes(&v, sizeof v);
    return v;
  }
  void bytes(void* dst, std::size_t len) {
    if (len > remaining()) overrun();
    if (len > 0) std::memcpy(dst, buf_.data() + at_, len);
    at_ += len;
  }
  /// The next `len` bytes as a view into the buffer (no copy).
  std::string_view view(std::size_t len) {
    if (len > remaining()) overrun();
    const std::string_view v = buf_.substr(at_, len);
    at_ += len;
    return v;
  }
  /// Length-prefixed string, rejecting lengths above `max_len`.
  std::string str(std::uint64_t max_len) {
    const auto len = pod<std::uint32_t>();
    if (len > max_len) overrun();
    return std::string(view(len));
  }
  /// One `u64 size | bytes | u32 crc32` section as write_crc_section frames
  /// it. Rejects a size past the bytes left, a missing checksum, and a
  /// checksum mismatch; returns the payload as a view into the buffer.
  std::string_view section();
  [[nodiscard]] std::uint64_t remaining() const { return buf_.size() - at_; }
  /// Throw unless the payload was consumed exactly (no trailing bytes).
  void expect_end() const {
    if (at_ != buf_.size()) overrun();
  }

 private:
  [[noreturn]] void overrun() const;
  [[noreturn]] void corrupt(const char* why) const;

  std::string_view buf_;
  std::size_t at_ = 0;
  const char* what_;
};

/// Retry policy for with_retries. Two independent caps bound the loop:
/// `attempts` (total calls) and `max_elapsed_ms` (wall clock across calls
/// and backoff sleeps; 0 = attempts-only) — whichever trips first rethrows
/// the last error. A nonzero `jitter_seed` replaces exact exponential
/// doubling with a deterministic uniform draw in [delay/2, delay], so a
/// fleet of clients that all failed at the same instant (a burst fault, a
/// restarted file server) fans back in spread out instead of re-colliding
/// on every backoff step.
struct RetryPolicy {
  int attempts = 1;
  int initial_delay_ms = 0;
  int max_elapsed_ms = 0;
  std::uint64_t jitter_seed = 0;  ///< 0 = no jitter
};

namespace detail {
/// Jitter one backoff step: uniform in [delay/2, delay] (identity when
/// rng is null or the delay is <= 0). Shared by with_retries and the
/// retry_delays_ms test hook so the unit tests pin the exact sequence.
inline int jittered_delay_ms(int delay_ms, Rng* rng) {
  if (rng == nullptr || delay_ms <= 0) return delay_ms;
  const int half = delay_ms / 2;
  return half + static_cast<int>(
                    rng->below(static_cast<std::uint32_t>(delay_ms - half) + 1));
}
}  // namespace detail

/// The exact backoff sleeps (ms) a with_retries(policy, ...) call would
/// perform if every attempt failed — one entry per retry. Deterministic
/// for a given policy; exists so tests can assert the jitter sequence
/// without sleeping through it.
std::vector<int> retry_delays_ms(const RetryPolicy& policy);

/// Run `attempt`; on std::runtime_error retry under `policy` (exponential
/// backoff starting at initial_delay_ms, doubling each retry, jittered
/// when seeded). Rethrows the last error once either cap is exhausted.
/// This is the CLI's transient-I/O policy: NFS hiccups and injected
/// faults get retried, persistent corruption still surfaces. Logic errors
/// (std::logic_error et al.) are never retried.
template <typename Fn>
auto with_retries(const RetryPolicy& policy, Fn&& attempt)
    -> decltype(attempt()) {
  const auto start = std::chrono::steady_clock::now();
  Rng rng(policy.jitter_seed);
  int delay_ms = policy.initial_delay_ms;
  for (int i = 1;; ++i) {
    try {
      return attempt();
    } catch (const std::runtime_error&) {
      if (i >= policy.attempts) throw;
      if (policy.max_elapsed_ms > 0) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        // Give up before sleeping into a budget already blown: a retry we
        // would only start after the cap helps nobody.
        if (elapsed >= policy.max_elapsed_ms) throw;
      }
      const int sleep_ms = detail::jittered_delay_ms(
          delay_ms, policy.jitter_seed != 0 ? &rng : nullptr);
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      delay_ms *= 2;
    }
  }
}

/// Attempts-only compatibility form (no elapsed cap, no jitter).
template <typename Fn>
auto with_retries(int attempts, int initial_delay_ms, Fn&& attempt)
    -> decltype(attempt()) {
  RetryPolicy policy;
  policy.attempts = attempts;
  policy.initial_delay_ms = initial_delay_ms;
  return with_retries(policy, std::forward<Fn>(attempt));
}

}  // namespace vf::util
