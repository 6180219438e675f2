// Fault-injection registry, atomic-write protocol, CRC section framing,
// byte cursors, and the retry policy — the primitives every crash-safe
// format builds on. Every failure leg of atomic_write_file is driven
// deterministically through the failpoints and must leave the destination
// exactly as it was.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "vf/util/atomic_io.hpp"
#include "vf/util/fault.hpp"
#include "vf/util/rng.hpp"

namespace {

namespace fault = vf::util::fault;
namespace fs = std::filesystem;

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    dir_ = fs::temp_directory_path() /
           ("vf_fault_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::clear();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Files currently in the test directory (to assert no temp leftovers).
  [[nodiscard]] std::vector<std::string> dir_entries() const {
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(dir_)) {
      names.push_back(e.path().filename().string());
    }
    return names;
  }

  fs::path dir_;
};

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// ---- failpoint registry ---------------------------------------------------

TEST_F(FaultTest, UnarmedSitePassesAndCountsHits) {
  EXPECT_EQ(fault::fire("never_armed"), fault::Mode::Off);
  EXPECT_FALSE(fault::should_fail("never_armed"));
  EXPECT_EQ(fault::hits("never_armed"), 2u);
}

TEST_F(FaultTest, ArmedSiteFailsOnceByDefault) {
  fault::arm("once", {fault::Mode::Error});
  EXPECT_EQ(fault::fire("once"), fault::Mode::Error);
  EXPECT_EQ(fault::fire("once"), fault::Mode::Off);  // times=1 exhausted
  EXPECT_EQ(fault::fire("once"), fault::Mode::Off);
}

TEST_F(FaultTest, AfterSkipsLeadingHits) {
  fault::arm("late", {fault::Mode::Error, /*after=*/2, /*times=*/1});
  EXPECT_EQ(fault::fire("late"), fault::Mode::Off);
  EXPECT_EQ(fault::fire("late"), fault::Mode::Off);
  EXPECT_EQ(fault::fire("late"), fault::Mode::Error);
  EXPECT_EQ(fault::fire("late"), fault::Mode::Off);
}

TEST_F(FaultTest, TimesMinusOneFailsForever) {
  fault::arm("forever", {fault::Mode::ShortWrite, /*after=*/1, /*times=*/-1});
  EXPECT_EQ(fault::fire("forever"), fault::Mode::Off);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fault::fire("forever"), fault::Mode::ShortWrite);
  }
}

TEST_F(FaultTest, RearmResetsHitCounter) {
  fault::arm("rearm", {fault::Mode::Error, /*after=*/0, /*times=*/1});
  EXPECT_EQ(fault::fire("rearm"), fault::Mode::Error);
  EXPECT_EQ(fault::fire("rearm"), fault::Mode::Off);
  fault::arm("rearm", {fault::Mode::Error, /*after=*/0, /*times=*/1});
  EXPECT_EQ(fault::fire("rearm"), fault::Mode::Error);
}

TEST_F(FaultTest, DisarmStopsInjection) {
  fault::arm("gone", {fault::Mode::Error, /*after=*/0, /*times=*/-1});
  EXPECT_EQ(fault::fire("gone"), fault::Mode::Error);
  fault::disarm("gone");
  EXPECT_EQ(fault::fire("gone"), fault::Mode::Off);
}

TEST_F(FaultTest, ClearResetsEverything) {
  fault::arm("a", {fault::Mode::Error});
  fault::fire("a");
  fault::clear();
  EXPECT_EQ(fault::fire("a"), fault::Mode::Off);
  EXPECT_EQ(fault::hits("a"), 1u);  // the post-clear hit only
  EXPECT_TRUE(fault::armed_sites().empty());
}

TEST_F(FaultTest, ArmedSitesListsArmedOnly) {
  fault::arm("alpha", {fault::Mode::Error});
  fault::arm("beta", {fault::Mode::BadAlloc});
  fault::fire("gamma");  // hit but never armed
  auto sites = fault::armed_sites();
  EXPECT_EQ(sites.size(), 2u);
  fault::disarm("alpha");
  sites = fault::armed_sites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], "beta");
}

TEST_F(FaultTest, ParseSpecGrammar) {
  fault::Spec s;
  bool armed = false;

  ASSERT_TRUE(fault::parse_spec("error", s, armed));
  EXPECT_TRUE(armed);
  EXPECT_EQ(s.mode, fault::Mode::Error);
  EXPECT_EQ(s.after, 0);
  EXPECT_EQ(s.times, 1);

  ASSERT_TRUE(fault::parse_spec("short:2", s, armed));
  EXPECT_TRUE(armed);
  EXPECT_EQ(s.mode, fault::Mode::ShortWrite);
  EXPECT_EQ(s.after, 2);
  EXPECT_EQ(s.times, 1);

  ASSERT_TRUE(fault::parse_spec("alloc:3:-1", s, armed));
  EXPECT_EQ(s.mode, fault::Mode::BadAlloc);
  EXPECT_EQ(s.after, 3);
  EXPECT_EQ(s.times, -1);

  armed = true;
  ASSERT_TRUE(fault::parse_spec("off", s, armed));
  EXPECT_FALSE(armed);

  EXPECT_FALSE(fault::parse_spec("", s, armed));
  EXPECT_FALSE(fault::parse_spec("banana", s, armed));
  EXPECT_FALSE(fault::parse_spec("error:x", s, armed));
  EXPECT_FALSE(fault::parse_spec("error:1:y", s, armed));
  EXPECT_FALSE(fault::parse_spec("error:1:2:3", s, armed));
  EXPECT_FALSE(fault::parse_spec("error:-1", s, armed));  // negative after
}

TEST_F(FaultTest, EnvArming) {
  ASSERT_EQ(::setenv("VF_FAULT_ENV_PROBE", "error:1", 1), 0);
  fault::reload_env();
  ::unsetenv("VF_FAULT_ENV_PROBE");
  EXPECT_EQ(fault::fire("env_probe"), fault::Mode::Off);
  EXPECT_EQ(fault::fire("env_probe"), fault::Mode::Error);
  EXPECT_EQ(fault::fire("env_probe"), fault::Mode::Off);
}

TEST_F(FaultTest, EnvOffDisarms) {
  fault::arm("env_off_probe", {fault::Mode::Error, /*after=*/0, /*times=*/-1});
  ASSERT_EQ(::setenv("VF_FAULT_ENV_OFF_PROBE", "off", 1), 0);
  fault::reload_env();
  ::unsetenv("VF_FAULT_ENV_OFF_PROBE");
  EXPECT_EQ(fault::fire("env_off_probe"), fault::Mode::Off);
}

TEST_F(FaultTest, MalformedEnvIgnored) {
  ASSERT_EQ(::setenv("VF_FAULT_ENV_BAD_PROBE", "nonsense:q", 1), 0);
  fault::reload_env();
  ::unsetenv("VF_FAULT_ENV_BAD_PROBE");
  EXPECT_EQ(fault::fire("env_bad_probe"), fault::Mode::Off);
}

// ---- atomic_write_file ----------------------------------------------------

TEST_F(FaultTest, AtomicWriteWritesAndLeavesNoTemp) {
  const auto p = path("out.bin");
  vf::util::atomic_write_file(p, [](std::ostream& o) { o << "hello"; });
  EXPECT_EQ(slurp(p), "hello");
  EXPECT_EQ(dir_entries().size(), 1u);  // no .tmp leftover
}

TEST_F(FaultTest, AtomicWriteReplacesExisting) {
  const auto p = path("out.bin");
  vf::util::atomic_write_file(p, [](std::ostream& o) { o << "old"; });
  vf::util::atomic_write_file(p, [](std::ostream& o) { o << "new"; });
  EXPECT_EQ(slurp(p), "new");
}

TEST_F(FaultTest, EveryFailureLegLeavesDestinationUntouched) {
  const auto p = path("precious.bin");
  vf::util::atomic_write_file(p, [](std::ostream& o) { o << "precious"; });

  const char* error_sites[] = {"atomic_open", "atomic_fsync", "atomic_rename"};
  for (const char* site : error_sites) {
    fault::clear();
    fault::arm(site, {fault::Mode::Error});
    EXPECT_THROW(vf::util::atomic_write_file(
                     p, [](std::ostream& o) { o << "clobber"; }),
                 std::runtime_error)
        << site;
    EXPECT_EQ(slurp(p), "precious") << site;
    EXPECT_EQ(dir_entries().size(), 1u) << site;  // temp cleaned up
  }

  fault::clear();
  fault::arm("atomic_write", {fault::Mode::ShortWrite});
  EXPECT_THROW(vf::util::atomic_write_file(
                   p, [](std::ostream& o) { o << "torn-to-shreds"; }),
               std::runtime_error);
  EXPECT_EQ(slurp(p), "precious");
  EXPECT_EQ(dir_entries().size(), 1u);
}

TEST_F(FaultTest, RetriesRideOutTransientWriteFaults) {
  const auto p = path("retried.bin");
  fault::arm("atomic_fsync", {fault::Mode::Error, /*after=*/0, /*times=*/1});
  vf::util::with_retries(2, 0, [&] {
    vf::util::atomic_write_file(p, [](std::ostream& o) { o << "landed"; });
    return 0;
  });
  EXPECT_EQ(slurp(p), "landed");
}

// ---- with_retries ---------------------------------------------------------

TEST_F(FaultTest, WithRetriesSucceedsAfterTransientErrors) {
  int calls = 0;
  const int got = vf::util::with_retries(3, 0, [&] {
    if (++calls < 3) throw std::runtime_error("transient");
    return 42;
  });
  EXPECT_EQ(got, 42);
  EXPECT_EQ(calls, 3);
}

TEST_F(FaultTest, WithRetriesRethrowsWhenExhausted) {
  int calls = 0;
  EXPECT_THROW(vf::util::with_retries(2, 0,
                                      [&]() -> int {
                                        ++calls;
                                        throw std::runtime_error("persistent");
                                      }),
               std::runtime_error);
  EXPECT_EQ(calls, 2);
}

TEST_F(FaultTest, WithRetriesDoesNotCatchLogicErrors) {
  int calls = 0;
  EXPECT_THROW(vf::util::with_retries(5, 0,
                                      [&]() -> int {
                                        ++calls;
                                        throw std::logic_error("bug");
                                      }),
               std::logic_error);
  EXPECT_EQ(calls, 1);  // programming errors are not transient I/O
}

TEST_F(FaultTest, RetryJitterIsDeterministicPerSeed) {
  vf::util::RetryPolicy policy;
  policy.attempts = 5;
  policy.initial_delay_ms = 100;
  policy.jitter_seed = 42;
  const auto a = vf::util::retry_delays_ms(policy);
  const auto b = vf::util::retry_delays_ms(policy);
  ASSERT_EQ(a.size(), 4u);  // one sleep per retry, none before the first try
  EXPECT_EQ(a, b);          // same seed -> same schedule, reproducible runs

  // Jitter keeps each delay inside [base/2, base] of the doubling ladder.
  int base = policy.initial_delay_ms;
  for (const int d : a) {
    EXPECT_GE(d, base / 2);
    EXPECT_LE(d, base);
    base *= 2;
  }

  policy.jitter_seed = 43;
  EXPECT_NE(vf::util::retry_delays_ms(policy), a);  // seeds decorrelate

  policy.jitter_seed = 0;  // jitter off: the raw exponential ladder
  EXPECT_EQ(vf::util::retry_delays_ms(policy),
            (std::vector<int>{100, 200, 400, 800}));
}

TEST_F(FaultTest, WithRetriesHonoursTheElapsedTimeCap) {
  vf::util::RetryPolicy policy;
  policy.attempts = 100;      // the attempt budget alone would retry forever
  policy.initial_delay_ms = 20;
  policy.max_elapsed_ms = 1;  // but the clock runs out first
  int calls = 0;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(vf::util::with_retries(policy,
                                      [&]() -> int {
                                        ++calls;
                                        throw std::runtime_error("down");
                                      }),
               std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(calls, 100);  // the cap cut the attempt budget short
  EXPECT_GE(calls, 1);
  // The cap is checked before sleeping, so the total stays near the budget
  // instead of overshooting by a full backoff (bound loose for CI noise).
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST_F(FaultTest, WithRetriesPolicyFormStillRetriesToSuccess) {
  vf::util::RetryPolicy policy;
  policy.attempts = 4;
  policy.initial_delay_ms = 1;
  policy.jitter_seed = 7;
  int calls = 0;
  const int got = vf::util::with_retries(policy, [&] {
    if (++calls < 3) throw std::runtime_error("transient");
    return 7;
  });
  EXPECT_EQ(got, 7);
  EXPECT_EQ(calls, 3);
}

// ---- CRC32 + section framing ----------------------------------------------

TEST_F(FaultTest, Crc32KnownAnswer) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  EXPECT_EQ(vf::util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(vf::util::crc32("", 0), 0u);
}

TEST_F(FaultTest, Crc32Chains) {
  const std::uint32_t part = vf::util::crc32("12345", 5);
  EXPECT_EQ(vf::util::crc32("6789", 4, part), 0xCBF43926u);
}

/// Bit-at-a-time CRC-32 (IEEE, reflected polynomial 0xEDB88320), sharing
/// nothing with the library's tables: a wrong slicing table would still
/// round-trip the library's own files, but not match this.
std::uint32_t crc32_reference(const unsigned char* bytes, std::size_t len,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1u) : c >> 1u;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  vf::util::Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.below(256));
  return out;
}

TEST_F(FaultTest, Crc32MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-1024 cover the 64- and 256-byte thresholds of the 128- and
  // 512-bit carry-less folds (the 512-bit loop runs 1-4 times), the 16-byte
  // steps, every tail length, and all together; offsets 0-15 put the loads
  // at every alignment.
  const auto buf = random_bytes(1024 + 16, 5);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(vf::util::crc32(buf.data() + offset, len),
                crc32_reference(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_F(FaultTest, Crc32MatchesReferenceOnAModelSizedBuffer) {
  // About the size of one paper-width model's network section, then a
  // paper-width model file's exact length, whose last 10 bytes are a tail.
  for (const std::size_t len : {std::size_t{3} << 19, std::size_t{1487946}}) {
    const auto buf = random_bytes(len, 6);
    EXPECT_EQ(vf::util::crc32(buf.data(), buf.size()),
              crc32_reference(buf.data(), buf.size()))
        << "length " << len;
  }
  // From 64 KiB the 512-bit fold starts at a cache line; offsets 0-63 give
  // every count of bytes before it.
  const auto buf = random_bytes(65536 + 64, 9);
  for (std::size_t offset = 0; offset < 64; ++offset) {
    ASSERT_EQ(vf::util::crc32(buf.data() + offset, 65536),
              crc32_reference(buf.data() + offset, 65536))
        << "offset " << offset;
  }
}

TEST_F(FaultTest, Crc32ChainsAcrossArbitrarySplits) {
  const auto buf = random_bytes(4099, 7);
  const std::uint32_t whole = crc32_reference(buf.data(), buf.size());
  vf::util::Rng rng(8);
  // Fixed cuts put a part's start or end on every edge of the 256-, 64-
  // and 16-byte folds, so chained calls enter and leave them mid-buffer.
  std::vector<std::size_t> cuts = {
      0,    1,    15,   16,   17,   31,   32,   33,   63,   64,
      65,   79,   80,   127,  128,  129,  255,  256,  257,  271,
      272,  319,  320,  511,  512,  513,  3842, 3843, 3844, 4035,
      4082, 4083, 4084, 4098, 4099};
  for (int i = 0; i < 64; ++i) cuts.push_back(rng.below(4100));
  for (const std::size_t a : cuts) {
    for (const std::size_t b : {a, (a + 4099) / 2, std::size_t{4099}}) {
      // buf = [0, a) [a, b) [b, end), each part seeded by the one before.
      std::uint32_t c = vf::util::crc32(buf.data(), a);
      c = vf::util::crc32(buf.data() + a, b - a, c);
      c = vf::util::crc32(buf.data() + b, buf.size() - b, c);
      ASSERT_EQ(c, whole) << "split at " << a << " and " << b;
    }
  }
  // A seed carried from the reference works the same way.
  EXPECT_EQ(vf::util::crc32(buf.data() + 100, buf.size() - 100,
                            crc32_reference(buf.data(), 100)),
            whole);
}

TEST_F(FaultTest, CrcSectionRoundTrip) {
  std::ostringstream os;
  vf::util::write_crc_section(os, std::string("payload"));
  std::istringstream is(os.str());
  EXPECT_EQ(vf::util::read_crc_section(is, 1024, "test"), "payload");
  EXPECT_NO_THROW(vf::util::expect_eof(is, "test"));

  // The in-memory reader parses the same framing, as a view.
  const std::string blob = os.str();
  vf::util::ByteReader r(blob, "test");
  EXPECT_EQ(r.section(), "payload");
  EXPECT_NO_THROW(r.expect_end());
}

TEST_F(FaultTest, CrcSectionRejectsOversizeBeforeAllocating) {
  std::ostringstream os;
  vf::util::write_crc_section(os, std::string("payload"));
  std::string blob = os.str();
  // Pretend the size field says 2^60 bytes: the reader must reject it
  // against max_size instead of attempting the allocation.
  const std::uint64_t huge = 1ull << 60;
  blob.replace(0, sizeof huge,
               reinterpret_cast<const char*>(&huge), sizeof huge);
  std::istringstream is(blob);
  EXPECT_THROW(vf::util::read_crc_section(is, blob.size(), "test"),
               std::runtime_error);
  vf::util::ByteReader r(blob, "test");
  EXPECT_THROW((void)r.section(), std::runtime_error);
}

TEST_F(FaultTest, CrcSectionRejectsEveryTruncation) {
  std::ostringstream os;
  vf::util::write_crc_section(os, std::string("payload"));
  const std::string blob = os.str();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::string cut = blob.substr(0, len);
    std::istringstream is(cut);
    EXPECT_THROW(vf::util::read_crc_section(is, len, "test"),
                 std::runtime_error)
        << "truncated to " << len << " bytes";
    vf::util::ByteReader r(cut, "test");
    EXPECT_THROW((void)r.section(), std::runtime_error)
        << "truncated to " << len << " bytes";
  }
}

TEST_F(FaultTest, CrcSectionRejectsEveryBitFlip) {
  std::ostringstream os;
  vf::util::write_crc_section(os, std::string("payload"));
  const std::string blob = os.str();
  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = blob;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      std::istringstream is(bad);
      EXPECT_THROW(vf::util::read_crc_section(is, blob.size(), "test"),
                   std::runtime_error)
          << "flip at byte " << byte << " bit " << bit;
      vf::util::ByteReader r(bad, "test");
      EXPECT_THROW((void)r.section(), std::runtime_error)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST_F(FaultTest, ExpectEofRejectsTrailingBytes) {
  std::istringstream trailing("x");
  EXPECT_THROW(vf::util::expect_eof(trailing, "test"), std::runtime_error);
  std::istringstream empty;
  EXPECT_NO_THROW(vf::util::expect_eof(empty, "test"));
}

// ---- ByteWriter / ByteReader ----------------------------------------------

TEST_F(FaultTest, ByteCursorRoundTrip) {
  vf::util::ByteWriter w;
  w.pod(std::uint32_t{7});
  w.pod(3.5);
  w.str("name");
  const std::string buf = w.data();

  vf::util::ByteReader r(buf, "test");
  EXPECT_EQ(r.pod<std::uint32_t>(), 7u);
  EXPECT_EQ(r.pod<double>(), 3.5);
  EXPECT_EQ(r.str(64), "name");
  EXPECT_NO_THROW(r.expect_end());
}

TEST_F(FaultTest, ByteReaderOverrunThrows) {
  const std::string buf(3, 'x');
  vf::util::ByteReader r(buf, "test");
  EXPECT_THROW(r.pod<std::uint64_t>(), std::runtime_error);
}

TEST_F(FaultTest, ByteReaderStrRejectsCorruptLength) {
  vf::util::ByteWriter w;
  w.pod(std::uint32_t{1000});  // claims 1000 bytes...
  w.bytes("abc", 3);           // ...but only 3 follow
  vf::util::ByteReader r(w.data(), "test");
  EXPECT_THROW(r.str(4096), std::runtime_error);

  vf::util::ByteWriter w2;
  w2.str("abc");
  vf::util::ByteReader r2(w2.data(), "test");
  EXPECT_THROW(r2.str(2), std::runtime_error);  // above caller's max_len
}

TEST_F(FaultTest, ByteReaderExpectEndRejectsLeftover) {
  vf::util::ByteWriter w;
  w.pod(std::uint32_t{1});
  w.pod(std::uint32_t{2});
  vf::util::ByteReader r(w.data(), "test");
  (void)r.pod<std::uint32_t>();
  EXPECT_THROW(r.expect_end(), std::runtime_error);
}

}  // namespace
