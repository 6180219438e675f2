#pragma once
// The load generator for the serve tier: one thread that sends queries and
// collects their replies in send order. Every query runs from wire bytes in
// to reply bytes out without TCP: the request is VFW1-encoded and decoded
// before ShardRouter::submit, and the reply is encoded and decoded after
// its future resolves.
//
//   closed_loop  a fixed number of queries outstanding; with one, each
//                query is sent when the previous reply is decoded (an
//                analyst probing interactively); latency runs from the
//                request's encoding to its decoded reply
//   open_loop    Poisson arrivals at a fixed rate, sent on schedule
//                whether or not earlier queries finished; latency runs
//                from the scheduled send to the decoded reply, so a late
//                generator counts against the server
//
// Only the caller's thread runs; a LoadGen is used by one thread at a time.

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "vf/serve/router.hpp"
#include "vf/util/rng.hpp"

namespace perfbench {

/// Seeded stream of keys, query points and arrival gaps. Keys are uniform
/// over the sessions, or Zipf-distributed over a seeded rank -> session
/// permutation when `zipf_exponent` > 0.
class QueryStream {
 public:
  QueryStream(std::uint64_t seed, std::size_t sessions, double zipf_exponent,
              const vf::field::BoundingBox& box, std::size_t points);

  std::size_t next_session();
  std::vector<vf::field::Vec3> next_points();
  /// Exponential gap (seconds) of a Poisson process at `rate`.
  double next_gap(double rate);

 private:
  vf::util::Rng rng_;
  vf::field::BoundingBox box_;
  std::size_t points_;
  std::vector<double> cdf_;
  std::vector<std::size_t> rank_to_session_;
};

/// What a phase records: Latency keeps every answer's latency, Capacity
/// counts answers per time slice, Warmup only checks the answers.
enum class Phase : std::uint8_t { Warmup, Latency, Capacity };

/// What one phase saw.
struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t shed = 0;
  std::uint64_t harvested = 0;  ///< replies collected, each exactly once
  std::vector<double> latency_ms;  ///< Latency phase: per answered query
  std::vector<double> tagged_ms;   ///< latencies of tagged queries
  std::vector<double> lag_ms;      ///< open loop: how late each send was
  /// Capacity phase: answered queries per second in each kSlice.
  std::vector<double> slice_rates;
  double wall_s = 0.0;  ///< phase duration
  double cpu_s = 0.0;   ///< process CPU time over the phase
  double generator_cpu_s = 0.0;  ///< of that, the generating thread's
  /// Replies that were not a clean answer (error status, classical
  /// fallback, bad frame, non-finite value), with the first few reasons.
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  /// Count this phase's operations and failures into `report`.
  void report_to(Report& report) const;
};

/// An answered query kept for a reference check.
struct Checked {
  std::size_t session = 0;
  std::vector<vf::field::Vec3> points;
  std::vector<double> values;
};

class LoadGen {
 public:
  /// Evaluated at each send; tagged queries' latencies are also kept in
  /// PhaseResult::tagged_ms.
  using TagFn = std::function<bool()>;

  LoadGen(vf::serve::ShardRouter& router, std::vector<std::string> keys,
          Tracer& tracer, TagFn tag = nullptr);

  /// `outstanding` queries in flight for `seconds`, or until `count`
  /// queries were sent when `count` > 0.
  PhaseResult closed_loop(QueryStream& qs, Phase phase,
                          std::size_t outstanding, double seconds,
                          std::uint64_t count);
  /// Open loop at `rate` for `seconds` (Phase::Latency).
  PhaseResult open_loop(QueryStream& qs, double rate, double seconds);

  /// Every kCheckEvery-th answered query of the timed phases.
  [[nodiscard]] std::vector<Checked> take_checked();

  /// Latency-phase latencies of traced and untraced queries of a traced
  /// run (every other query carries spans), for the tracing overhead.
  struct Split {
    std::vector<double> traced_ms;
    std::vector<double> untraced_ms;
  };
  [[nodiscard]] const Split& split() const { return split_; }

  static constexpr std::uint64_t kCheckEvery = 97;
  static constexpr double kSlice = 0.5;
  /// Bookkeeping reserved per second of a timed closed loop.
  static constexpr double kClosedLoopRate = 5000.0;

 private:
  struct Pending {
    std::uint64_t id = 0;
    std::size_t session = 0;
    bool tagged = false;
    std::vector<vf::field::Vec3> points;
    Clock::time_point start;  ///< latency origin: due (open) or encode
    Clock::time_point submitted;
    std::uint64_t root_span = 0;
    std::future<vf::serve::PointResponse> future;
  };

  /// Start a phase of `seconds` expecting about `expected` queries (the
  /// bookkeeping is reserved up front, so its growth does not show in the
  /// program's peak memory).
  void begin(Phase phase, double seconds, std::size_t expected);
  /// Collect every outstanding reply and hand back the phase's result.
  PhaseResult finish();
  /// Encode, decode and submit one query; `due` is its scheduled send in
  /// an open loop (nullptr: now, and latency starts at the encoding).
  void send(std::size_t s, std::vector<vf::field::Vec3> points,
            const Clock::time_point* due);
  /// Wait for the oldest outstanding reply, decode and record it.
  void harvest_front();

  vf::serve::ShardRouter& router_;
  const std::vector<std::string> keys_;
  Tracer& tracer_;
  const TagFn tag_;

  std::deque<Pending> inflight_;
  PhaseResult result_;
  std::vector<std::uint64_t> slice_done_;  ///< Capacity: replies per kSlice
  std::vector<Checked> checked_;
  Split split_;
  Phase phase_ = Phase::Warmup;
  Clock::time_point phase_start_;
  double phase_cpu0_ = 0.0;
  double phase_thread_cpu0_ = 0.0;
  std::uint64_t next_id_ = 0;
};

/// The serve tier's counters over a timed window (`after` minus `before`)
/// and a latency phase's tail latency and (open loop) generator lag, under
/// their per-layer metric names. Returns the mean served points per batch.
double report_serve(const vf::serve::ServiceStats& before,
                    const vf::serve::ServiceStats& after,
                    const PhaseResult& open, Report& report);

/// Traced run: the request spans' mean wire and submit costs and median
/// wait, and the queue wait left of that wait beside `predict_points_us`
/// (the replayed compute of one batch).
void report_request_spans(const Tracer& tracer, double predict_points_us,
                          Report& report);

}  // namespace perfbench
