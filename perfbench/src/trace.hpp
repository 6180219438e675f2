#pragma once
// Outside-in span recorder. The benchmark wraps each call it makes into a
// library layer in a span (name, start, end, parent span, request id);
// spans stay in memory and are written out when the run ends. A span's
// self time is its duration minus the time its child spans cover.
//
// A disabled tracer records nothing and costs one branch per span, so the
// untraced runs that produce the end-to-end metrics carry no tracing work.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "vf/util/mutex.hpp"
#include "vf/util/thread_annotations.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record one finished span; returns its id (0 when disabled). `parent`
  /// is the id of the enclosing span (0 = root).
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t request = 0);

  /// Reserve an id for a span whose end is not known yet, so children can
  /// name it as their parent; close() fills in the times (0 = disabled).
  std::uint64_t open(const char* name, std::uint64_t parent = 0,
                     std::uint64_t request = 0);
  void close(std::uint64_t id, Clock::time_point start, Clock::time_point end);

  struct Totals {
    double seconds = 0.0;       ///< summed durations
    double self_seconds = 0.0;  ///< summed self times
    std::size_t count = 0;
    std::vector<double> durations;  ///< per-span seconds (for quantiles)
  };
  /// Per-name totals over every recorded span.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Write the spans (up to `cap` of them) as Chrome trace-event JSON plus
  /// the per-name totals. Returns false when the file cannot be written.
  bool write(const std::string& path, std::size_t cap = 20000) const;

 private:
  struct SpanRec {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
  };

  const bool enabled_;
  mutable vf::util::Mutex mu_{"perfbench.trace"};
  std::vector<SpanRec> spans_ VF_GUARDED_BY(mu_);
};

}  // namespace perfbench
