#pragma once
// vf::obs umbrella: instrumentation macros and the metrics JSON exporter.
//
// Instrument code through these macros, never by calling the registry
// directly from hot paths:
//
//   VF_OBS_SPAN("inference");                    // RAII trace span (names
//                                                // are single path segments;
//                                                // nesting adds the '/')
//   VF_OBS_COUNT("nn.gemm.calls", 1);            // counter += n
//   VF_OBS_GAUGE("nn.train.last_loss", loss);    // gauge = v
//   VF_OBS_HIST("core.reconstruct.tile_seconds", s); // histogram.record(v)
//   VF_OBS_HIST_TIMER("nn.train.epoch_seconds"); // RAII scope timer -> hist
//
// Two switches:
//   compile time — the VF_OBS CMake option (default ON) defines
//       VF_OBS_ENABLED; with -DVF_OBS=OFF every macro expands to nothing
//       and instrumented code carries zero overhead.
//   runtime     — vf::obs::set_enabled() / the VF_OBS environment variable;
//       when off, each macro costs one relaxed atomic load and a branch.

#include "vf/obs/bench_recorder.hpp"
#include "vf/obs/metrics.hpp"
#include "vf/obs/span.hpp"

namespace vf::obs {

/// The full metrics state — counters, gauges, histogram snapshots, and the
/// aggregated span tree — as one versioned JSON document ("vf-metrics").
[[nodiscard]] std::string metrics_json();

/// Atomically write metrics_json() to `path` (vfctl --metrics-out).
void write_metrics_json(const std::string& path);

}  // namespace vf::obs

#ifndef VF_OBS_ENABLED
#define VF_OBS_ENABLED 1
#endif

#if VF_OBS_ENABLED

#define VF_OBS_CONCAT_INNER(a, b) a##b
#define VF_OBS_CONCAT(a, b) VF_OBS_CONCAT_INNER(a, b)

#define VF_OBS_SPAN(name) \
  const ::vf::obs::Span VF_OBS_CONCAT(vf_obs_span_, __LINE__)(name)

#define VF_OBS_HIST_TIMER(name) \
  const ::vf::obs::ScopedHistTimer VF_OBS_CONCAT(vf_obs_ht_, __LINE__)(name)

// The function-local static resolves the registry lookup once per call
// site; afterwards a hit is one relaxed atomic op on a per-thread shard.
#define VF_OBS_COUNT(name, n)                                       \
  do {                                                              \
    if (::vf::obs::enabled()) {                                     \
      static ::vf::obs::Counter& vf_obs_counter_ref =               \
          ::vf::obs::counter(name);                                 \
      vf_obs_counter_ref.add(static_cast<std::int64_t>(n));         \
    }                                                               \
  } while (false)

#define VF_OBS_GAUGE(name, v)                                       \
  do {                                                              \
    if (::vf::obs::enabled()) {                                     \
      static ::vf::obs::Gauge& vf_obs_gauge_ref =                   \
          ::vf::obs::gauge(name);                                   \
      vf_obs_gauge_ref.set(static_cast<double>(v));                 \
    }                                                               \
  } while (false)

#define VF_OBS_HIST(name, v)                                        \
  do {                                                              \
    if (::vf::obs::enabled()) {                                     \
      static ::vf::obs::Histogram& vf_obs_hist_ref =                \
          ::vf::obs::histogram(name);                               \
      vf_obs_hist_ref.record(static_cast<double>(v));               \
    }                                                               \
  } while (false)

#else  // VF_OBS_ENABLED == 0: instrumentation compiles out entirely.

#define VF_OBS_SPAN(name) \
  do {                    \
  } while (false)
#define VF_OBS_HIST_TIMER(name) \
  do {                          \
  } while (false)
#define VF_OBS_COUNT(name, n) \
  do {                        \
  } while (false)
#define VF_OBS_GAUGE(name, v) \
  do {                        \
  } while (false)
#define VF_OBS_HIST(name, v) \
  do {                       \
  } while (false)

#endif  // VF_OBS_ENABLED
