#pragma once
// The four workloads (see NOTES.md for why each exists). Each runs in its
// own process: set-up, one timed window of Args::seconds, output checks,
// then either the remaining set-up repetitions (setup_s is the median of
// Args::setup_reps) or, in a traced run, the outside-in layer replays.

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

void run_grid(const Args& args, Tracer& tracer, Report& report);
/// `campaign` selects serve_campaign (16 sessions, Zipf keys) over
/// serve_hot (2 sessions).
void run_serve(const Args& args, bool campaign, Tracer& tracer,
               Report& report);
void run_insitu(const Args& args, Tracer& tracer, Report& report);

/// OpenMP threads every workload runs at: each run is pinned to one CPU
/// (NOTES.md, Noise findings).
inline constexpr int kOmpThreads = 1;
/// Threads of a workload that do work (they share the run's one CPU).
[[nodiscard]] int busy_threads_for(const std::string& workload);

}  // namespace perfbench
