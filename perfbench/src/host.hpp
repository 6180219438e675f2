#pragma once
// The run's host: pinning to one CPU, and the host-noise record (CPU steal
// from /proc/stat, the resident high-water mark from /proc/self, the work
// directory's filesystem). The record gates no run; it lets a run slowed
// by the host be told apart from a slow program.

#include <cstdint>
#include <string>

namespace perfbench {

/// Aggregate CPU jiffies of the host (the "cpu" line of /proc/stat).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTimes read_cpu_times();
/// Steal over total CPU time between two readings (0 when unknown).
[[nodiscard]] double steal_share(const CpuTimes& from, const CpuTimes& to);

/// CPU seconds the whole process or the calling thread has run (0 when
/// the clock is unavailable).
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

/// Reset the process's resident high-water mark (VmHWM), after handing
/// freed heap back to the kernel so the mark starts from live memory
/// rather than from whatever set-up left in the allocator. False where
/// the kernel refuses; the peak then covers the whole process.
bool reset_peak_rss();
/// VmHWM in MiB.
[[nodiscard]] double peak_rss_mb();

/// Filesystem type of `path` ("tmpfs", "ext4", "overlay", ... or the
/// statfs magic in hex).
[[nodiscard]] std::string fs_type(const std::string& path);

/// Online CPUs of the host.
[[nodiscard]] int cpu_count();

/// Pin the calling thread, and so every thread it creates afterwards, to
/// one CPU of its allowed set: the highest-numbered one, away from CPU 0,
/// where the kernel tends to take interrupts. Returns that CPU, or -1 when
/// the kernel refuses (the run then uses every CPU).
int pin_to_one_cpu();
/// Let the calling thread, and threads it creates afterwards, run on every
/// CPU the process may use again (undoes pin_to_one_cpu for this thread).
void unpin_cpus();

}  // namespace perfbench
