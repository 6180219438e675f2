#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  const vf::util::MutexLock lock(mu_);
  spans_.push_back({name, to_ns(start), to_ns(end), parent, request});
  return spans_.size();
}

std::uint64_t Tracer::open(const char* name, std::uint64_t parent,
                           std::uint64_t request) {
  if (!enabled_) return 0;
  const vf::util::MutexLock lock(mu_);
  spans_.push_back({name, 0, 0, parent, request});
  return spans_.size();
}

void Tracer::close(std::uint64_t id, Clock::time_point start,
                   Clock::time_point end) {
  if (id == 0) return;
  const vf::util::MutexLock lock(mu_);
  auto& s = spans_[id - 1];
  s.start_ns = to_ns(start);
  s.end_ns = to_ns(end);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const vf::util::MutexLock lock(mu_);
  // Child time per parent id, then self = duration - children.
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const auto& s : spans_) {
    if (s.parent != 0 && s.parent <= spans_.size()) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i + 1]) * 1e-9;
    auto& t = out[s.name];
    t.seconds += dur;
    t.self_seconds += std::max(0.0, self);
    ++t.count;
    t.durations.push_back(dur);
  }
  return out;
}

bool Tracer::write(const std::string& path, std::size_t cap) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto sums = totals();
  const vf::util::MutexLock lock(mu_);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [");
  const std::size_t n = std::min(cap, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %llu, \"request\": %llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - base) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i + 1,
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n], \"spans_total\": %zu, \"spans_written\": %zu, "
                  "\"totals\": {",
               spans_.size(), n);
  bool first = true;
  for (const auto& [name, t] : sums) {
    std::fprintf(f,
                 "%s\n\"%s\": {\"count\": %zu, \"seconds\": %.9f, "
                 "\"self_seconds\": %.9f}",
                 first ? "" : ",", name.c_str(), t.count, t.seconds,
                 t.self_seconds);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
