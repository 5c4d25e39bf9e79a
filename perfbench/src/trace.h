// Spans and sample statistics.
//
// A traced run records one span around every public call the benchmark
// makes into the program, under a per-slot root span; spans of one slot
// share its slot id. Spans stay in memory and are written out as JSON
// lines when the run ends. Order statistics are taken from raw samples.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name = "";
  int slot = 0;
  int parent = -1;  // index of the parent span, -1 for a root
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index, or -1 when tracing is off.
  int begin(const char* name, int slot, int parent = -1);
  void end(int span);

  /// Durations in seconds of the closed spans called `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Writes one JSON object per span to `path`; false on an I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Closes its span when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int slot, int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, slot, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Nearest-rank order statistic of the raw samples, q in (0, 1].
double quantile(std::vector<double> samples, double q);
double mean(const std::vector<double>& samples);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

}  // namespace perfbench
