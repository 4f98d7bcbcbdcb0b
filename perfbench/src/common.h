// Shared helpers for the layered benchmark: clocks, order statistics, the
// metric sink that becomes the result line, and the in-memory span
// recorder of the traced run.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Exact quantile (nearest rank) of a sample; sorts *v in place. 0 if empty.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

// Share of the host's CPU time the hypervisor took from this machine
// (steal, all CPUs) since construction, in percent. It tells a run spoiled
// by the host apart from one spoiled by the program.
class StealMeter {
 public:
  StealMeter();
  double Percent() const;

 private:
  uint64_t start_ns_;
  uint64_t start_ticks_;
};

// One named number of the result. `n` is the sample count behind it (1
// for a single measurement such as a build time).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t n = 1;
};

class MetricSink {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           uint64_t n = 1);
  const std::vector<Metric>& metrics() const { return metrics_; }
  // Value of an already-added metric (0 if absent).
  double Get(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

// Spans around calls into the library's public functions, recorded only
// in the traced run. Storage is reserved up front so recording never
// allocates; spans past the capacity are counted and dropped.
class SpanRecorder {
 public:
  struct Span {
    uint32_t id;
    uint32_t parent;  // 0 = root
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  static SpanRecorder& Get();

  void Enable(size_t capacity);
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span of the calling thread.
  // Returns 0 (and records nothing) when disabled.
  uint32_t Open(const char* name);
  void Close(uint32_t id);
  // Records a finished span with explicit times (per-request spans whose
  // start is a schedule time, not a call).
  void Record(const char* name, uint32_t parent, uint64_t start_ns,
              uint64_t end_ns);
  uint32_t Current() const;

  // JSONL, one span per line; returns false if the file cannot be written.
  bool WriteJsonl(const std::string& path) const;
  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(SpanRecorder::Get().Open(name)) {}
  ~ScopedSpan() { SpanRecorder::Get().Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t id_;
};

// Times `fn` and returns seconds, inside a span named `name`.
template <typename Fn>
double TimedSeconds(const char* name, Fn&& fn) {
  ScopedSpan span(name);
  const uint64_t start = NowNs();
  fn();
  return SecondsSince(start);
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
