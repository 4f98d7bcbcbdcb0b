#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double n = static_cast<double>(v->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank > 0) --rank;
  return (*v)[std::min(rank, v->size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

namespace {
// Steal ticks summed over all CPUs (the 8th value of /proc/stat's "cpu").
uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  stat >> cpu;
  for (uint64_t& x : v) stat >> x;
  return v[7];
}
}  // namespace

StealMeter::StealMeter() : start_ns_(NowNs()), start_ticks_(StealTicks()) {}

double StealMeter::Percent() const {
  const double ticks = static_cast<double>(StealTicks() - start_ticks_);
  const double cpu_ticks = SecondsSince(start_ns_) *
                           static_cast<double>(::sysconf(_SC_CLK_TCK)) *
                           static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  return cpu_ticks > 0 ? 100.0 * ticks / cpu_ticks : 0;
}

void MetricSink::Add(const std::string& name, const std::string& unit,
                     double value, uint64_t n) {
  metrics_.push_back(Metric{name, unit, value, n});
}

double MetricSink::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

namespace {
// Open spans of the recording thread, innermost last. The recorder is
// driven from the benchmark's main thread only; worker threads hand their
// timestamps back and the main thread records them.
std::vector<uint32_t>& OpenStack() {
  static std::vector<uint32_t> stack;
  return stack;
}
}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Enable(size_t capacity) {
  spans_.reserve(capacity);
  OpenStack().reserve(64);
  enabled_ = true;
}

uint32_t SpanRecorder::Current() const {
  return OpenStack().empty() ? 0 : OpenStack().back();
}

uint32_t SpanRecorder::Open(const char* name) {
  if (!enabled_) return 0;
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return 0;
  }
  const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{id, Current(), name, NowNs(), 0});
  OpenStack().push_back(id);
  return id;
}

void SpanRecorder::Close(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = NowNs();
  if (!OpenStack().empty() && OpenStack().back() == id) OpenStack().pop_back();
}

void SpanRecorder::Record(const char* name, uint32_t parent, uint64_t start_ns,
                          uint64_t end_ns) {
  if (!enabled_) return;
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{id, parent, name, start_ns, end_ns});
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu}\n",
                 s.id, s.parent, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
