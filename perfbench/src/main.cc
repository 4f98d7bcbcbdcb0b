// perfbench: the repository's layered benchmark.
//
//   perfbench --workload offline_batch|serve_hl_point|serve_ch_mixed
//             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints one JSON object on its last stdout line: correctness counts and
// every metric with its unit and sample count. perfbench/run.py builds
// this binary, checks that line against BENCHMARK.json and prints the
// result line of the benchmark contract.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload offline_batch|serve_hl_point|"
               "serve_ch_mixed --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n");
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const perfbench::MetricSink& sink) {
  std::string out = "[";
  bool first = true;
  for (const perfbench::Metric& m : sink.metrics()) {
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += first ? "" : ",";
    first = false;
    out += "{\"name\":" + JsonString(m.name) + ",\"unit\":" +
           JsonString(m.unit) + ",\"value\":" + value +
           ",\"n\":" + std::to_string(m.n) + "}";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      Usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0)) Usage();

  perfbench::RunResult result;
  if (opt.workload == "offline_batch") {
    perfbench::RunOfflineBatch(opt, &result);
  } else if (opt.workload == "serve_hl_point") {
    perfbench::RunServeHlPoint(opt, &result);
  } else if (opt.workload == "serve_ch_mixed") {
    perfbench::RunServeChMixed(opt, &result);
  } else {
    Usage();
  }

  const perfbench::Tally& t = result.tally;
  std::string notes = "[";
  for (size_t i = 0; i < t.notes.size(); ++i) {
    notes += (i == 0 ? "" : ",") + JsonString(t.notes[i]);
  }
  notes += "]";
  std::printf(
      "{\"workload\":%s,\"trace\":%d,\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"notes\":%s,\"metrics\":%s,\"detail\":%s}\n",
      JsonString(opt.workload).c_str(), opt.trace ? 1 : 0,
      t.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.failed), notes.c_str(),
      JsonMetrics(result.metrics).c_str(), JsonMetrics(result.detail).c_str());
  std::fflush(stdout);
  return 0;
}
