// Types shared by the workloads, the layer probes and the answer checks.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ch/ch_index.h"
#include "common.h"
#include "dijkstra/bidirectional.h"
#include "dijkstra/dijkstra.h"
#include "engine/query_engine.h"
#include "graph/graph.h"
#include "hl/hl_index.h"
#include "knn/knn_index.h"
#include "loadgen.h"
#include "poi/poi_set.h"
#include "server/server.h"

namespace perfbench {

using roadnet::ChIndex;
using roadnet::Graph;
using roadnet::HlIndex;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

// Worker threads and connections are sized to the host: at most four,
// never more than its cores.
size_t Workers();

// Seeded inputs: the paper's Q1..Q10 on the W-US' analogue.
struct Inputs {
  std::vector<Pair> dist;  // Q1..Q10, 1000 pairs each, set-major
  // Subsets, as indices into `dist`: the first 100 of each set (path
  // queries), the first 20 of each set (bidirectional Dijkstra), and the
  // first 100 of Q8..Q10 (served path queries).
  std::vector<uint32_t> path_idx;
  std::vector<uint32_t> bidi_idx;
  std::vector<uint32_t> long_path_idx;
  std::vector<Pair> path;
  std::vector<Pair> bidi;
  std::vector<roadnet::VertexId> knn_sources;
  uint64_t seed = 1;
};
Inputs MakeInputs(const Graph& g, uint64_t seed);

// Wall-clock seconds of each set-up step; 0 for steps a workload skips.
struct SetupTimes {
  double graph_s = 0;
  double contract_s = 0;
  double hl_s = 0;
  double knn_s = 0;
  double ch_load_s = 0;
  double hl_load_s = 0;
  double total_s = 0;
};

// Everything one set-up builds. Members are declared in dependency order,
// so destruction tears the server down before the indexes it serves.
struct World {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<ChIndex> ch;
  std::unique_ptr<HlIndex> hl;
  std::unique_ptr<roadnet::PoiSet> pois;
  std::unique_ptr<roadnet::KnnBucketIndex> knn;
  std::unique_ptr<roadnet::BidirectionalDijkstra> bidi;
  std::unique_ptr<roadnet::QueryEngine> ch_engine;
  std::unique_ptr<roadnet::QueryEngine> hl_engine;
  std::unique_ptr<roadnet::QueryEngine> bidi_engine;
  std::unique_ptr<roadnet::QueryServer> server;
  std::unique_ptr<OpenLoopClient> client;
  SetupTimes times;
};

// k of every kNN query the benchmark sends or probes.
inline constexpr uint32_t kKnnK = 10;

// POI category served to kNN callers: 1% of the vertices.
roadnet::PoiConfig PoiConfigFor(uint64_t seed);

// Tallies requests and failures of one run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  // first few failure descriptions

  void Fail(uint64_t n, const std::string& what);
};

// Ground truth for distance answers. A pair's answer is accepted when it
// equals both the CH and the HL answer computed in-process after the
// timed window; when those two disagree, plain Dijkstra decides. A seeded
// sample is checked against plain Dijkstra regardless.
class Oracle {
 public:
  Oracle(const Graph& g, const ChIndex& ch, const HlIndex& hl,
         const std::vector<Pair>& pairs);

  // Plain (unidirectional) Dijkstra, cached per pair index.
  roadnet::Distance Dijkstra(size_t index);
  bool Correct(size_t index, roadnet::Distance answer);
  roadnet::Distance Truth(size_t index);
  // Checks `sample` seeded pairs against plain Dijkstra; returns how many
  // CH/HL reference answers were wrong.
  uint64_t CheckSample(uint64_t seed, size_t sample);
  // A path is correct when it runs from s to t over graph edges and its
  // length is the true distance.
  bool PathCorrect(size_t index, const std::vector<roadnet::VertexId>& path);

 private:
  const Graph& g_;
  const std::vector<Pair>& pairs_;
  std::vector<roadnet::Distance> ch_;
  std::vector<roadnet::Distance> hl_;
  roadnet::Dijkstra dijkstra_;
  std::unordered_map<size_t, roadnet::Distance> cache_;
};

// Result of one workload run: contract metrics plus the workload's own
// names, printed for readers.
struct RunResult {
  MetricSink metrics;  // contract names (end-to-end or per-layer)
  MetricSink detail;   // workload-specific names, printed as a table
  Tally tally;
};

void RunOfflineBatch(const Options& opt, RunResult* out);
void RunServeHlPoint(const Options& opt, RunResult* out);
void RunServeChMixed(const Options& opt, RunResult* out);

// Per-layer probes shared by every traced run. `world` must hold graph,
// ch and hl; the probes build pois/knn when missing and time the builds.
// `server_port` is an idle server to take depth-1 round trips from.
void RunLayerProbes(World* world, const Inputs& in, uint16_t server_port,
                    MetricSink* sink, Tally* tally);

// Stage p50/p99 and shed counts from the server's own statistics.
void AddServerStages(const roadnet::wire::StatsResponse& stats,
                     MetricSink* sink);

// Loads an index from its serialized bytes, as `serve --index` does,
// timing the load into *times.
std::unique_ptr<ChIndex> ReloadCh(const Graph& g, const std::string& bytes,
                                  SetupTimes* times);
std::unique_ptr<HlIndex> ReloadHl(const Graph& g, const ChIndex& ch,
                                  const std::string& bytes, SetupTimes* times);
std::string SerializeCh(const ChIndex& ch);
std::string SerializeHl(const HlIndex& hl);

// Builds the seeded POI set and the bucket-CH kNN index over world->ch.
void BuildKnn(World* w, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
