// Per-layer probes of the traced run, the server stage breakdown, and the
// distance oracle used by every answer check.
#include <algorithm>

#include "bench.h"
#include "obs/trace.h"
#include "routing/path.h"
#include "server/wire.h"

namespace perfbench {

namespace wire = roadnet::wire;
using roadnet::BatchOptions;
using roadnet::Distance;
using roadnet::QueryEngine;
using roadnet::VertexId;

namespace {

constexpr size_t kHlProbePasses = 20;
constexpr size_t kBatch1Runs = 2000;
constexpr size_t kRttCount = 2000;
constexpr size_t kCodecIterations = 100000;

double MiB(size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

// Runs `query` on every pair `passes` times and returns ns per query;
// *work is the mean of the counts `query` returns.
template <typename Query>
double NsPerQuery(const char* name, const std::vector<Pair>& pairs,
                  size_t passes, Query&& query, double* work) {
  ScopedSpan span(name);
  uint64_t sum = 0;
  const uint64_t start = NowNs();
  for (size_t p = 0; p < passes; ++p) {
    for (const Pair& q : pairs) sum += query(q);
  }
  const double n = static_cast<double>(pairs.size() * passes);
  const double ns = static_cast<double>(NowNs() - start) / n;
  if (work != nullptr) *work = static_cast<double>(sum) / n;
  return ns;
}

double BatchQps(QueryEngine* engine, const std::vector<Pair>& pairs) {
  BatchOptions options;
  const uint64_t start = NowNs();
  engine->Run(pairs, options);
  return static_cast<double>(pairs.size()) / SecondsSince(start);
}

}  // namespace

void RunLayerProbes(World* w, const Inputs& in, uint16_t server_port,
                    MetricSink* sink, Tally* tally) {
  ScopedSpan probes_span("probes");
  const Graph& g = *w->graph;
  const ChIndex& ch = *w->ch;
  const HlIndex& hl = *w->hl;

  // Set-up steps this workload's set-up skips are timed here, so every
  // traced run reports every build and load.
  if (w->knn == nullptr) BuildKnn(w, in.seed);
  if (w->times.ch_load_s == 0) ReloadCh(g, SerializeCh(ch), &w->times);
  if (w->times.hl_load_s == 0) ReloadHl(g, ch, SerializeHl(hl), &w->times);

  sink->Add("ch.index_mb", "MB", MiB(ch.IndexBytes()));
  sink->Add("hl.index_mb", "MB", MiB(hl.IndexBytes()));
  sink->Add("hl.label_entries_avg", "count", hl.AvgLabelEntries(),
            g.NumVertices());

  // Technique cores, one context, direct calls.
  auto ch_ctx = ch.NewContext();
  double settled = 0;
  const double ch_ns = NsPerQuery(
      "probe.ch.DistanceQuery", in.dist, 1,
      [&](const Pair& q) {
        ch.DistanceQuery(ch_ctx.get(), q.first, q.second);
        return ch_ctx->counters.vertices_settled;
      },
      &settled);
  sink->Add("ch.dist_ns", "ns", ch_ns, in.dist.size());
  sink->Add("ch.settled_per_query", "count", settled, in.dist.size());

  double unpacked = 0;
  const double path_ns = NsPerQuery(
      "probe.ch.PathQuery", in.path, 1,
      [&](const Pair& q) {
        ch.PathQuery(ch_ctx.get(), q.first, q.second);
        return ch_ctx->counters.shortcuts_unpacked;
      },
      &unpacked);
  sink->Add("ch.path_ns", "ns", path_ns, in.path.size());
  sink->Add("ch.unpacked_per_path", "count", unpacked, in.path.size());

  auto hl_ctx = hl.NewContext();
  Distance sink_dist = 0;
  const double hl_ns = NsPerQuery(
      "probe.hl.DistanceQuery", in.dist, kHlProbePasses,
      [&](const Pair& q) {
        sink_dist += hl.DistanceQuery(hl_ctx.get(), q.first, q.second);
        return uint64_t{0};
      },
      nullptr);
  sink->Add("hl.dist_ns", "ns", hl_ns, in.dist.size() * kHlProbePasses);

  roadnet::BidirectionalDijkstra bidi(g);
  auto bidi_ctx = bidi.NewContext();
  double bidi_settled = 0;
  const double bidi_ns = NsPerQuery(
      "probe.dijkstra.Bidirectional", in.bidi, 1,
      [&](const Pair& q) {
        bidi.DistanceQuery(bidi_ctx.get(), q.first, q.second);
        return bidi_ctx->counters.vertices_settled;
      },
      &bidi_settled);
  sink->Add("dijkstra.bidi_ns", "ns", bidi_ns, in.bidi.size());
  sink->Add("dijkstra.bidi_settled_per_query", "count", bidi_settled,
            in.bidi.size());

  {
    ScopedSpan span("probe.knn.KnnQuery");
    roadnet::KnnBucketIndex::Context ctx = w->knn->NewContext();
    std::vector<roadnet::KnnResult> result;
    const uint64_t start = NowNs();
    for (VertexId s : in.knn_sources) {
      w->knn->KnnQuery(&ctx, 0, s, kKnnK, &result);
    }
    sink->Add("knn.query_ns", "ns",
              static_cast<double>(NowNs() - start) / in.knn_sources.size(),
              in.knn_sources.size());
  }

  // Engine: the wake+join of a one-query batch, the per-query cost of a
  // one-worker batch over the HL core, and multi-worker scaling on CH.
  {
    ScopedSpan span("probe.engine");
    QueryEngine hl_engine(hl, Workers());
    std::vector<double> batch1;
    batch1.reserve(kBatch1Runs);
    BatchOptions options;
    for (size_t i = 0; i < kBatch1Runs; ++i) {
      const Pair& q = in.dist[i % in.dist.size()];
      const uint64_t start = NowNs();
      hl_engine.Run(std::span<const Pair>(&q, 1), options);
      batch1.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    }
    sink->Add("engine.batch1_us", "us", Median(batch1), batch1.size());

    std::vector<Pair> repeated;
    repeated.reserve(in.dist.size() * kHlProbePasses);
    for (size_t p = 0; p < kHlProbePasses; ++p) {
      repeated.insert(repeated.end(), in.dist.begin(), in.dist.end());
    }
    QueryEngine hl_one(hl, 1);
    const double one_qps = BatchQps(&hl_one, repeated);
    sink->Add("engine.overhead_ns", "ns", 1e9 / one_qps - hl_ns,
              repeated.size());

    QueryEngine ch_one(ch, 1);
    QueryEngine ch_all(ch, Workers());
    const double serial = BatchQps(&ch_one, in.dist);
    const double parallel = BatchQps(&ch_all, in.dist);
    sink->Add("engine.scaling", "x", parallel / serial, in.dist.size());
  }

  // Wire: QUERY2 request and distance reply, encoded and decoded.
  {
    ScopedSpan span("probe.wire");
    uint64_t checksum = 0;
    const uint64_t start = NowNs();
    for (size_t i = 0; i < kCodecIterations; ++i) {
      wire::QueryRequest req;
      req.source = static_cast<VertexId>(i);
      req.target = static_cast<VertexId>(i + 1);
      req.request_id = i;
      const auto decoded_req =
          wire::DecodeQueryRequestV2(wire::EncodeQueryRequestV2(req));
      wire::QueryResponse resp;
      resp.distance = i;
      resp.request_id = i;
      const auto decoded_resp =
          wire::DecodeQueryResponseV2(wire::EncodeQueryResponseV2(resp));
      checksum += decoded_req->target + decoded_resp->distance;
    }
    sink->Add("wire.codec_ns", "ns",
              static_cast<double>(NowNs() - start) / kCodecIterations,
              kCodecIterations);
    if (checksum == 0) tally->Fail(1, "wire codec lost every field");

    double bytes = 0;
    for (uint32_t i : in.long_path_idx) {
      wire::QueryResponse resp;
      resp.path =
          ch.PathQuery(ch_ctx.get(), in.dist[i].first, in.dist[i].second);
      bytes += static_cast<double>(wire::EncodeQueryResponseV2(resp).size());
    }
    sink->Add("wire.path_reply_kb", "KB",
              bytes / 1024.0 / static_cast<double>(in.long_path_idx.size()),
              in.long_path_idx.size());
  }

  // Server round trips on the idle server, and the loopback control.
  {
    ScopedSpan span("probe.server.rtt");
    RttResult rtt = ClosedLoopRtt(server_port, in.dist, kRttCount);
    if (rtt.failed > 0) tally->Fail(rtt.failed, "depth-1 probe failures");
    tally->attempted += kRttCount;
    sink->Add("server.rtt_us.p50", "us", Median(rtt.rtt_us), rtt.rtt_us.size());
    sink->Add("server.in_server_us.p50", "us", Median(rtt.in_server_us),
              rtt.in_server_us.size());
  }
  {
    ScopedSpan span("probe.net.echo");
    const std::vector<double> echo = EchoRttUs(kRttCount);
    sink->Add("net.echo_rtt_us.p50", "us", Median(echo), echo.size());
  }
  if (sink_dist == 0) tally->Fail(1, "HL probe returned only zero distances");
}

void AddServerStages(const wire::StatsResponse& stats, MetricSink* sink) {
  using roadnet::TraceStage;
  for (TraceStage stage : {TraceStage::kEnqueue, TraceStage::kQueueWait,
                           TraceStage::kBatchAssembly, TraceStage::kExecute,
                           TraceStage::kReplyWrite}) {
    wire::StageStatWire found;
    for (const wire::StageStatWire& s : stats.stages) {
      if (s.stage == static_cast<uint8_t>(stage)) found = s;
    }
    const std::string name =
        std::string("stage.") + roadnet::TraceStageName(stage);
    sink->Add(name + ".p50_us", "us", static_cast<double>(found.p50_ns) * 1e-3,
              found.count);
    sink->Add(name + ".p99_us", "us", static_cast<double>(found.p99_ns) * 1e-3,
              found.count);
  }
}

// ---- oracle -------------------------------------------------------------

Oracle::Oracle(const Graph& g, const ChIndex& ch, const HlIndex& hl,
               const std::vector<Pair>& pairs)
    : g_(g), pairs_(pairs), dijkstra_(g) {
  ScopedSpan span("check.reference");
  auto ch_ctx = ch.NewContext();
  auto hl_ctx = hl.NewContext();
  ch_.reserve(pairs.size());
  hl_.reserve(pairs.size());
  for (const Pair& p : pairs) {
    ch_.push_back(ch.DistanceQuery(ch_ctx.get(), p.first, p.second));
    hl_.push_back(hl.DistanceQuery(hl_ctx.get(), p.first, p.second));
  }
}

Distance Oracle::Dijkstra(size_t index) {
  auto it = cache_.find(index);
  if (it != cache_.end()) return it->second;
  const Distance d = dijkstra_.Run(pairs_[index].first, pairs_[index].second);
  cache_.emplace(index, d);
  return d;
}

Distance Oracle::Truth(size_t index) {
  return ch_[index] == hl_[index] ? ch_[index] : Dijkstra(index);
}

bool Oracle::Correct(size_t index, Distance answer) {
  return answer == Truth(index);
}

uint64_t Oracle::CheckSample(uint64_t seed, size_t sample) {
  ScopedSpan span("check.dijkstra_sample");
  roadnet::Rng rng(seed ^ 0x646a6b73ULL);
  uint64_t bad = 0;
  for (size_t i = 0; i < sample; ++i) {
    const size_t index = rng.NextBelow(pairs_.size());
    const Distance d = Dijkstra(index);
    if (ch_[index] != d || hl_[index] != d) ++bad;
  }
  return bad;
}

bool Oracle::PathCorrect(size_t index, const std::vector<VertexId>& path) {
  const Distance truth = Truth(index);
  if (path.empty()) return truth == roadnet::kInfDistance;
  return path.front() == pairs_[index].first &&
         path.back() == pairs_[index].second &&
         roadnet::IsValidPath(g_, path) &&
         roadnet::PathWeight(g_, path) == truth;
}

}  // namespace perfbench
