// Command-line front end for the library: generate or convert networks,
// run CH preprocessing once, persist the index, and serve queries — the
// deployment workflow behind the paper's "online map services" setting.
//
//   roadnet_cli generate   --vertices N [--seed S] --out graph.bin
//   roadnet_cli convert    --gr FILE --co FILE --out graph.bin
//   roadnet_cli export     --graph graph.bin --gr FILE --co FILE
//   roadnet_cli preprocess --graph graph.bin --out index.ch
//   roadnet_cli stats      --graph graph.bin [--index index.ch]
//   roadnet_cli query      --graph graph.bin --index index.ch
//                          --from S --to T [--path] [--metrics-out FILE]
//   roadnet_cli batch-query --graph graph.bin --index index.ch
//                          (--queries FILE | --random N [--seed S])
//                          [--threads T] [--paths] [--metrics-out FILE]
//   roadnet_cli poi        --graph graph.bin --out pois.bin [--seed S]
//                          [--categories "name:density,..."]
//   roadnet_cli serve      --graph graph.bin [--index index.ch]
//                          [--poi pois.bin]
//                          [--technique bidi|ch|alt|hl] [--port P]
//                          [--port-file FILE] [--threads T]
//                          [--queue-cap N] [--max-conns N] [--loops L]
//                          [--metrics-out FILE] [--trace-out FILE]
//                          [--trace-sample N] [--slow-us T] [--trace-seed S]
//
// Unknown flags are errors (util/flags.h), so typos fail loudly instead
// of being silently ignored.
//
// --metrics-out snapshots the run's metrics (latency percentiles,
// operation counters) to FILE: JSONL by default, CSV if FILE ends in
// ".csv". scripts/validate_metrics.py schema-checks the JSONL form.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ch/ch_index.h"
#include "engine/query_engine.h"
#include "graph/connectivity.h"
#include "graph/dimacs.h"
#include "graph/generator.h"
#include "io/serialize.h"
#include "knn/ier.h"
#include "knn/knn_index.h"
#include "obs/metrics.h"
#include "poi/poi_set.h"
#include "server/index_factory.h"
#include "server/server.h"
#include "server/wire.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace roadnet;

int Usage() {
  std::fprintf(
      stderr,
      "usage: roadnet_cli"
      " <generate|convert|export|preprocess|poi|stats|query|batch-query|"
      "serve> [flags]\n"
      "  generate   --vertices N [--seed S] --out graph.bin\n"
      "  convert    --gr FILE --co FILE --out graph.bin\n"
      "  export     --graph graph.bin --gr FILE --co FILE\n"
      "  preprocess --graph graph.bin --out index.ch\n"
      "  poi        --graph graph.bin --out pois.bin [--seed S]\n"
      "             [--categories \"name:density,...\"]\n"
      "    Places seeded POI categories on the graph (density = fraction\n"
      "    of vertices) and writes the checksummed POI container.\n"
      "  stats      --graph graph.bin [--index index.ch]\n"
      "  query      --graph graph.bin --index index.ch --from S --to T"
      " [--path] [--metrics-out FILE]\n"
      "  batch-query --graph graph.bin --index index.ch"
      " (--queries FILE | --random N [--seed S])\n"
      "             [--threads T] [--paths] [--metrics-out FILE]\n"
      "    FILE holds one \"source target\" pair per line.\n"
      "  serve      --graph graph.bin [--index index.ch] [--poi pois.bin]"
      " [--technique bidi|ch|alt|hl]\n"
      "    --poi enables the kNN / one-to-many endpoints (bucket-CH and\n"
      "    IER backends built at startup from the POI container).\n"
      "             [--port P] [--port-file FILE] [--threads T]\n"
      "             [--queue-cap N] [--max-conns N] [--loops L]\n"
      "             [--idle-timeout-ms T] [--write-soft-cap B]\n"
      "             [--write-hard-cap B] [--metrics-out FILE]\n"
      "             [--trace-out FILE] [--trace-sample N] [--slow-us T]\n"
      "             [--trace-seed S]\n"
      "    Runs the TCP query service until SIGINT or a SHUTDOWN frame,\n"
      "    then drains in-flight requests and exits.\n"
      "    --loops L event loops read and write every connection; on a ch\n"
      "    or hl server they also answer point queries themselves, up to\n"
      "    25 us of them per pass over ready events, before handing the\n"
      "    rest to the --threads T engine workers, which run everything\n"
      "    else (bidi/alt, kNN, one-to-many).\n"
      "    --metrics-out writes JSONL metrics (CSV if FILE ends in .csv).\n"
      "    --trace-out writes captured request traces as JSONL; capture\n"
      "    every Nth request (--trace-sample) plus everything slower than\n"
      "    T microseconds (--slow-us; 0 captures all). roadnet_trace\n"
      "    renders the per-stage breakdown.\n");
  return 2;
}

std::optional<Graph> LoadGraph(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("graph");
  if (it == flags.end()) {
    std::fprintf(stderr, "missing --graph\n");
    return std::nullopt;
  }
  std::string error;
  auto g = ReadGraphFile(it->second, &error);
  if (!g.has_value()) std::fprintf(stderr, "%s\n", error.c_str());
  return g;
}

int Generate(const std::map<std::string, std::string>& flags) {
  GeneratorConfig config;
  if (auto it = flags.find("vertices"); it != flags.end()) {
    config.target_vertices = std::stoul(it->second);
  }
  if (auto it = flags.find("seed"); it != flags.end()) {
    config.seed = std::stoull(it->second);
  }
  auto out = flags.find("out");
  if (out == flags.end()) return Usage();
  Graph g = GenerateRoadNetwork(config);
  std::string error;
  if (!WriteGraphFile(g, out->second, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s: %u vertices, %zu edges\n", out->second.c_str(),
              g.NumVertices(), g.NumEdges());
  return 0;
}

int Convert(const std::map<std::string, std::string>& flags) {
  auto gr = flags.find("gr");
  auto co = flags.find("co");
  auto out = flags.find("out");
  if (gr == flags.end() || co == flags.end() || out == flags.end()) {
    return Usage();
  }
  std::string error;
  auto g = ReadDimacsFiles(gr->second, co->second, &error);
  if (!g.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!WriteGraphFile(*g, out->second, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("converted: %u vertices, %zu edges\n", g->NumVertices(),
              g->NumEdges());
  return 0;
}

int Export(const std::map<std::string, std::string>& flags) {
  auto gr = flags.find("gr");
  auto co = flags.find("co");
  if (gr == flags.end() || co == flags.end()) return Usage();
  auto g = LoadGraph(flags);
  if (!g.has_value()) return 1;
  std::ofstream gr_out(gr->second), co_out(co->second);
  if (!gr_out || !co_out) {
    std::fprintf(stderr, "cannot open output files\n");
    return 1;
  }
  WriteDimacs(*g, gr_out, co_out);
  std::printf("exported %u vertices to %s / %s\n", g->NumVertices(),
              gr->second.c_str(), co->second.c_str());
  return 0;
}

int Preprocess(const std::map<std::string, std::string>& flags) {
  auto out = flags.find("out");
  if (out == flags.end()) return Usage();
  auto g = LoadGraph(flags);
  if (!g.has_value()) return 1;
  Timer timer;
  ChIndex ch(*g);
  std::printf("CH preprocessing: %.2f s, %zu shortcuts (v3 rank-space "
              "layout)\n",
              timer.ElapsedSeconds(), ch.NumShortcuts());
  std::ofstream file(out->second, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", out->second.c_str());
    return 1;
  }
  ch.Serialize(file);
  std::printf("wrote %s (%.1f MiB)\n", out->second.c_str(),
              ch.IndexBytes() / (1024.0 * 1024.0));
  return 0;
}

int Poi(const std::map<std::string, std::string>& flags) {
  auto out = flags.find("out");
  if (out == flags.end()) return Usage();
  auto g = LoadGraph(flags);
  if (!g.has_value()) return 1;
  PoiConfig config;
  // Default sweep mirrors the paper's R-set selectivities: one dense and
  // one sparse category per power of ten.
  std::string spec = "restaurant:0.01,fuel:0.001,hotel:0.0001";
  if (auto it = flags.find("categories"); it != flags.end()) {
    spec = it->second;
  }
  std::string error;
  if (!ParsePoiCategories(spec, &config.categories, &error)) {
    std::fprintf(stderr, "--categories: %s\n", error.c_str());
    return 1;
  }
  if (auto it = flags.find("seed"); it != flags.end()) {
    config.seed = std::stoull(it->second);
  }
  const PoiSet pois = PoiSet::Generate(*g, config);
  if (!pois.SerializeToFile(out->second, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu POIs in %u categories\n", out->second.c_str(),
              pois.NumPois(), pois.NumCategories());
  for (uint32_t c = 0; c < pois.NumCategories(); ++c) {
    std::printf("  %-12s %zu\n", pois.CategoryName(c).c_str(),
                pois.Vertices(c).size());
  }
  return 0;
}

int Stats(const std::map<std::string, std::string>& flags) {
  auto g = LoadGraph(flags);
  if (!g.has_value()) return 1;
  std::printf("vertices:  %u\n", g->NumVertices());
  std::printf("edges:     %zu\n", g->NumEdges());
  std::printf("connected: %s\n", IsConnected(*g) ? "yes" : "no");
  const Rect& b = g->Bounds();
  std::printf("bounds:    [%d, %d] x [%d, %d]\n", b.min_x, b.max_x, b.min_y,
              b.max_y);
  if (auto it = flags.find("index"); it != flags.end()) {
    std::ifstream file(it->second, std::ios::binary);
    std::string error;
    auto ch = ChIndex::Deserialize(*g, file, &error);
    if (ch == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("CH index:  %zu shortcuts, %.1f MiB\n", ch->NumShortcuts(),
                ch->IndexBytes() / (1024.0 * 1024.0));
  }
  return 0;
}

int Query(const std::map<std::string, std::string>& flags) {
  auto index_flag = flags.find("index");
  auto from = flags.find("from");
  auto to = flags.find("to");
  if (index_flag == flags.end() || from == flags.end() || to == flags.end()) {
    return Usage();
  }
  auto g = LoadGraph(flags);
  if (!g.has_value()) return 1;
  std::ifstream file(index_flag->second, std::ios::binary);
  std::string error;
  auto ch = ChIndex::Deserialize(*g, file, &error);
  if (ch == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const VertexId s = static_cast<VertexId>(std::stoul(from->second));
  const VertexId t = static_cast<VertexId>(std::stoul(to->second));
  if (s >= g->NumVertices() || t >= g->NumVertices()) {
    std::fprintf(stderr, "vertex ids must be < %u\n", g->NumVertices());
    return 1;
  }
  Timer timer;
  const Distance d = ch->DistanceQuery(s, t);
  const double micros = timer.ElapsedMicros();
  QueryCounters counters = ch->ContextCounters();
  std::printf("distance %u -> %u: ", s, t);
  if (d == kInfDistance) {
    std::printf("unreachable");
  } else {
    std::printf("%llu", static_cast<unsigned long long>(d));
  }
  std::printf("  (%.1f us)\n", micros);
  if (flags.count("path") && d != kInfDistance) {
    const Path path = ch->PathQuery(s, t);
    counters += ch->ContextCounters();
    std::printf("path (%zu vertices):", path.size());
    for (VertexId v : path) std::printf(" %u", v);
    std::printf("\n");
  }
  if (auto it = flags.find("metrics-out"); it != flags.end()) {
    MetricsRegistry metrics;
    const std::vector<std::pair<std::string, std::string>> labels = {
        {"command", "query"}, {"method", "CH"}};
    metrics.Add("distance",
                d == kInfDistance ? std::numeric_limits<double>::infinity()
                                  : static_cast<double>(d),
                labels);
    metrics.Add("latency_micros", micros, labels);
    metrics.AddCounters(counters, labels);
    if (!metrics.WriteFile(it->second)) {
      std::fprintf(stderr, "cannot write %s\n", it->second.c_str());
      return 1;
    }
    std::printf("metrics:  wrote %zu points to %s\n", metrics.points().size(),
                it->second.c_str());
  }
  return 0;
}

int BatchQuery(const std::map<std::string, std::string>& flags) {
  auto index_flag = flags.find("index");
  if (index_flag == flags.end()) return Usage();
  auto g = LoadGraph(flags);
  if (!g.has_value()) return 1;
  std::ifstream file(index_flag->second, std::ios::binary);
  std::string error;
  auto ch = ChIndex::Deserialize(*g, file, &error);
  if (ch == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  // Queries: either a file of "source target" lines or N random pairs.
  std::vector<std::pair<VertexId, VertexId>> queries;
  if (auto it = flags.find("queries"); it != flags.end()) {
    std::ifstream in(it->second);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", it->second.c_str());
      return 1;
    }
    unsigned long s = 0, t = 0;
    while (in >> s >> t) {
      if (s >= g->NumVertices() || t >= g->NumVertices()) {
        std::fprintf(stderr, "vertex ids must be < %u\n", g->NumVertices());
        return 1;
      }
      queries.emplace_back(static_cast<VertexId>(s),
                           static_cast<VertexId>(t));
    }
    if (!in.eof()) {
      std::fprintf(stderr, "%s: malformed pair after %zu queries\n",
                   it->second.c_str(), queries.size());
      return 1;
    }
  } else if (auto rnd = flags.find("random"); rnd != flags.end()) {
    uint64_t seed = 1;
    if (auto sit = flags.find("seed"); sit != flags.end()) {
      seed = std::stoull(sit->second);
    }
    Rng rng(seed);
    const size_t count = std::stoul(rnd->second);
    queries.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      queries.emplace_back(
          static_cast<VertexId>(rng.NextBelow(g->NumVertices())),
          static_cast<VertexId>(rng.NextBelow(g->NumVertices())));
    }
  } else {
    return Usage();
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no queries\n");
    return 1;
  }

  size_t threads = 1;
  if (auto it = flags.find("threads"); it != flags.end()) {
    threads = std::stoul(it->second);
  }
  BatchOptions options;
  options.collect_paths = flags.count("paths") > 0;

  QueryEngine engine(*ch, threads);
  const BatchResult result = engine.Run(queries, options);

  size_t reachable = 0;
  for (Distance d : result.distances) reachable += (d != kInfDistance);
  const BatchStats& stats = result.stats;
  std::printf("queries:     %zu (%zu reachable)\n", stats.num_queries,
              reachable);
  std::printf("threads:     %zu (chunk %zu, %zu stolen)\n",
              stats.num_threads, stats.chunk_size, stats.stolen_chunks);
  std::printf("wall:        %.3f s\n", stats.wall_seconds);
  std::printf("throughput:  %.0f queries/s\n", stats.queries_per_second);
  std::printf(
      "latency:     p50 %.1f us, p90 %.1f us, p99 %.1f us, p999 %.1f us,"
      " max %.1f us\n",
      stats.p50_micros, stats.p90_micros, stats.p99_micros,
      stats.p999_micros, stats.max_micros);
  if (options.collect_paths) {
    size_t hops = 0;
    for (const Path& p : result.paths) {
      hops += p.empty() ? 0 : p.size() - 1;
    }
    std::printf("paths:       %zu edges total across %zu paths\n", hops,
                result.paths.size());
  }
  if (auto it = flags.find("metrics-out"); it != flags.end()) {
    MetricsRegistry metrics;
    const std::vector<std::pair<std::string, std::string>> labels = {
        {"command", "batch-query"}, {"method", "CH"}};
    metrics.Add("num_queries", static_cast<double>(stats.num_queries), labels);
    metrics.Add("num_threads", static_cast<double>(stats.num_threads), labels);
    metrics.Add("reachable", static_cast<double>(reachable), labels);
    metrics.Add("wall_seconds", stats.wall_seconds, labels);
    metrics.Add("queries_per_second", stats.queries_per_second, labels);
    metrics.AddHistogram("latency_micros", result.latency, 1e-3, labels);
    metrics.AddCounters(stats.counters, labels);
    if (!metrics.WriteFile(it->second)) {
      std::fprintf(stderr, "cannot write %s\n", it->second.c_str());
      return 1;
    }
    std::printf("metrics:     wrote %zu points to %s\n",
                metrics.points().size(), it->second.c_str());
  }
  return 0;
}

// SIGINT flips this; the serve loop polls it and drains. A signal
// handler may only touch sig_atomic_t.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleSigint(int) { g_interrupted = 1; }

uint64_t FlagOr(const FlagMap& flags, const std::string& name,
                uint64_t fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : std::stoull(it->second);
}

int Serve(const FlagMap& flags) {
  auto g = LoadGraph(flags);
  if (!g.has_value()) return 1;
  std::string technique = "ch";
  if (auto it = flags.find("technique"); it != flags.end()) {
    technique = it->second;
  }
  std::string index_path;
  if (auto it = flags.find("index"); it != flags.end()) {
    index_path = it->second;
  }
  std::string error;
  Timer build_timer;
  auto index = server::MakeIndex(technique, *g, index_path, &error);
  if (index == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("index:     %s ready in %.2f s (%.1f MiB)\n",
              index->Name().c_str(), build_timer.ElapsedSeconds(),
              index->IndexBytes() / (1024.0 * 1024.0));

  // --poi enables the kNN family: the bucket backend (and IER's oracle)
  // run on their own CH built here, so any point-to-point technique can
  // be served alongside.
  std::unique_ptr<PoiSet> pois;
  std::unique_ptr<ChIndex> knn_ch;
  std::unique_ptr<KnnBucketIndex> bucket;
  std::unique_ptr<IerKnnIndex> ier;
  KnnServing knn;
  if (auto it = flags.find("poi"); it != flags.end()) {
    pois = PoiSet::DeserializeFromFile(it->second, &error);
    if (pois == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (pois->NumVertices() != g->NumVertices()) {
      std::fprintf(stderr,
                   "%s was placed on a %u-vertex graph, not this one (%u)\n",
                   it->second.c_str(), pois->NumVertices(), g->NumVertices());
      return 1;
    }
    Timer knn_timer;
    knn_ch = std::make_unique<ChIndex>(*g);
    bucket = std::make_unique<KnnBucketIndex>(*knn_ch, *pois);
    ier = std::make_unique<IerKnnIndex>(*g, *knn_ch, *pois);
    knn.pois = pois.get();
    knn.bucket = bucket.get();
    knn.ier = ier.get();
    std::printf("knn:       %zu POIs, %zu bucket entries ready in %.2f s"
                " (%.1f MiB)\n",
                pois->NumPois(), bucket->NumBucketEntries(),
                knn_timer.ElapsedSeconds(),
                (bucket->IndexBytes() + ier->IndexBytes()) /
                    (1024.0 * 1024.0));
  }

  ServerOptions options;
  options.port = static_cast<uint16_t>(FlagOr(flags, "port", 0));
  options.engine_threads = FlagOr(flags, "threads", 4);
  options.queue_capacity = FlagOr(flags, "queue-cap", 256);
  options.max_connections = FlagOr(flags, "max-conns", 64);
  // Event-loop front end: --loops shards connections across that many
  // epoll threads; --idle-timeout-ms reaps silent connections; the write
  // caps bound per-connection reply queues (soft = pause reads, hard =
  // shed with OVERLOADED).
  options.num_loops = FlagOr(flags, "loops", options.num_loops);
  options.max_dispatch_batch =
      FlagOr(flags, "batch-cap", options.max_dispatch_batch);
  options.idle_timeout_ms =
      FlagOr(flags, "idle-timeout-ms", options.idle_timeout_ms);
  options.write_queue_soft_cap =
      FlagOr(flags, "write-soft-cap", options.write_queue_soft_cap);
  options.write_queue_hard_cap =
      FlagOr(flags, "write-hard-cap", options.write_queue_hard_cap);
  // Tracing: --trace-sample N captures every Nth request, --slow-us T
  // additionally captures anything slower than T microseconds (0 =
  // everything), --trace-out appends captured traces as JSONL.
  options.trace_sample_every = FlagOr(flags, "trace-sample", 0);
  options.trace_slow_us = FlagOr(flags, "slow-us", kTraceSlowDisabled);
  options.trace_seed = FlagOr(flags, "trace-seed", 1);
  if (auto it = flags.find("trace-out"); it != flags.end()) {
    options.trace_out = it->second;
  }
  QueryServer server(*index, wire::TechniqueId(technique), g->NumVertices(),
                     options, knn);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("serving:   port %u, %zu loops, %zu workers, queue %zu,"
              " max %zu conns\n",
              server.Port(), options.num_loops, options.engine_threads,
              options.queue_capacity, options.max_connections);
  std::fflush(stdout);
  if (auto it = flags.find("port-file"); it != flags.end()) {
    // Written after the bind succeeds: scripts poll this file to learn
    // an ephemeral port.
    std::ofstream port_file(it->second);
    port_file << server.Port() << "\n";
    if (!port_file) {
      std::fprintf(stderr, "cannot write %s\n", it->second.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);
  while (!server.WaitForShutdownRequest(std::chrono::milliseconds(100))) {
    if (g_interrupted) break;
  }
  std::printf("draining:  answering in-flight requests...\n");
  server.Shutdown();

  const wire::StatsResponse stats = server.Stats();
  std::printf("served:    %llu queries (%llu distance, %llu path)\n",
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.distance_count),
              static_cast<unsigned long long>(stats.path_count));
  std::printf("shed:      %llu overloaded, %llu deadline, %llu draining,"
              " %llu bad\n",
              static_cast<unsigned long long>(stats.shed_overloaded),
              static_cast<unsigned long long>(stats.shed_deadline),
              static_cast<unsigned long long>(stats.shed_draining),
              static_cast<unsigned long long>(stats.bad_requests));
  std::printf("latency:   distance p50 %.1f us p99 %.1f us,"
              " path p50 %.1f us p99 %.1f us\n",
              stats.distance_p50_ns * 1e-3, stats.distance_p99_ns * 1e-3,
              stats.path_p50_ns * 1e-3, stats.path_p99_ns * 1e-3);
  const wire::StatsResponse v2 = server.StatsV2();
  if (v2.idle_reaped > 0) {
    std::printf("reaped:    %llu idle connections\n",
                static_cast<unsigned long long>(v2.idle_reaped));
  }
  if (v2.traces_finished > 0) {
    std::printf("traces:    %llu finished, %llu captured, %llu slow,"
                " %llu dropped\n",
                static_cast<unsigned long long>(v2.traces_finished),
                static_cast<unsigned long long>(v2.traces_captured),
                static_cast<unsigned long long>(v2.traces_slow),
                static_cast<unsigned long long>(v2.traces_dropped));
    for (const wire::StageStatWire& s : v2.stages) {
      std::printf("  %-15s %8llu  p50 %9.1f us  p99 %9.1f us\n",
                  TraceStageName(static_cast<TraceStage>(s.stage)),
                  static_cast<unsigned long long>(s.count), s.p50_ns * 1e-3,
                  s.p99_ns * 1e-3);
    }
  }
  if (auto it = flags.find("metrics-out"); it != flags.end()) {
    MetricsRegistry metrics;
    server.ExportMetrics(&metrics);
    if (!metrics.WriteFile(it->second)) {
      std::fprintf(stderr, "cannot write %s\n", it->second.c_str());
      return 1;
    }
    std::printf("metrics:   wrote %zu points to %s\n",
                metrics.points().size(), it->second.c_str());
  }
  return 0;
}

// Per-command flag specs: the strict parser rejects anything not listed
// here, so a typo like --metrics-ouT is an error, not a silent no-op.
const std::map<std::string, FlagSpec>& CommandSpecs() {
  static const std::map<std::string, FlagSpec> specs = {
      {"generate", {{"vertices", "seed", "out"}, {}}},
      {"convert", {{"gr", "co", "out"}, {}}},
      {"export", {{"gr", "co", "graph"}, {}}},
      {"preprocess", {{"graph", "out"}, {}}},
      {"poi", {{"graph", "out", "seed", "categories"}, {}}},
      {"stats", {{"graph", "index"}, {}}},
      {"query", {{"graph", "index", "from", "to", "metrics-out"}, {"path"}}},
      {"batch-query",
       {{"graph", "index", "queries", "random", "seed", "threads",
         "metrics-out"},
        {"paths"}}},
      {"serve",
       {{"graph", "index", "poi", "technique", "port", "port-file", "threads",
         "queue-cap", "max-conns", "batch-cap", "loops", "idle-timeout-ms",
         "write-soft-cap", "write-hard-cap", "metrics-out", "trace-out",
         "trace-sample", "slow-us", "trace-seed"},
        {}}},
  };
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto spec = CommandSpecs().find(command);
  if (spec == CommandSpecs().end()) return Usage();
  std::string parse_error;
  const auto flags = ParseFlags(argc, argv, 2, spec->second, &parse_error);
  if (!flags.has_value()) {
    std::fprintf(stderr, "%s: %s\n", command.c_str(), parse_error.c_str());
    return Usage();
  }
  if (command == "generate") return Generate(*flags);
  if (command == "convert") return Convert(*flags);
  if (command == "export") return Export(*flags);
  if (command == "preprocess") return Preprocess(*flags);
  if (command == "poi") return Poi(*flags);
  if (command == "stats") return Stats(*flags);
  if (command == "query") return Query(*flags);
  if (command == "batch-query") return BatchQuery(*flags);
  if (command == "serve") return Serve(*flags);
  return Usage();
}
