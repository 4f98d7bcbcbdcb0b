// Closed-loop load generator for the roadnet query service.
//
//   roadnet_loadgen --port P --graph graph.bin
//                   [--host 127.0.0.1] [--connections N] [--queries N]
//                   [--workload random|Q1..Q10|knn] [--seed S] [--paths]
//                   [--poi pois.bin (required for knn)]
//                   [--deadline-us D] [--verify-every K]
//                   [--technique any|bidi|ch|alt|hl] [--stats] [--shutdown]
//                   [--trace-sample N] [--slow-us T]
//                   [--rate R] [--arrival poisson|uniform] [--pipeline N]
//
// Opens N concurrent connections and drives them closed-loop (each
// connection keeps exactly one request in flight), replaying either
// random pairs or one of the paper's Q1..Q10 L-infinity workloads
// (Section 4.2). Every K-th response is verified against a local
// Dijkstra oracle — distances must match exactly, and path responses
// must be real paths of the right weight. Reports achieved qps and
// client-observed p50/p99, which include the server's queueing — the
// end-to-end numbers a capacity plan is written against.
//
// --rate switches to OPEN-LOOP mode: requests are emitted on a fixed
// arrival schedule (R requests/second total, Poisson or uniform gaps)
// over pipelined QUERY2 connections, at most --pipeline outstanding per
// connection, and latency is measured from the scheduled arrival — so
// queueing delay under overload shows up instead of being coordinated
// away by waiting clients. Open loop drives point queries on the random
// workload only.
//
// --workload knn drives the kNN / one-to-many endpoints instead: it
// cycles R-set-style buckets — every POI category (the density sweep)
// x k in {1, 4, 10, 50} x method in {bucket-ch, ier} plus one
// one-to-many bucket per category — from random sources, and verifies
// every K-th reply (result set AND distances, vertex-id tie-breaks
// included) against the expanding-Dijkstra kNN oracle.
//
// --trace-sample / --slow-us retune the server's request tracer over
// the wire (TRACE_CONFIG frame) before the workload starts, and the
// post-run --stats report then includes the server's per-stage latency
// breakdown (accept -> reply_write) and live gauges — the decomposition
// the client-side percentiles cannot see.
//
// Exit status: 0 on success, 1 on any oracle mismatch or transport
// error, 2 on usage errors.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dijkstra/dijkstra.h"
#include "graph/graph.h"
#include "io/serialize.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "poi/poi_set.h"
#include "routing/knn.h"
#include "routing/path.h"
#include "server/client.h"
#include "server/openloop.h"
#include "server/wire.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/query_gen.h"

namespace {

using namespace roadnet;

int Usage() {
  std::fprintf(
      stderr,
      "usage: roadnet_loadgen --port P --graph graph.bin\n"
      "  [--host 127.0.0.1] [--connections N] [--queries N]\n"
      "  [--workload random|Q1..Q10|knn] [--seed S] [--paths]\n"
      "  [--poi pois.bin (required for --workload knn)]\n"
      "  [--deadline-us D] [--verify-every K (0=off)]\n"
      "  [--technique any|bidi|ch|alt|hl] [--stats] [--shutdown]\n"
      "  [--trace-sample N (head-sample 1-in-N)] [--slow-us T (0=all)]\n"
      "  [--rate R (req/s => open loop)] [--arrival poisson|uniform]\n"
      "  [--pipeline N (max outstanding per connection, default 16)]\n");
  return 2;
}

// One connection thread's tallies, merged after the join.
struct WorkerResult {
  Histogram latency;  // client-observed, nanoseconds
  uint64_t ok = 0;
  uint64_t unreachable = 0;
  uint64_t overloaded = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t draining = 0;
  uint64_t bad_request = 0;
  uint64_t transport_errors = 0;
  uint64_t verified = 0;
  uint64_t mismatches = 0;
  std::string first_problem;

  void CountStatus(wire::Status s) {
    switch (s) {
      case wire::Status::kOk: ++ok; break;
      case wire::Status::kUnreachable: ++unreachable; break;
      case wire::Status::kOverloaded: ++overloaded; break;
      case wire::Status::kDeadlineExceeded: ++deadline_exceeded; break;
      case wire::Status::kShuttingDown: ++draining; break;
      case wire::Status::kBadRequest: ++bad_request; break;
    }
  }
};

// One request of the knn workload: a (bucket, source) pair. otm marks
// the one-to-many buckets (k and method unused there).
struct KnnWork {
  bool otm = false;
  wire::KnnMethod method = wire::KnnMethod::kBucketCh;
  uint32_t category = 0;
  uint32_t k = 0;
  VertexId source = 0;
};

uint64_t FlagOr(const FlagMap& flags, const std::string& name,
                uint64_t fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : std::stoull(it->second);
}

std::string FlagOr(const FlagMap& flags, const std::string& name,
                   const std::string& fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagSpec spec{{"host", "port", "graph", "connections", "queries",
                       "workload", "seed", "poi", "deadline-us",
                       "verify-every", "technique", "trace-sample",
                       "slow-us", "rate", "arrival", "pipeline"},
                      {"paths", "stats", "shutdown"}};
  std::string parse_error;
  const auto flags = ParseFlags(argc, argv, 1, spec, &parse_error);
  if (!flags.has_value()) {
    std::fprintf(stderr, "roadnet_loadgen: %s\n", parse_error.c_str());
    return Usage();
  }
  if (flags->count("port") == 0 || flags->count("graph") == 0) {
    return Usage();
  }
  const std::string host = FlagOr(*flags, "host", "127.0.0.1");
  const uint16_t port =
      static_cast<uint16_t>(std::stoul(flags->at("port")));
  const size_t connections = FlagOr(*flags, "connections", 4);
  const size_t total_queries = FlagOr(*flags, "queries", 1000);
  const std::string workload = FlagOr(*flags, "workload", "random");
  const uint64_t seed = FlagOr(*flags, "seed", 1);
  const uint64_t deadline_us = FlagOr(*flags, "deadline-us", 0);
  const uint64_t verify_every = FlagOr(*flags, "verify-every", 10);
  const std::string technique = FlagOr(*flags, "technique", "any");
  const bool use_paths = flags->count("paths") > 0;
  if (connections == 0 || total_queries == 0) return Usage();
  if (technique != "any" && wire::TechniqueId(technique) == 0) {
    std::fprintf(stderr, "unknown --technique %s\n", technique.c_str());
    return Usage();
  }
  const bool open_loop = flags->count("rate") > 0;
  const std::string arrival = FlagOr(*flags, "arrival", "poisson");
  const size_t pipeline = FlagOr(*flags, "pipeline", 16);
  if (open_loop) {
    if (workload != "random") {
      std::fprintf(stderr,
                   "--rate (open loop) drives point queries on the random"
                   " workload only\n");
      return Usage();
    }
    if (arrival != "poisson" && arrival != "uniform") {
      std::fprintf(stderr, "unknown --arrival %s\n", arrival.c_str());
      return Usage();
    }
    if (pipeline == 0 || std::stod(flags->at("rate")) <= 0) return Usage();
  }

  std::string error;
  auto g = ReadGraphFile(flags->at("graph"), &error);
  if (!g.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  // The replayed query stream: random pairs, one of the paper's
  // L-infinity buckets, or the knn bucket sweep. A short bucket is
  // cycled to fill the run.
  const bool knn_mode = workload == "knn";
  std::vector<std::pair<VertexId, VertexId>> queries;
  std::vector<KnnWork> knn_work;
  std::unique_ptr<PoiSet> pois;
  // Per-category vertex lists for the verification oracle.
  std::vector<std::vector<VertexId>> category_vertices;
  if (knn_mode) {
    auto it = flags->find("poi");
    if (it == flags->end()) {
      std::fprintf(stderr, "--workload knn requires --poi\n");
      return Usage();
    }
    pois = PoiSet::DeserializeFromFile(it->second, &error);
    if (pois == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (pois->NumVertices() != g->NumVertices()) {
      std::fprintf(stderr, "--poi was placed on a different graph\n");
      return 1;
    }
    category_vertices.reserve(pois->NumCategories());
    for (uint32_t c = 0; c < pois->NumCategories(); ++c) {
      const auto span = pois->Vertices(c);
      category_vertices.emplace_back(span.begin(), span.end());
    }
    // R-set-style sweep: every category (density) x k x method, plus a
    // one-to-many bucket per category.
    std::vector<KnnWork> buckets;
    const uint32_t ks[] = {1, 4, 10, 50};
    for (uint32_t c = 0; c < pois->NumCategories(); ++c) {
      for (uint32_t k : ks) {
        for (auto m : {wire::KnnMethod::kBucketCh, wire::KnnMethod::kIer}) {
          buckets.push_back({false, m, c, k, 0});
        }
      }
      buckets.push_back({true, wire::KnnMethod::kBucketCh, c, 0, 0});
    }
    Rng rng(seed);
    knn_work.reserve(total_queries);
    for (size_t i = 0; i < total_queries; ++i) {
      KnnWork w = buckets[i % buckets.size()];
      w.source = static_cast<VertexId>(rng.NextBelow(g->NumVertices()));
      knn_work.push_back(w);
    }
  } else if (workload == "random") {
    // Open loop generates its own (seeded) stream inside RunOpenLoop.
    if (!open_loop) {
      Rng rng(seed);
      queries.reserve(total_queries);
      for (size_t i = 0; i < total_queries; ++i) {
        queries.emplace_back(
            static_cast<VertexId>(rng.NextBelow(g->NumVertices())),
            static_cast<VertexId>(rng.NextBelow(g->NumVertices())));
      }
    }
  } else {
    const auto sets = GenerateLInfQuerySets(*g, total_queries, seed);
    const QuerySet* found = nullptr;
    for (const QuerySet& s : sets) {
      if (s.name == workload) found = &s;
    }
    if (found == nullptr || found->pairs.empty()) {
      std::fprintf(stderr,
                   "workload %s is unknown or empty on this graph"
                   " (expected random or Q1..Q10)\n",
                   workload.c_str());
      return 1;
    }
    queries.reserve(total_queries);
    for (size_t i = 0; i < total_queries; ++i) {
      queries.push_back(found->pairs[i % found->pairs.size()]);
    }
  }

  // Retune the server's tracer before any load arrives, so the whole
  // run is recorded under the requested sampling policy.
  if (flags->count("trace-sample") > 0 || flags->count("slow-us") > 0) {
    auto admin = BlockingClient::Connect(host, port, &error);
    if (admin == nullptr) {
      std::fprintf(stderr, "trace config connect: %s\n", error.c_str());
      return 1;
    }
    wire::TraceConfigRequest cfg;
    if (flags->count("trace-sample") > 0) {
      cfg.sample_every = FlagOr(*flags, "trace-sample", 0);
    }
    if (flags->count("slow-us") > 0) {
      cfg.slow_micros = FlagOr(*flags, "slow-us", kTraceSlowDisabled);
    }
    wire::TraceConfigResponse effective;
    if (!admin->ConfigureTracing(cfg, &effective, &error)) {
      std::fprintf(stderr, "trace config: %s\n", error.c_str());
      return 1;
    }
    std::string sampling =
        effective.sample_every == 0
            ? "head sampling off"
            : "sample 1-in-" + std::to_string(effective.sample_every);
    std::string slow =
        effective.slow_micros == kTraceSlowDisabled
            ? "slow capture off"
            : "slow threshold " + std::to_string(effective.slow_micros) +
                  " us";
    std::printf("tracing:     %s, %s\n", sampling.c_str(), slow.c_str());
  }

  if (open_loop) {
    OpenLoopOptions olo;
    olo.host = host;
    olo.port = port;
    olo.connections = connections;
    olo.pipeline = pipeline;
    olo.rate = std::stod(flags->at("rate"));
    olo.poisson = arrival == "poisson";
    olo.total_requests = total_queries;
    olo.seed = seed;
    olo.num_vertices = g->NumVertices();
    olo.technique = wire::TechniqueId(technique);
    olo.kind = use_paths ? wire::QueryKind::kPath
                         : wire::QueryKind::kDistance;
    olo.deadline_micros = deadline_us;
    olo.verify_every = verify_every;
    const OpenLoopResult res = RunOpenLoop(olo);

    // Oracle-check the recorded samples after the run: verification off
    // the driver thread keeps the arrival schedule honest.
    uint64_t verified = 0, mismatches = 0;
    std::string first_problem = res.error;
    if (verify_every > 0) {
      Dijkstra oracle(*g);
      for (const OpenLoopResult::VerifySample& sample : res.samples) {
        const auto status = static_cast<wire::Status>(sample.status);
        if (status != wire::Status::kOk &&
            status != wire::Status::kUnreachable) {
          continue;  // shed before execution: nothing to check
        }
        ++verified;
        const Distance truth = oracle.Run(sample.source, sample.target);
        const Distance got = status == wire::Status::kOk ? sample.distance
                                                         : kInfDistance;
        if (got != truth) {
          ++mismatches;
          if (first_problem.empty()) {
            first_problem =
                "oracle mismatch for " + std::to_string(sample.source) +
                " -> " + std::to_string(sample.target) + ": server " +
                std::to_string(got) + ", oracle " + std::to_string(truth);
          }
        }
      }
    }

    auto count = [&res](wire::Status s) {
      return res.status_counts[static_cast<uint8_t>(s)];
    };
    std::printf("open loop:   %.0f req/s offered (%s), %llu requests over"
                " %zu connections, pipeline %zu, kind %s\n",
                res.offered_qps, arrival.c_str(),
                static_cast<unsigned long long>(res.sent), connections,
                pipeline, use_paths ? "path" : "distance");
    std::printf("completed:   %llu (%llu ok, %llu unreachable)\n",
                static_cast<unsigned long long>(res.received),
                static_cast<unsigned long long>(count(wire::Status::kOk)),
                static_cast<unsigned long long>(
                    count(wire::Status::kUnreachable)));
    std::printf("shed:        %llu overloaded, %llu deadline, %llu draining,"
                " %llu bad, %llu connection errors\n",
                static_cast<unsigned long long>(
                    count(wire::Status::kOverloaded)),
                static_cast<unsigned long long>(
                    count(wire::Status::kDeadlineExceeded)),
                static_cast<unsigned long long>(
                    count(wire::Status::kShuttingDown)),
                static_cast<unsigned long long>(
                    count(wire::Status::kBadRequest)),
                static_cast<unsigned long long>(res.connection_errors));
    std::printf("verified:    %llu against the Dijkstra oracle,"
                " %llu mismatches\n",
                static_cast<unsigned long long>(verified),
                static_cast<unsigned long long>(mismatches));
    std::printf("throughput:  %.0f achieved req/s (wall %.3f s)\n",
                res.achieved_qps, res.elapsed_ns * 1e-9);
    std::printf("latency:     from scheduled arrival p50 %.1f us,"
                " p99 %.1f us, max %.1f us\n",
                res.latency.ValueAtQuantile(0.50) * 1e-3,
                res.latency.ValueAtQuantile(0.99) * 1e-3,
                res.latency.Max() * 1e-3);
    std::printf("send late:   behind schedule p50 %.1f us, p99 %.1f us\n",
                res.send_lateness.ValueAtQuantile(0.50) * 1e-3,
                res.send_lateness.ValueAtQuantile(0.99) * 1e-3);
    if (!first_problem.empty()) {
      std::fprintf(stderr, "problem:     %s\n", first_problem.c_str());
    }

    if (flags->count("stats") > 0 || flags->count("shutdown") > 0) {
      auto admin = BlockingClient::Connect(host, port, &error);
      if (admin == nullptr) {
        std::fprintf(stderr, "admin connect: %s\n", error.c_str());
        return 1;
      }
      if (flags->count("stats") > 0) {
        wire::StatsResponse s;
        if (!admin->GetStats(&s, &error)) {
          std::fprintf(stderr, "stats: %s\n", error.c_str());
          return 1;
        }
        std::printf("server:      served %llu, shed %llu/%llu/%llu,"
                    " reaped %llu idle, write queues %llu bytes\n",
                    static_cast<unsigned long long>(s.served),
                    static_cast<unsigned long long>(s.shed_overloaded),
                    static_cast<unsigned long long>(s.shed_deadline),
                    static_cast<unsigned long long>(s.shed_draining),
                    static_cast<unsigned long long>(s.idle_reaped),
                    static_cast<unsigned long long>(s.write_queue_bytes));
      }
      if (flags->count("shutdown") > 0) {
        if (!admin->SendShutdown(&error)) {
          std::fprintf(stderr, "shutdown: %s\n", error.c_str());
          return 1;
        }
        std::printf("shutdown:    acknowledged, server draining\n");
      }
    }
    return (!res.ok || mismatches > 0) ? 1 : 0;
  }

  std::vector<WorkerResult> results(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  Timer wall;
  for (size_t tid = 0; tid < connections; ++tid) {
    threads.emplace_back([&, tid] {
      WorkerResult& r = results[tid];
      std::string err;
      auto client = BlockingClient::Connect(host, port, &err);
      if (client == nullptr) {
        ++r.transport_errors;
        r.first_problem = "connect: " + err;
        return;
      }
      if (knn_mode) {
        for (size_t i = tid; i < knn_work.size(); i += connections) {
          const KnnWork& w = knn_work[i];
          wire::KnnResponse resp;
          Timer timer;
          bool sent;
          if (w.otm) {
            wire::OneToManyRequest req;
            req.category = w.category;
            req.source = w.source;
            req.deadline_micros = deadline_us;
            sent = client->OneToMany(req, &resp, &err);
          } else {
            wire::KnnRequest req;
            req.method = w.method;
            req.category = w.category;
            req.k = w.k;
            req.source = w.source;
            req.deadline_micros = deadline_us;
            sent = client->Knn(req, &resp, &err);
          }
          if (!sent) {
            ++r.transport_errors;
            if (r.first_problem.empty()) r.first_problem = "knn: " + err;
            return;
          }
          r.latency.Record(timer.ElapsedNanos());
          r.CountStatus(resp.status);
          if (resp.status == wire::Status::kOk && verify_every > 0 &&
              i % verify_every == 0) {
            ++r.verified;
            // Exact result-set check: same POIs, same distances, same
            // (distance, vertex id) order as the expanding-Dijkstra
            // oracle. One-to-many must equal kNN with k = |category|.
            const auto& cat = category_vertices[w.category];
            const size_t want_k = w.otm ? cat.size() : w.k;
            const auto truth = KnnByDijkstra(*g, cat, w.source, want_k);
            bool bad = truth.size() != resp.entries.size();
            for (size_t j = 0; !bad && j < truth.size(); ++j) {
              bad = truth[j].poi != resp.entries[j].first ||
                    truth[j].dist != resp.entries[j].second;
            }
            if (bad) {
              ++r.mismatches;
              if (r.first_problem.empty()) {
                r.first_problem =
                    "knn oracle mismatch: category " +
                    std::to_string(w.category) + ", k " +
                    std::to_string(want_k) + ", source " +
                    std::to_string(w.source) + " (" +
                    std::to_string(resp.entries.size()) + " entries, oracle " +
                    std::to_string(truth.size()) + ")";
              }
            }
          }
        }
        return;
      }

      // Each thread owns its oracle: Dijkstra scratch is per-instance.
      std::unique_ptr<Dijkstra> oracle;
      if (verify_every > 0) oracle = std::make_unique<Dijkstra>(*g);

      for (size_t i = tid; i < queries.size(); i += connections) {
        wire::QueryRequest req;
        req.technique = wire::TechniqueId(technique);
        req.kind = use_paths ? wire::QueryKind::kPath
                             : wire::QueryKind::kDistance;
        req.source = queries[i].first;
        req.target = queries[i].second;
        req.deadline_micros = deadline_us;
        wire::QueryResponse resp;
        Timer timer;
        if (!client->Query(req, &resp, &err)) {
          ++r.transport_errors;
          if (r.first_problem.empty()) r.first_problem = "query: " + err;
          return;  // connection is gone (e.g. server drained)
        }
        r.latency.Record(timer.ElapsedNanos());
        r.CountStatus(resp.status);

        const bool answered = resp.status == wire::Status::kOk ||
                              resp.status == wire::Status::kUnreachable;
        if (oracle != nullptr && answered && i % verify_every == 0) {
          ++r.verified;
          const Distance truth = oracle->Run(req.source, req.target);
          const Distance got = resp.status == wire::Status::kOk
                                   ? resp.distance
                                   : kInfDistance;
          bool bad = got != truth;
          if (!bad && use_paths && resp.status == wire::Status::kOk) {
            const Path& p = resp.path;
            bad = p.empty() || p.front() != req.source ||
                  p.back() != req.target || !IsValidPath(*g, p) ||
                  PathWeight(*g, p) != truth;
          }
          if (bad) {
            ++r.mismatches;
            if (r.first_problem.empty()) {
              r.first_problem =
                  "oracle mismatch for " + std::to_string(req.source) +
                  " -> " + std::to_string(req.target) + ": server " +
                  std::to_string(got) + ", oracle " + std::to_string(truth);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds = wall.ElapsedSeconds();

  WorkerResult total;
  for (const WorkerResult& r : results) {
    total.latency.Merge(r.latency);
    total.ok += r.ok;
    total.unreachable += r.unreachable;
    total.overloaded += r.overloaded;
    total.deadline_exceeded += r.deadline_exceeded;
    total.draining += r.draining;
    total.bad_request += r.bad_request;
    total.transport_errors += r.transport_errors;
    total.verified += r.verified;
    total.mismatches += r.mismatches;
    if (total.first_problem.empty()) total.first_problem = r.first_problem;
  }
  const uint64_t completed = total.latency.Count();

  std::printf("workload:    %s, %zu queries over %zu connections, kind %s\n",
              workload.c_str(),
              knn_mode ? knn_work.size() : queries.size(), connections,
              knn_mode ? "knn+one_to_many"
                       : (use_paths ? "path" : "distance"));
  std::printf("completed:   %llu (%llu ok, %llu unreachable)\n",
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.unreachable));
  std::printf("shed:        %llu overloaded, %llu deadline, %llu draining,"
              " %llu bad, %llu transport errors\n",
              static_cast<unsigned long long>(total.overloaded),
              static_cast<unsigned long long>(total.deadline_exceeded),
              static_cast<unsigned long long>(total.draining),
              static_cast<unsigned long long>(total.bad_request),
              static_cast<unsigned long long>(total.transport_errors));
  std::printf("verified:    %llu against the Dijkstra oracle,"
              " %llu mismatches\n",
              static_cast<unsigned long long>(total.verified),
              static_cast<unsigned long long>(total.mismatches));
  std::printf("throughput:  %.0f queries/s (wall %.3f s)\n",
              wall_seconds > 0 ? completed / wall_seconds : 0.0,
              wall_seconds);
  std::printf("latency:     client p50 %.1f us, p99 %.1f us, max %.1f us\n",
              total.latency.ValueAtQuantile(0.50) * 1e-3,
              total.latency.ValueAtQuantile(0.99) * 1e-3,
              total.latency.Max() * 1e-3);
  if (!total.first_problem.empty()) {
    std::fprintf(stderr, "problem:     %s\n", total.first_problem.c_str());
  }

  if (flags->count("stats") > 0 || flags->count("shutdown") > 0) {
    auto admin = BlockingClient::Connect(host, port, &error);
    if (admin == nullptr) {
      std::fprintf(stderr, "admin connect: %s\n", error.c_str());
      return 1;
    }
    if (flags->count("stats") > 0) {
      wire::StatsResponse s;
      if (!admin->GetStats(&s, &error)) {
        std::fprintf(stderr, "stats: %s\n", error.c_str());
        return 1;
      }
      std::printf("server:      served %llu, shed %llu/%llu/%llu, bad %llu,"
                  " conns %llu accepted %llu rejected\n",
                  static_cast<unsigned long long>(s.served),
                  static_cast<unsigned long long>(s.shed_overloaded),
                  static_cast<unsigned long long>(s.shed_deadline),
                  static_cast<unsigned long long>(s.shed_draining),
                  static_cast<unsigned long long>(s.bad_requests),
                  static_cast<unsigned long long>(s.connections_accepted),
                  static_cast<unsigned long long>(s.connections_rejected));
      std::printf("server lat:  distance p50 %.1f us p99 %.1f us,"
                  " path p50 %.1f us p99 %.1f us\n",
                  s.distance_p50_ns * 1e-3, s.distance_p99_ns * 1e-3,
                  s.path_p50_ns * 1e-3, s.path_p99_ns * 1e-3);
      std::printf("server live: queue depth %llu, in-flight batches %llu,"
                  " open connections %llu\n",
                  static_cast<unsigned long long>(s.queue_depth),
                  static_cast<unsigned long long>(s.in_flight_batches),
                  static_cast<unsigned long long>(s.open_connections));
      if (s.traces_finished > 0) {
        std::printf("traces:      %llu finished, %llu captured"
                    " (%llu slow), %llu dropped\n",
                    static_cast<unsigned long long>(s.traces_finished),
                    static_cast<unsigned long long>(s.traces_captured),
                    static_cast<unsigned long long>(s.traces_slow),
                    static_cast<unsigned long long>(s.traces_dropped));
      }
      if (!s.stages.empty()) {
        std::printf("stage breakdown (server-side, all finished requests):\n");
        std::printf("  %-15s %10s %12s %12s\n", "stage", "count", "p50_us",
                    "p99_us");
        for (const wire::StageStatWire& st : s.stages) {
          std::printf("  %-15s %10llu %12.1f %12.1f\n",
                      TraceStageName(static_cast<TraceStage>(st.stage)),
                      static_cast<unsigned long long>(st.count),
                      st.p50_ns * 1e-3, st.p99_ns * 1e-3);
        }
      }
    }
    if (flags->count("shutdown") > 0) {
      if (!admin->SendShutdown(&error)) {
        std::fprintf(stderr, "shutdown: %s\n", error.c_str());
        return 1;
      }
      std::printf("shutdown:    acknowledged, server draining\n");
    }
  }

  return (total.mismatches > 0 || total.transport_errors > 0) ? 1 : 0;
}
