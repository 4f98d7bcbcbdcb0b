// End-to-end serving benchmark and acceptance check for the network
// query service (src/server/). Runs an in-process QueryServer over
// loopback TCP and drives it with closed-loop client threads, proving
// the four serving properties the subsystem promises:
//
//   1. Correctness under concurrency: >= 4 connections, every sampled
//      distance matches a local Dijkstra oracle exactly.
//   2. Overload shedding: a deliberately undersized request queue
//      produces explicit OVERLOADED responses, not silent queueing.
//   3. Deadline enforcement: requests with a tiny deadline budget are
//      shed with DEADLINE_EXCEEDED at dispatch.
// Phases 2 and 3 host bidirectional Dijkstra: a CH server answers point
// queries on its event loops without queueing them, so only an
// offloaded technique has a queue to overflow or wait in.
//   4. Graceful drain: a SHUTDOWN frame mid-traffic answers every
//      in-flight request before the server stops.
//
// Exits nonzero if any property fails — scripts/check.sh runs this (and
// the TSan build runs it too, covering the server's thread model).
// ROADNET_BENCH_FAST=1 shrinks the traffic volumes.

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "dijkstra/dijkstra.h"
#include "graph/generator.h"
#include "obs/histogram.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace roadnet;

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

struct DriveResult {
  uint64_t ok = 0;
  uint64_t unreachable = 0;
  uint64_t overloaded = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t draining = 0;
  uint64_t transport_errors = 0;
  uint64_t verified = 0;
  uint64_t mismatches = 0;
  Histogram latency;
};

// Drives `per_conn` closed-loop queries on each of `connections`
// threads. verify_every > 0 checks distances against a per-thread
// Dijkstra oracle.
DriveResult Drive(const Graph& g, uint16_t port, size_t connections,
                  size_t per_conn, uint64_t deadline_us,
                  size_t verify_every, uint64_t seed) {
  std::vector<DriveResult> results(connections);
  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < connections; ++tid) {
    threads.emplace_back([&, tid] {
      DriveResult& r = results[tid];
      std::string error;
      auto client = BlockingClient::Connect("127.0.0.1", port, &error);
      if (client == nullptr) {
        ++r.transport_errors;
        return;
      }
      std::unique_ptr<Dijkstra> oracle;
      if (verify_every > 0) oracle = std::make_unique<Dijkstra>(g);
      Rng rng(seed + tid);
      for (size_t i = 0; i < per_conn; ++i) {
        wire::QueryRequest req;
        req.source = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
        req.target = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
        req.deadline_micros = deadline_us;
        wire::QueryResponse resp;
        Timer timer;
        if (!client->Query(req, &resp, &error)) {
          ++r.transport_errors;
          return;
        }
        r.latency.Record(timer.ElapsedNanos());
        switch (resp.status) {
          case wire::Status::kOk: ++r.ok; break;
          case wire::Status::kUnreachable: ++r.unreachable; break;
          case wire::Status::kOverloaded: ++r.overloaded; break;
          case wire::Status::kDeadlineExceeded: ++r.deadline_exceeded; break;
          case wire::Status::kShuttingDown: ++r.draining; break;
          case wire::Status::kBadRequest: break;
        }
        const bool answered = resp.status == wire::Status::kOk ||
                              resp.status == wire::Status::kUnreachable;
        if (oracle != nullptr && answered && i % verify_every == 0) {
          ++r.verified;
          const Distance truth = oracle->Run(req.source, req.target);
          const Distance got = resp.status == wire::Status::kOk
                                   ? resp.distance
                                   : kInfDistance;
          if (got != truth) ++r.mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  DriveResult total;
  for (DriveResult& r : results) {
    total.ok += r.ok;
    total.unreachable += r.unreachable;
    total.overloaded += r.overloaded;
    total.deadline_exceeded += r.deadline_exceeded;
    total.draining += r.draining;
    total.transport_errors += r.transport_errors;
    total.verified += r.verified;
    total.mismatches += r.mismatches;
    total.latency.Merge(r.latency);
  }
  return total;
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const size_t per_conn = fast ? 100 : 500;

  GeneratorConfig config;
  config.target_vertices = fast ? 1200 : 2500;
  config.seed = 42;
  const Graph g = GenerateRoadNetwork(config);
  const ChIndex ch(g);
  const BidirectionalDijkstra bidi(g);
  std::printf("graph: %u vertices, %zu edges; CH ready\n", g.NumVertices(),
              g.NumEdges());

  // --- 1. Correctness under concurrency (>= 4 connections) ---
  {
    ServerOptions options;
    options.engine_threads = 4;
    QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(),
                       options);
    std::string error;
    Check(server.Start(&error), "server start (correctness phase)");
    Timer wall;
    const DriveResult r =
        Drive(g, server.Port(), /*connections=*/6, per_conn,
              /*deadline_us=*/0, /*verify_every=*/1, /*seed=*/7);
    const double seconds = wall.ElapsedSeconds();
    const uint64_t completed = r.ok + r.unreachable;
    std::printf(
        "serving: %llu queries over 6 conns, %.0f qps,"
        " client p50 %.1f us p99 %.1f us\n",
        static_cast<unsigned long long>(completed),
        seconds > 0 ? completed / seconds : 0.0,
        r.latency.ValueAtQuantile(0.50) * 1e-3,
        r.latency.ValueAtQuantile(0.99) * 1e-3);
    std::printf("verified: %llu sampled distances, %llu mismatches\n",
                static_cast<unsigned long long>(r.verified),
                static_cast<unsigned long long>(r.mismatches));
    Check(completed == 6 * per_conn, "every query answered");
    Check(r.verified > 0, "oracle sample nonempty");
    Check(r.mismatches == 0, "all sampled distances match the oracle");
    Check(r.transport_errors == 0, "no transport errors");
    server.Shutdown();
  }

  // --- 2. Overload shedding on an undersized queue ---
  {
    ServerOptions options;
    options.queue_capacity = 1;  // deliberately undersized
    options.engine_threads = 1;
    options.max_dispatch_batch = 1;
    QueryServer server(bidi, wire::TechniqueId("bidi"), g.NumVertices(),
                       options);
    std::string error;
    Check(server.Start(&error), "server start (overload phase)");
    const DriveResult r =
        Drive(g, server.Port(), /*connections=*/8, per_conn,
              /*deadline_us=*/0, /*verify_every=*/0, /*seed=*/11);
    std::printf("overload: queue cap 1, 8 conns -> %llu OVERLOADED of %llu\n",
                static_cast<unsigned long long>(r.overloaded),
                static_cast<unsigned long long>(8 * per_conn));
    Check(r.overloaded > 0,
          "undersized queue sheds with explicit OVERLOADED");
    Check(r.ok > 0, "some queries still served under overload");
    server.Shutdown();
  }

  // --- 3. Deadline enforcement ---
  {
    ServerOptions options;
    options.engine_threads = 1;
    QueryServer server(bidi, wire::TechniqueId("bidi"), g.NumVertices(),
                       options);
    std::string error;
    Check(server.Start(&error), "server start (deadline phase)");
    // A 1 us budget is below any realistic queue wait, so dispatch-time
    // deadline checks shed nearly everything.
    const DriveResult r =
        Drive(g, server.Port(), /*connections=*/8, per_conn,
              /*deadline_us=*/1, /*verify_every=*/0, /*seed=*/13);
    std::printf("deadline: 1 us budget -> %llu DEADLINE_EXCEEDED of %llu\n",
                static_cast<unsigned long long>(r.deadline_exceeded),
                static_cast<unsigned long long>(8 * per_conn));
    Check(r.deadline_exceeded > 0,
          "expired deadline sheds with DEADLINE_EXCEEDED");
    server.Shutdown();
  }

  // --- 4. Graceful drain answers in-flight requests ---
  {
    ServerOptions options;
    options.engine_threads = 2;
    QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(),
                       options);
    std::string error;
    Check(server.Start(&error), "server start (drain phase)");
    const uint16_t port = server.Port();
    std::atomic<uint64_t> answered{0};
    std::atomic<uint64_t> dropped{0};
    std::vector<std::thread> drivers;
    for (size_t tid = 0; tid < 4; ++tid) {
      drivers.emplace_back([&, tid] {
        std::string err;
        auto client = BlockingClient::Connect("127.0.0.1", port, &err);
        if (client == nullptr) return;
        Rng rng(100 + tid);
        for (size_t i = 0; i < per_conn; ++i) {
          wire::QueryRequest req;
          req.source = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
          req.target = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
          wire::QueryResponse resp;
          if (!client->Query(req, &resp, &err)) {
            // A hangup between requests after the drain began is a clean
            // end of this connection, not a dropped request.
            if (err != "server closed the connection") {
              dropped.fetch_add(1);
            }
            return;
          }
          answered.fetch_add(1);
        }
      });
    }
    // Let traffic build, then pull the plug from an admin connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(fast ? 20 : 50));
    auto admin = BlockingClient::Connect("127.0.0.1", port, &error);
    Check(admin != nullptr, "admin connect");
    if (admin != nullptr) {
      Check(admin->SendShutdown(&error), "SHUTDOWN frame acknowledged");
    }
    for (std::thread& t : drivers) t.join();
    server.Shutdown();
    std::printf("drain: %llu answered before/through shutdown,"
                " %llu dropped mid-request\n",
                static_cast<unsigned long long>(answered.load()),
                static_cast<unsigned long long>(dropped.load()));
    Check(answered.load() > 0, "requests answered through shutdown");
    Check(dropped.load() == 0, "no request dropped without a response");
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "bench_server: %d failures\n", g_failures);
    return 1;
  }
  std::printf("bench_server: all serving properties hold\n");
  return 0;
}
