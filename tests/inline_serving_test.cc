// Run-to-completion serving: a CH or HL server answers point requests on
// the event loop that read them. These tests pin what that path must
// keep from the offload path — answers, ids, stats, trace stages, drain —
// and what it must not cost (queue traffic, engine index contexts).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/dijkstra.h"
#include "engine/query_engine.h"
#include "hl/hl_index.h"
#include "knn/knn_index.h"
#include "poi/poi_set.h"
#include "routing/path.h"
#include "server/client.h"
#include "server/server.h"
#include "server/socket.h"
#include "server/wire.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

ScopedFd RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return ScopedFd(fd);
}

// Forwards to an inner index and counts the contexts handed out, so a
// test can see which parts of the server built one.
class ContextCountingIndex : public PathIndex {
 public:
  explicit ContextCountingIndex(const PathIndex& inner) : inner_(inner) {}
  std::string Name() const override { return inner_.Name(); }
  std::unique_ptr<QueryContext> NewContext() const override {
    contexts_.fetch_add(1);
    return inner_.NewContext();
  }
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override {
    return inner_.DistanceQuery(ctx, s, t);
  }
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override {
    return inner_.PathQuery(ctx, s, t);
  }
  size_t IndexBytes() const override { return inner_.IndexBytes(); }
  uint64_t Contexts() const { return contexts_.load(); }

 private:
  const PathIndex& inner_;
  mutable std::atomic<uint64_t> contexts_{0};
};

// Checks one point answer against the Dijkstra distance.
void ExpectAnswer(const Graph& g, Distance truth, wire::QueryKind kind,
                  VertexId s, VertexId t, const wire::QueryResponse& resp) {
  if (truth == kInfDistance) {
    EXPECT_EQ(resp.status, wire::Status::kUnreachable);
    return;
  }
  ASSERT_EQ(resp.status, wire::Status::kOk);
  EXPECT_EQ(resp.distance, truth);
  if (kind == wire::QueryKind::kDistance) {
    EXPECT_TRUE(resp.path.empty());
    return;
  }
  ASSERT_FALSE(resp.path.empty());
  EXPECT_EQ(resp.path.front(), s);
  EXPECT_EQ(resp.path.back(), t);
  EXPECT_TRUE(IsValidPath(g, resp.path));
  EXPECT_EQ(PathWeight(g, resp.path), truth);
}

TEST(QueryServerInline, ChAndHlAnswerLikeDijkstraOverQueryAndQuery2) {
  const Graph g = TestNetwork(400, 71);
  const ChIndex ch(g);
  const HlIndex hl(g, ch);
  Dijkstra oracle(g);
  const auto pairs = RandomPairs(g, 40, 73);
  for (const auto& [name, index] :
       std::vector<std::pair<std::string, const PathIndex*>>{{"ch", &ch},
                                                             {"hl", &hl}}) {
    SCOPED_TRACE(name);
    QueryServer server(*index, wire::TechniqueId(name), g.NumVertices(), {});
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    // v1 QUERY frames, one at a time.
    auto client = BlockingClient::Connect("127.0.0.1", server.Port(), &error);
    ASSERT_NE(client, nullptr) << error;
    for (const auto& [s, t] : pairs) {
      const Distance truth = oracle.Run(s, t);
      for (const auto kind :
           {wire::QueryKind::kDistance, wire::QueryKind::kPath}) {
        wire::QueryRequest req;
        req.technique = wire::TechniqueId(name);
        req.kind = kind;
        req.source = s;
        req.target = t;
        wire::QueryResponse resp;
        ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
        ExpectAnswer(g, truth, kind, s, t, resp);
      }
    }

    // Pipelined QUERY2: the whole burst goes out before any reply is
    // read, and every reply must carry its request's id.
    ScopedFd conn = RawConnect(server.Port());
    for (size_t i = 0; i < 2 * pairs.size(); ++i) {
      wire::QueryRequest req;
      req.request_id = 1000 + i;
      req.kind = i % 2 == 0 ? wire::QueryKind::kDistance
                            : wire::QueryKind::kPath;
      req.source = pairs[i / 2].first;
      req.target = pairs[i / 2].second;
      ASSERT_TRUE(WriteFrame(conn.get(), wire::EncodeQueryRequestV2(req)));
    }
    std::vector<bool> seen(2 * pairs.size(), false);
    for (size_t n = 0; n < seen.size(); ++n) {
      std::string body;
      ASSERT_TRUE(ReadFrame(conn.get(), &body, wire::kMaxFrameBytes));
      const auto resp = wire::DecodeQueryResponseV2(body);
      ASSERT_TRUE(resp.has_value());
      ASSERT_GE(resp->request_id, 1000u);
      const size_t i = resp->request_id - 1000;
      ASSERT_LT(i, seen.size());
      EXPECT_FALSE(seen[i]) << "duplicate reply " << i;
      seen[i] = true;
      const auto [s, t] = pairs[i / 2];
      ExpectAnswer(g, oracle.Run(s, t),
                   i % 2 == 0 ? wire::QueryKind::kDistance
                              : wire::QueryKind::kPath,
                   s, t, *resp);
    }

    const wire::StatsResponse stats = server.Stats();
    EXPECT_EQ(stats.served, 4 * pairs.size());
    EXPECT_EQ(stats.distance_count, 2 * pairs.size());
    EXPECT_EQ(stats.path_count, 2 * pairs.size());
    server.Shutdown();
  }
}

TEST(QueryServerInline, QueueStaysEmptyDuringPointTraffic) {
  const Graph g = TestNetwork(300, 75);
  const ChIndex ch(g);
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const auto pairs = RandomPairs(g, 64, 77);

  // v1 QUERY frames always run on their loop, whatever the budget has
  // left (sanitizer builds included), so nothing may reach the queue.
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::string client_error;
      auto client =
          BlockingClient::Connect("127.0.0.1", server.Port(), &client_error);
      ASSERT_NE(client, nullptr) << client_error;
      for (int round = 0; round < 20; ++round) {
        for (size_t i = 0; i < pairs.size(); ++i) {
          wire::QueryRequest req;
          req.kind = (i + c) % 4 == 0 ? wire::QueryKind::kPath
                                      : wire::QueryKind::kDistance;
          req.source = pairs[i].first;
          req.target = pairs[i].second;
          wire::QueryResponse resp;
          ASSERT_TRUE(client->Query(req, &resp, &client_error))
              << client_error;
        }
      }
    });
  }
  uint64_t samples = 0;
  std::thread poller([&] {
    while (!done.load()) {
      const wire::StatsResponse s = server.StatsV2();
      EXPECT_EQ(s.queue_depth, 0u);
      EXPECT_EQ(s.in_flight_batches, 0u);
      ++samples;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& t : clients) t.join();
  done.store(true);
  poller.join();
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(server.Stats().served, 3u * 20u * pairs.size());
  server.Shutdown();
}

// Sends `count` QUERY2 distance requests in one write, so the loop reads
// them in one pass, and checks every reply against Dijkstra.
void PipelineBurst(const Graph& g, uint16_t port, size_t count,
                   uint64_t seed) {
  const auto pairs = RandomPairs(g, count, seed);
  std::string burst;
  for (size_t i = 0; i < pairs.size(); ++i) {
    wire::QueryRequest req;
    req.request_id = i;
    req.source = pairs[i].first;
    req.target = pairs[i].second;
    const std::string body = wire::EncodeQueryRequestV2(req);
    const uint32_t len = static_cast<uint32_t>(body.size());
    burst.append(reinterpret_cast<const char*>(&len), sizeof(len));
    burst += body;
  }
  ScopedFd conn = RawConnect(port);
  ASSERT_EQ(::send(conn.get(), burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  Dijkstra oracle(g);
  std::vector<bool> seen(pairs.size(), false);
  for (size_t n = 0; n < pairs.size(); ++n) {
    std::string body;
    ASSERT_TRUE(ReadFrame(conn.get(), &body, wire::kMaxFrameBytes));
    const auto resp = wire::DecodeQueryResponseV2(body);
    ASSERT_TRUE(resp.has_value());
    ASSERT_LT(resp->request_id, seen.size());
    EXPECT_FALSE(seen[resp->request_id]) << "duplicate reply";
    seen[resp->request_id] = true;
    const auto [s, t] = pairs[resp->request_id];
    ExpectAnswer(g, oracle.Run(s, t), wire::QueryKind::kDistance, s, t,
                 *resp);
  }
}

TEST(QueryServerInline, PipelinedBurstPastTheBudgetSpillsToTheEngine) {
  const Graph g = TestNetwork(400, 111);
  const ChIndex ch(g);
  const ContextCountingIndex counted(ch);
  ServerOptions options;
  options.num_loops = 1;
  options.engine_threads = 2;
  QueryServer server(counted, wire::TechniqueId("ch"), g.NumVertices(),
                     options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_EQ(counted.Contexts(), 1u);  // the loop's
  // 256 requests take well over the loop's 25 us budget for one pass:
  // the rest of the burst goes to the engine, whose workers build their
  // contexts on their first batch.
  PipelineBurst(g, server.Port(), 256, 113);
  EXPECT_EQ(counted.Contexts(), 1u + options.engine_threads);
  EXPECT_EQ(server.Stats().served, 256u);
  server.Shutdown();
}

TEST(QueryServerInline, TracesCarryEveryStageWithZeroLengthQueueWait) {
  if constexpr (!kTracingCompiledIn) GTEST_SKIP();
  const Graph g = TestNetwork(300, 79);
  const ChIndex ch(g);
  const HlIndex hl(g, ch);
  ServerOptions options;
  options.trace_sample_every = 1;
  options.trace_out = testing::TempDir() + "/inline_traces.jsonl";
  QueryServer server(hl, wire::TechniqueId("hl"), g.NumVertices(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = BlockingClient::Connect("127.0.0.1", server.Port(), &error);
  ASSERT_NE(client, nullptr) << error;
  constexpr size_t kQueries = 30;
  for (const auto& [s, t] : RandomPairs(g, kQueries, 81)) {
    wire::QueryRequest req;
    req.kind = s % 2 == 0 ? wire::QueryKind::kPath : wire::QueryKind::kDistance;
    req.source = s;
    req.target = t;
    wire::QueryResponse resp;
    ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  }

  // Every stage an offloaded request reports is counted for every
  // inline request too. (Read after the drain: a reply reaches the client
  // before its loop finishes the trace.)
  client.reset();
  server.Shutdown();
  const wire::StatsResponse stats = server.StatsV2();
  for (const TraceStage stage :
       {TraceStage::kFrameRead, TraceStage::kEnqueue, TraceStage::kQueueWait,
        TraceStage::kBatchAssembly, TraceStage::kExecute,
        TraceStage::kReplyWrite}) {
    uint64_t count = 0;
    for (const wire::StageStatWire& st : stats.stages) {
      if (st.stage == static_cast<uint8_t>(stage)) count = st.count;
    }
    EXPECT_EQ(count, kQueries) << TraceStageName(stage);
  }

  std::ifstream in(options.trace_out);
  ASSERT_TRUE(in.good());
  const std::regex stage_re(
      "\\{\"stage\":\"([a-z_]+)\",\"start_ns\":([0-9]+),\"end_ns\":([0-9]+)"
      "\\}");
  const std::vector<std::string> want = {"frame_read",     "enqueue",
                                         "queue_wait",     "batch_assembly",
                                         "execute",        "reply_write"};
  size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    ++lines;
    std::vector<std::string> names;
    uint64_t prev_end = 0;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), stage_re);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1];
      const uint64_t start = std::stoull((*it)[2]);
      const uint64_t end = std::stoull((*it)[3]);
      EXPECT_LE(prev_end, start) << name << " overlaps: " << line;
      EXPECT_LE(start, end) << line;
      if (name == "queue_wait") {
        EXPECT_EQ(start, end) << line;
      }
      prev_end = end;
      if (name != "accept") names.push_back(name);
    }
    EXPECT_EQ(names, want) << line;
  }
  std::remove(options.trace_out.c_str());
  EXPECT_EQ(lines, kQueries);
}

TEST(QueryServerInline, FrameReadExcludesClientThinkTime) {
  if constexpr (!kTracingCompiledIn) GTEST_SKIP();
  const Graph g = TestNetwork(200, 83);
  const ChIndex ch(g);
  ServerOptions options;
  options.trace_sample_every = 1;
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = BlockingClient::Connect("127.0.0.1", server.Port(), &error);
  ASSERT_NE(client, nullptr) << error;
  // A closed-loop client that thinks 5 ms between requests: the frame's
  // bytes arrive in one segment, so reading it takes microseconds.
  for (const auto& [s, t] : RandomPairs(g, 20, 85)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    wire::QueryRequest req;
    req.source = s;
    req.target = t;
    wire::QueryResponse resp;
    ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  }
  client.reset();
  server.Shutdown();  // every trace finished
  uint64_t frame_read_p50 = ~0ull;
  for (const wire::StageStatWire& st : server.StatsV2().stages) {
    if (st.stage == static_cast<uint8_t>(TraceStage::kFrameRead)) {
      EXPECT_EQ(st.count, 20u);
      frame_read_p50 = st.p50_ns;
    }
  }
  EXPECT_LT(frame_read_p50, 1'000'000u) << "frame_read counts think time";
}

TEST(QueryServerInline, MixedKnnAndPointFramesOnOneConnectionAnswerOnce) {
  const Graph g = TestNetwork(400, 87);
  const ChIndex ch(g);
  PoiConfig config;
  config.categories = {{"restaurant", 0.03}};
  config.seed = 89;
  const PoiSet pois = PoiSet::Generate(g, config);
  const KnnBucketIndex bucket(ch, pois);
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {},
                     KnnServing{&pois, &bucket, nullptr});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const auto pairs = RandomPairs(g, 60, 91);

  // Expected kNN answers, as a multiset: kNN replies carry no id, so
  // each one must consume a distinct expected answer.
  std::multimap<std::vector<std::pair<VertexId, Distance>>, int> expected;
  KnnBucketIndex::Context ctx = bucket.NewContext();
  std::vector<KnnResult> out;
  ScopedFd conn = RawConnect(server.Port());
  size_t knn_sent = 0, point_sent = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    wire::QueryRequest req;
    req.request_id = i;
    req.kind = i % 3 == 0 ? wire::QueryKind::kPath : wire::QueryKind::kDistance;
    req.source = pairs[i].first;
    req.target = pairs[i].second;
    ASSERT_TRUE(WriteFrame(conn.get(), wire::EncodeQueryRequestV2(req)));
    ++point_sent;
    if (i % 4 == 0) {
      wire::KnnRequest knn;
      knn.category = 0;
      knn.k = 1 + static_cast<uint32_t>(i % 7);
      knn.source = pairs[i].first;
      ASSERT_TRUE(WriteFrame(conn.get(), wire::EncodeKnnRequest(knn)));
      bucket.KnnQuery(&ctx, knn.category, knn.source, knn.k, &out);
      std::vector<std::pair<VertexId, Distance>> entries;
      for (const KnnResult& r : out) entries.emplace_back(r.poi, r.dist);
      expected.emplace(std::move(entries), 0);
      ++knn_sent;
    }
  }

  Dijkstra oracle(g);
  std::vector<bool> seen(pairs.size(), false);
  size_t knn_got = 0;
  for (size_t n = 0; n < knn_sent + point_sent; ++n) {
    std::string body;
    ASSERT_TRUE(ReadFrame(conn.get(), &body, wire::kMaxFrameBytes));
    const auto type = wire::PeekType(body);
    ASSERT_TRUE(type.has_value());
    if (*type == wire::kKnnReply) {
      const auto resp = wire::DecodeKnnResponse(wire::kKnnReply, body);
      ASSERT_TRUE(resp.has_value());
      ASSERT_EQ(resp->status, wire::Status::kOk);
      const auto it = expected.find(resp->entries);
      ASSERT_NE(it, expected.end()) << "unexpected or repeated kNN reply";
      expected.erase(it);
      ++knn_got;
      continue;
    }
    const auto resp = wire::DecodeQueryResponseV2(body);
    ASSERT_TRUE(resp.has_value());
    ASSERT_LT(resp->request_id, seen.size());
    EXPECT_FALSE(seen[resp->request_id]) << "duplicate reply";
    seen[resp->request_id] = true;
    const auto [s, t] = pairs[resp->request_id];
    ExpectAnswer(g, oracle.Run(s, t),
                 resp->request_id % 3 == 0 ? wire::QueryKind::kPath
                                           : wire::QueryKind::kDistance,
                 s, t, *resp);
  }
  EXPECT_EQ(knn_got, knn_sent);
  EXPECT_TRUE(expected.empty());
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  EXPECT_EQ(server.Stats().served, knn_sent + point_sent);
  server.Shutdown();
}

TEST(QueryServerInline, ShutdownDuringInlineTrafficAnswersEveryAdmitted) {
  const Graph g = TestNetwork(300, 93);
  const ChIndex ch(g);
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const auto pairs = RandomPairs(g, 32, 95);

  // Pipelining clients that keep sending until the server hangs up.
  // Every reply is tallied; a request the server never read gets none.
  struct Tally {
    uint64_t answered = 0;      // OK or UNREACHABLE
    uint64_t shutting_down = 0;
    uint64_t other = 0;
    uint64_t duplicates = 0;
  };
  constexpr int kClients = 3;
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Tally& tally = tallies[c];
      ScopedFd conn = RawConnect(server.Port());
      std::vector<bool> seen;
      for (uint64_t next = 0;;) {
        const uint64_t first = next;
        for (size_t i = 0; i < pairs.size(); ++i, ++next) {
          wire::QueryRequest req;
          req.request_id = next;
          req.source = pairs[i].first;
          req.target = pairs[i].second;
          if (!WriteFrame(conn.get(), wire::EncodeQueryRequestV2(req))) break;
        }
        seen.resize(next, false);
        for (uint64_t n = first; n < next; ++n) {
          std::string body;
          if (!ReadFrame(conn.get(), &body, wire::kMaxFrameBytes)) return;
          const auto resp = wire::DecodeQueryResponseV2(body);
          if (!resp.has_value() || resp->request_id >= seen.size()) {
            ++tally.other;
            continue;
          }
          if (seen[resp->request_id]) ++tally.duplicates;
          seen[resp->request_id] = true;
          if (resp->status == wire::Status::kOk ||
              resp->status == wire::Status::kUnreachable) {
            ++tally.answered;
          } else if (resp->status == wire::Status::kShuttingDown) {
            ++tally.shutting_down;
          } else {
            ++tally.other;
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto admin = BlockingClient::Connect("127.0.0.1", server.Port(), &error);
  ASSERT_NE(admin, nullptr) << error;
  ASSERT_TRUE(admin->SendShutdown(&error)) << error;
  ASSERT_TRUE(server.WaitForShutdownRequest(std::chrono::seconds(5)));
  server.Shutdown();
  for (auto& t : clients) t.join();

  uint64_t answered = 0;
  for (const Tally& t : tallies) {
    answered += t.answered;
    EXPECT_EQ(t.duplicates, 0u);
    EXPECT_EQ(t.other, 0u);
    EXPECT_GT(t.answered, 0u);
  }
  // Every request the server admitted and ran reached its client.
  EXPECT_EQ(answered, server.Stats().served);
}

TEST(QueryServerInline, KnnOnlyEngineBuildsNoIndexContext) {
  const Graph g = TestNetwork(400, 97);
  const ChIndex ch(g);
  const ContextCountingIndex counted(ch);
  PoiConfig config;
  config.categories = {{"fuel", 0.02}};
  config.seed = 99;
  const PoiSet pois = PoiSet::Generate(g, config);
  const KnnBucketIndex bucket(ch, pois);
  ServerOptions options;
  options.num_loops = 2;
  options.engine_threads = 3;
  QueryServer server(counted, wire::TechniqueId("ch"), g.NumVertices(),
                     options, KnnServing{&pois, &bucket, nullptr});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  // One context per loop, built by Start.
  EXPECT_EQ(counted.Contexts(), options.num_loops);

  auto client = BlockingClient::Connect("127.0.0.1", server.Port(), &error);
  ASSERT_NE(client, nullptr) << error;
  for (const auto& [s, t] : RandomPairs(g, 20, 101)) {
    wire::QueryRequest req;
    req.source = s;
    req.target = t;
    wire::QueryResponse resp;
    ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
    wire::KnnRequest knn;
    knn.k = 3;
    knn.source = s;
    wire::KnnResponse knn_resp;
    ASSERT_TRUE(client->Knn(knn, &knn_resp, &error)) << error;
    ASSERT_EQ(knn_resp.status, wire::Status::kOk);
  }
  server.Shutdown();
  // The engine ran only kNN tasks, so its workers never built one.
  EXPECT_EQ(counted.Contexts(), options.num_loops);
}

TEST(QueryEngineLazyContexts, BuiltByTheFirstPairBatchOnly) {
  const Graph g = TestNetwork(200, 103);
  const ChIndex ch(g);
  const ContextCountingIndex counted(ch);
  QueryEngine engine(counted, 3);
  EXPECT_EQ(counted.Contexts(), 0u);
  const QueryTask noop = [](size_t, size_t, QueryCounters*) {};
  engine.RunTasks(50, noop);
  EXPECT_EQ(counted.Contexts(), 0u);
  const auto pairs = RandomPairs(g, 50, 105);
  const BatchResult first = engine.Run(pairs);
  EXPECT_EQ(counted.Contexts(), engine.NumThreads());
  const BatchResult second = engine.Run(pairs);
  EXPECT_EQ(counted.Contexts(), engine.NumThreads());
  EXPECT_EQ(first.distances, second.distances);
}

}  // namespace
}  // namespace roadnet
