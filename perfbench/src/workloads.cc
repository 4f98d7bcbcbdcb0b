// The three workloads. Each one sets up several times (set-up time is the
// median), then measures for the requested seconds, then checks every
// answer after the timed window.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "bench.h"
#include "routing/knn.h"
#include "routing/path.h"
#include "server/wire.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace perfbench {

namespace wire = roadnet::wire;
using roadnet::BatchOptions;
using roadnet::BatchResult;
using roadnet::Distance;
using roadnet::QueryEngine;
using roadnet::QueryServer;
using roadnet::VertexId;

namespace {

constexpr size_t kPairsPerSet = 1000;  // Q1..Q10 each
constexpr size_t kPathPerSet = 100;
constexpr size_t kBidiPerSet = 100;
constexpr size_t kKnnSources = 2000;
constexpr size_t kChRepeats = 3;   // CH distance batches repeat the list
constexpr size_t kHlRepeats = 30;  // HL batches repeat the list
constexpr size_t kDijkstraSample = 24;  // pairs checked by plain Dijkstra
constexpr size_t kKnnOracleSample = 16;

// Open-loop rates and connection counts of the serving workloads.
constexpr double kLowRate = 2000;
constexpr double kHighRate = 20000;
constexpr size_t kHlConnections = 4;
constexpr double kMixedRate = 5000;
constexpr size_t kMixedConnections = 3;
constexpr double kPathShare = 0.15;
constexpr size_t kQueueCapacity = 4096;

// Shares of each serve_hl_point round: the two open-loop rates and the
// saturating closed loop (depth kSaturationDepth on every connection).
constexpr double kLowShare = 0.4;
constexpr double kHighShare = 0.4;
constexpr double kSaturationShare = 0.2;
constexpr size_t kSaturationDepth = 16;
constexpr size_t kRttPerRound = 500;
// The serving workloads run as this many rounds; see OverRounds.
constexpr size_t kFixedRounds = 12;
constexpr double kDrainSeconds = 3;

const roadnet::DatasetSpec& WesternUs() {
  for (const auto& spec : roadnet::PaperDatasets()) {
    if (spec.name == "W-US'") return spec;
  }
  return roadnet::PaperDatasets().back();
}

constexpr size_t kSetupRepetitions = 2;

// ---- set-up steps -------------------------------------------------------

void BuildGraph(World* w) {
  w->times.graph_s = TimedSeconds("graph.BuildDataset", [&] {
    w->graph = std::make_unique<Graph>(roadnet::BuildDataset(WesternUs()));
  });
}

void Contract(World* w) {
  w->times.contract_s = TimedSeconds("ch.ChIndex", [&] {
    w->ch = std::make_unique<ChIndex>(*w->graph);
  });
}

void BuildHl(World* w) {
  w->times.hl_s = TimedSeconds("hl.HlIndex", [&] {
    w->hl = std::make_unique<HlIndex>(*w->graph, *w->ch);
  });
}

// Replaces the built indexes by copies loaded from their serialized
// bytes, the way `serve --index` starts from files.
void ReloadIndexes(World* w, bool with_hl) {
  const std::string ch_bytes = SerializeCh(*w->ch);
  const std::string hl_bytes = with_hl ? SerializeHl(*w->hl) : "";
  w->hl.reset();
  w->ch.reset();
  w->ch = ReloadCh(*w->graph, ch_bytes, &w->times);
  if (with_hl) w->hl = ReloadHl(*w->graph, *w->ch, hl_bytes, &w->times);
}

std::unique_ptr<QueryServer> StartServer(const roadnet::PathIndex& index,
                                         const char* technique,
                                         uint32_t num_vertices,
                                         const roadnet::KnnServing& knn,
                                         const std::string& trace_out) {
  ScopedSpan span("server.QueryServer::Start");
  roadnet::ServerOptions options;
  options.engine_threads = Workers();
  // Deep enough that a millisecond stall of the host at 20k req/s queues
  // instead of shedding; the CLI default (256) is sized for one client.
  options.queue_capacity = kQueueCapacity;
  options.trace_out = trace_out;
  auto server = std::make_unique<QueryServer>(
      index, wire::TechniqueId(technique), num_vertices, options, knn);
  std::string error;
  if (!server->Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    std::exit(2);
  }
  return server;
}

void ConnectClient(World* w, size_t connections) {
  ScopedSpan span("client.Connect");
  w->client = std::make_unique<OpenLoopClient>();
  std::string error;
  if (!w->client->Connect(w->server->Port(), connections, &error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    std::exit(2);
  }
}

std::string TraceFile(const Options& opt, const char* what) {
  if (!opt.trace || opt.trace_dir.empty()) return "";
  return opt.trace_dir + "/" + what + "-" + opt.workload + "-seed" +
         std::to_string(opt.seed) + ".jsonl";
}

// Sets up kSetupRepetitions times and keeps the last world. In the traced
// run the first set-up is untraced and the second records spans, which
// gives the tracing overhead of set-up.
template <typename SetupFn>
std::unique_ptr<World> SetUpRepeatedly(const Options& opt, SetupFn&& setup,
                                       std::vector<double>* totals) {
  std::unique_ptr<World> world;
  for (size_t r = 0; r < kSetupRepetitions; ++r) {
    world.reset();
    if (opt.trace && r + 1 == kSetupRepetitions) {
      SpanRecorder::Get().Enable(1 << 20);
    }
    world = std::make_unique<World>();
    const uint64_t start = NowNs();
    {
      ScopedSpan span("setup");
      setup(world.get());
    }
    world->times.total_s = SecondsSince(start);
    totals->push_back(world->times.total_s);
  }
  return world;
}

// ---- reply bookkeeping --------------------------------------------------

// One open-loop answer kept for the checks after the timed window.
struct Answer {
  uint32_t pair;
  bool path;
  uint8_t status;
  Distance distance;
  uint64_t path_hash;
};

// Counts what a phase got back, keeps its answers, and reconciles the
// client's served count with the server's.
void Account(const std::vector<ScheduledRequest>& sched,
             const PhaseResult& res, uint64_t served_delta,
             uint64_t extra_served, std::vector<Answer>* answers,
             Tally* tally) {
  tally->attempted += sched.size();
  if (res.transport_errors > 0) {
    tally->Fail(res.transport_errors, "transport errors");
  }
  if (res.missing > 0) tally->Fail(res.missing, "missing replies");
  if (res.other_status > 0) tally->Fail(res.other_status, "non-OK status");
  if (res.overloaded > 0) tally->Fail(res.overloaded, "OVERLOADED replies");
  const uint64_t client_served = res.ok + res.unreachable + extra_served;
  if (client_served != served_delta) {
    const uint64_t diff = client_served > served_delta
                              ? client_served - served_delta
                              : served_delta - client_served;
    tally->Fail(std::max<uint64_t>(diff, 1),
                "client served count " + std::to_string(client_served) +
                    " != server served delta " +
                    std::to_string(served_delta));
  }
  for (size_t i = 0; i < sched.size(); ++i) {
    const Reply& r = res.replies[i];
    if (r.recv_ns == 0 || !IsServed(r.status)) continue;
    answers->push_back(Answer{sched[i].pair, sched[i].path, r.status,
                              r.distance, r.path_hash});
  }
}

// Checks every kept open-loop answer against the oracle.
void CheckAnswers(const std::vector<Answer>& answers, Oracle* oracle,
                  const std::vector<std::vector<VertexId>>& first_paths,
                  Tally* tally) {
  std::vector<int8_t> path_ok(first_paths.size(), -1);
  uint64_t wrong = 0;
  for (const Answer& a : answers) {
    const bool unreachable =
        a.status == static_cast<uint8_t>(wire::Status::kUnreachable);
    const Distance got = unreachable ? roadnet::kInfDistance : a.distance;
    if (!oracle->Correct(a.pair, got)) {
      ++wrong;
      continue;
    }
    if (!a.path || unreachable) continue;
    if (path_ok[a.pair] < 0) {
      path_ok[a.pair] = oracle->PathCorrect(a.pair, first_paths[a.pair]) &&
                        HashPath(first_paths[a.pair]) == a.path_hash;
    }
    if (path_ok[a.pair] == 0) ++wrong;
  }
  if (wrong > 0) tally->Fail(wrong, "wrong answers");
}

// A serving statistic is taken per round and reported as the lower
// quartile over the rounds. On a shared 4-vCPU VM the hypervisor starves
// the vCPUs for seconds at a time and every latency balloons; the lower
// quartile reads the program through any stretch that spares a quarter
// of the rounds, where the median needs half of them.
double OverRounds(std::vector<double> per_round) {
  return Quantile(&per_round, 0.25);
}

void Append(std::vector<double>* dst, const std::vector<double>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

// Per-request spans of a traced phase, parented to the phase span.
void RecordRequestSpans(const std::vector<ScheduledRequest>& sched,
                        const PhaseResult& res) {
  SpanRecorder& rec = SpanRecorder::Get();
  if (!rec.enabled()) return;
  const uint32_t parent = rec.Current();
  for (size_t i = 0; i < sched.size(); ++i) {
    const Reply& r = res.replies[i];
    if (r.recv_ns == 0) continue;
    rec.Record(sched[i].path ? "server.QUERY2.path" : "server.QUERY2.distance",
               parent, res.origin_ns + sched[i].due_ns, r.recv_ns);
  }
}

// Runs one open-loop phase on the world's server and accounts for it.
struct PhaseOutcome {
  std::vector<ScheduledRequest> sched;
  PhaseResult res;
  uint64_t shed = 0;  // server-side shed delta
};

template <typename Pick>
PhaseOutcome RunPhase(World* w, roadnet::Rng* rng, double rate,
                      double seconds, Pick&& pick,
                      const std::vector<Pair>& pairs,
                      std::vector<std::vector<VertexId>>* first_paths,
                      std::vector<Answer>* answers, Tally* tally) {
  PhaseOutcome out;
  out.sched = PoissonSchedule(rng, rate, seconds, pick);
  const wire::StatsResponse before = w->server->Stats();
  {
    ScopedSpan span("phase.open_loop");
    out.res = w->client->Run(out.sched, pairs, kDrainSeconds, first_paths);
    RecordRequestSpans(out.sched, out.res);
  }
  const wire::StatsResponse after = w->server->Stats();
  out.shed = (after.shed_overloaded - before.shed_overloaded) +
             (after.shed_deadline - before.shed_deadline) +
             (after.shed_draining - before.shed_draining);
  Account(out.sched, out.res, after.served - before.served, 0, answers, tally);
  return out;
}

// Adds the six end-to-end metrics in contract order.
void AddEndToEnd(double setup_s, uint64_t setup_n, double rss, double a,
                 uint64_t na, double b, uint64_t nb, double c, uint64_t nc,
                 double d, uint64_t nd, MetricSink* sink) {
  sink->Add("setup_s", "s", setup_s, setup_n);
  sink->Add("peak_rss_mb", "MB", rss, 1);
  sink->Add("lat_a_us", "us", a, na);
  sink->Add("lat_b_us", "us", b, nb);
  sink->Add("lat_c_us", "us", c, nc);
  sink->Add("lat_d_us", "us", d, nd);
}

// The traced run reports traced - untraced for every end-to-end metric.
void AddOverhead(const MetricSink& untraced, const MetricSink& traced,
                 MetricSink* sink) {
  for (const Metric& m : untraced.metrics()) {
    sink->Add("trace_overhead." + m.name, m.unit,
              traced.Get(m.name) - m.value, 1);
  }
}

void AddSetupLayers(const SetupTimes& t, MetricSink* sink) {
  sink->Add("graph.build_s", "s", t.graph_s);
  sink->Add("ch.contract_s", "s", t.contract_s);
  sink->Add("hl.build_s", "s", t.hl_s);
  sink->Add("knn.build_s", "s", t.knn_s);
  sink->Add("io.ch_load_s", "s", t.ch_load_s);
  sink->Add("io.hl_load_s", "s", t.hl_load_s);
}

void FinishTrace(const Options& opt, RunResult* out) {
  SpanRecorder& rec = SpanRecorder::Get();
  const std::string path = TraceFile(opt, "spans");
  if (!path.empty() && !rec.WriteJsonl(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  std::fprintf(stderr, "spans: %zu recorded, %llu dropped\n", rec.size(),
               static_cast<unsigned long long>(rec.dropped()));
}

}  // namespace

size_t Workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hc == 0 ? 1 : hc, 1, 4);
}

roadnet::PoiConfig PoiConfigFor(uint64_t seed) {
  roadnet::PoiConfig config;
  config.categories = {{"poi", 0.01}};
  config.seed = seed;
  return config;
}

void Tally::Fail(uint64_t n, const std::string& what) {
  failed += n;
  if (notes.size() < 8) notes.push_back(std::to_string(n) + " " + what);
}

Inputs MakeInputs(const Graph& g, uint64_t seed) {
  Inputs in;
  in.seed = seed;
  const auto sets = roadnet::GenerateLInfQuerySets(g, kPairsPerSet, seed);
  for (size_t s = 0; s < sets.size(); ++s) {
    const auto& pairs = sets[s].pairs;
    for (size_t j = 0; j < pairs.size(); ++j) {
      const uint32_t index = static_cast<uint32_t>(in.dist.size());
      in.dist.push_back(pairs[j]);
      if (j < kPathPerSet) in.path_idx.push_back(index);
      if (j < kBidiPerSet) in.bidi_idx.push_back(index);
      if (j < kPathPerSet && s >= 7) in.long_path_idx.push_back(index);
    }
  }
  for (uint32_t i : in.path_idx) in.path.push_back(in.dist[i]);
  for (uint32_t i : in.bidi_idx) in.bidi.push_back(in.dist[i]);
  roadnet::Rng rng(seed ^ 0x6b6e6eULL);
  for (size_t i = 0; i < kKnnSources; ++i) {
    in.knn_sources.push_back(
        static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
  }
  return in;
}

void BuildKnn(World* w, uint64_t seed) {
  w->times.knn_s = TimedSeconds("knn.build", [&] {
    {
      ScopedSpan span("poi.PoiSet::Generate");
      w->pois = std::make_unique<roadnet::PoiSet>(
          roadnet::PoiSet::Generate(*w->graph, PoiConfigFor(seed)));
    }
    ScopedSpan span("knn.KnnBucketIndex");
    w->knn = std::make_unique<roadnet::KnnBucketIndex>(*w->ch, *w->pois);
  });
}

std::string SerializeCh(const ChIndex& ch) {
  ScopedSpan span("io.ChIndex::Serialize");
  std::ostringstream out;
  ch.Serialize(out);
  return std::move(out).str();
}

std::string SerializeHl(const HlIndex& hl) {
  ScopedSpan span("io.HlIndex::Serialize");
  std::ostringstream out;
  hl.Serialize(out);
  return std::move(out).str();
}

std::unique_ptr<ChIndex> ReloadCh(const Graph& g, const std::string& bytes,
                                  SetupTimes* times) {
  std::unique_ptr<ChIndex> ch;
  std::string error;
  times->ch_load_s = TimedSeconds("io.ChIndex::Deserialize", [&] {
    std::istringstream in(bytes);
    ch = ChIndex::Deserialize(g, in, &error);
  });
  if (ch == nullptr) {
    std::fprintf(stderr, "CH reload failed: %s\n", error.c_str());
    std::exit(2);
  }
  return ch;
}

std::unique_ptr<HlIndex> ReloadHl(const Graph& g, const ChIndex& ch,
                                  const std::string& bytes,
                                  SetupTimes* times) {
  std::unique_ptr<HlIndex> hl;
  std::string error;
  times->hl_load_s = TimedSeconds("io.HlIndex::Deserialize", [&] {
    std::istringstream in(bytes);
    hl = HlIndex::Deserialize(g, ch, in, &error);
  });
  if (hl == nullptr) {
    std::fprintf(stderr, "HL reload failed: %s\n", error.c_str());
    std::exit(2);
  }
  return hl;
}

// ---- offline_batch -------------------------------------------------------

namespace {

struct TechniqueBatch {
  const char* name;
  QueryEngine* engine;
  std::vector<Pair> list;
  std::vector<uint32_t> oracle_index;  // per list entry
  bool paths = false;
  std::vector<double> qps;  // one per round
  std::vector<Distance> ref;
  std::vector<roadnet::Path> ref_paths;
  uint64_t queries = 0;
  double wall_s = 0;
  uint64_t diffs = 0;  // answers that differ from round 0
};

struct OfflineWindow {
  std::vector<TechniqueBatch> batches;
  size_t rounds = 0;
};

OfflineWindow MeasureOffline(World* w, const Inputs& in, double seconds,
                             bool traced) {
  OfflineWindow win;
  auto add = [&](const char* name, QueryEngine* engine,
                 const std::vector<uint32_t>& idx, size_t repeats,
                 bool paths) {
    TechniqueBatch b;
    b.name = name;
    b.engine = engine;
    b.paths = paths;
    for (size_t r = 0; r < repeats; ++r) {
      for (uint32_t i : idx) {
        b.list.push_back(in.dist[i]);
        b.oracle_index.push_back(i);
      }
    }
    win.batches.push_back(std::move(b));
  };
  std::vector<uint32_t> all(in.dist.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  add("ch_dist", w->ch_engine.get(), all, kChRepeats, false);
  add("ch_path", w->ch_engine.get(), all, 1, true);
  add("hl_dist", w->hl_engine.get(), all, kHlRepeats, false);
  add("bidi_dist", w->bidi_engine.get(), in.bidi_idx, 1, false);

  ScopedSpan window_span(traced ? "window.traced" : "window.untraced");
  const uint64_t start = NowNs();
  while (win.rounds < 2 || SecondsSince(start) < seconds) {
    for (TechniqueBatch& b : win.batches) {
      BatchOptions options;
      options.collect_paths = b.paths;
      options.record_per_query = traced;
      BatchResult result;
      const double wall = TimedSeconds(b.name, [&] {
        result = b.engine->Run(b.list, options);
      });
      b.qps.push_back(static_cast<double>(b.list.size()) / wall);
      b.queries += b.list.size();
      b.wall_s += wall;
      // Answers are compared between timed calls: round 0 becomes the
      // reference the oracle checks after the window, and every later
      // round must repeat it exactly.
      if (win.rounds == 0) {
        b.ref = std::move(result.distances);
        b.ref_paths = std::move(result.paths);
        continue;
      }
      for (size_t i = 0; i < b.list.size(); ++i) {
        if (result.distances[i] != b.ref[i] ||
            (b.paths && result.paths[i] != b.ref_paths[i])) {
          ++b.diffs;
        }
      }
    }
    ++win.rounds;
  }
  return win;
}

void CheckOffline(const OfflineWindow& win, Oracle* oracle, Tally* tally) {
  for (const TechniqueBatch& b : win.batches) {
    tally->attempted += b.queries;
    uint64_t ref_wrong = 0;
    for (size_t i = 0; i < b.list.size(); ++i) {
      const uint32_t idx = b.oracle_index[i];
      if (!oracle->Correct(idx, b.ref[i]) ||
          (b.paths && b.ref[i] != roadnet::kInfDistance &&
           !oracle->PathCorrect(idx, b.ref_paths[i]))) {
        ++ref_wrong;
      }
    }
    const uint64_t wrong = b.diffs + ref_wrong * win.rounds;
    if (wrong > 0) tally->Fail(wrong, std::string("wrong ") + b.name);
  }
}

// End-to-end numbers of one offline window: each technique's wall time
// per query (the median round), and the whole window's throughput.
MetricSink OfflineEndToEnd(const OfflineWindow& win, double setup_s,
                           uint64_t setup_n, double rss, MetricSink* detail) {
  double us[4];
  uint64_t n[4];
  uint64_t queries = 0;
  double wall = 0;
  for (size_t t = 0; t < 4; ++t) {
    const TechniqueBatch& b = win.batches[t];
    const double qps = Median(b.qps);
    us[t] = 1e6 / qps;
    n[t] = b.qps.size();
    queries += b.queries;
    wall += b.wall_s;
    if (detail != nullptr) {
      detail->Add(std::string(b.name) + "_qps", "1/s", qps, b.qps.size());
    }
  }
  MetricSink sink;
  AddEndToEnd(setup_s, setup_n, rss, us[0], n[0], us[1], n[1], us[2], n[2],
              us[3], n[3], &sink);
  if (detail != nullptr) {
    detail->Add("all_batches_qps", "1/s", static_cast<double>(queries) / wall,
                queries);
  }
  return sink;
}

}  // namespace

void RunOfflineBatch(const Options& opt, RunResult* out) {
  std::vector<double> setup_totals;
  std::unique_ptr<World> w = SetUpRepeatedly(
      opt,
      [](World* w) {
        BuildGraph(w);
        Contract(w);
        BuildHl(w);
        ScopedSpan span("engine.QueryEngine");
        w->bidi = std::make_unique<roadnet::BidirectionalDijkstra>(*w->graph);
        w->ch_engine = std::make_unique<QueryEngine>(*w->ch, Workers());
        w->hl_engine = std::make_unique<QueryEngine>(*w->hl, Workers());
        w->bidi_engine = std::make_unique<QueryEngine>(*w->bidi, Workers());
      },
      &setup_totals);
  const Inputs in = MakeInputs(*w->graph, opt.seed);
  const double setup_s = Median(setup_totals);

  const StealMeter steal;
  if (!opt.trace) {
    const OfflineWindow win = MeasureOffline(w.get(), in, opt.seconds, false);
    const double rss = PeakRssMb();
    out->detail.Add("host.steal_pct", "%", steal.Percent());
    out->metrics =
        OfflineEndToEnd(win, setup_s, setup_totals.size(), rss, &out->detail);
    Oracle oracle(*w->graph, *w->ch, *w->hl, in.dist);
    CheckOffline(win, &oracle, &out->tally);
    const uint64_t bad = oracle.CheckSample(opt.seed, kDijkstraSample);
    if (bad > 0) out->tally.Fail(bad, "reference answers differ from Dijkstra");
    return;
  }

  // Traced run: half the window untraced, half traced, then the probes.
  const double half = opt.seconds / 2;
  const OfflineWindow plain = MeasureOffline(w.get(), in, half, false);
  const double rss_plain = PeakRssMb();
  const OfflineWindow traced = MeasureOffline(w.get(), in, half, true);
  const double rss_traced = PeakRssMb();
  out->metrics.Add("host.steal_pct", "%", steal.Percent());
  AddOverhead(
      OfflineEndToEnd(plain, setup_totals.front(), 1, rss_plain, nullptr),
      OfflineEndToEnd(traced, setup_totals.back(), 1, rss_traced, nullptr),
      &out->metrics);

  // The workload serves nothing, so the server layers are probed on an HL
  // server started for the purpose: a traced 2k req/s open-loop phase for
  // the stage breakdown, then depth-1 round trips.
  w->server = StartServer(*w->hl, "hl", w->graph->NumVertices(), {},
                          TraceFile(opt, "server"));
  ConnectClient(w.get(), kHlConnections);
  w->server->tracer().Configure(1, std::nullopt);
  roadnet::Rng rng(opt.seed ^ 0x70726f6265ULL);
  std::vector<std::vector<VertexId>> first_paths(in.dist.size());
  std::vector<Answer> answers;
  const size_t npairs = in.dist.size();
  PhaseOutcome probe = RunPhase(
      w.get(), &rng, kLowRate, 1.0,
      [npairs](roadnet::Rng* r, ScheduledRequest* s) {
        s->pair = static_cast<uint32_t>(r->NextBelow(npairs));
      },
      in.dist, &first_paths, &answers, &out->tally);
  AddServerStages(w->server->StatsV2(), &out->metrics);
  w->server->tracer().Configure(0, std::nullopt);
  out->metrics.Add("server.shed", "count", static_cast<double>(probe.shed),
                   probe.sched.size());
  std::vector<double> late = probe.res.LatenessUs(probe.sched);
  out->metrics.Add("loadgen.late_us.p99", "us", Quantile(&late, 0.99),
                   late.size());
  RunLayerProbes(w.get(), in, w->server->Port(), &out->metrics, &out->tally);
  AddSetupLayers(w->times, &out->metrics);

  Oracle oracle(*w->graph, *w->ch, *w->hl, in.dist);
  CheckOffline(plain, &oracle, &out->tally);
  CheckOffline(traced, &oracle, &out->tally);
  CheckAnswers(answers, &oracle, first_paths, &out->tally);
  const uint64_t bad = oracle.CheckSample(opt.seed, kDijkstraSample);
  if (bad > 0) out->tally.Fail(bad, "reference answers differ from Dijkstra");
  FinishTrace(opt, out);
}

// ---- serve_hl_point -----------------------------------------------------

namespace {

struct HlWindow {
  // Per-round percentiles; each metric is OverRounds of them.
  std::vector<double> low_p50, low_p99, high_p50, high_p90, high_p99;
  std::vector<double> rtt_p50, sat_qps;
  uint64_t low_n = 0, high_n = 0, rtt_n = 0, sat_n = 0;
  std::vector<double> late_us;
  uint64_t shed = 0;
  uint64_t requests = 0;
  wire::StatsResponse stages_snapshot;  // taken after the open-loop phases
};

HlWindow MeasureHl(World* w, const Inputs& in, double seconds,
                   roadnet::Rng* rng,
                   std::vector<std::vector<VertexId>>* first_paths,
                   std::vector<Answer>* answers, Tally* tally) {
  HlWindow win;
  const size_t npairs = in.dist.size();
  auto pick = [npairs](roadnet::Rng* r, ScheduledRequest* s) {
    s->pair = static_cast<uint32_t>(r->NextBelow(npairs));
  };
  // Each round runs the low and the high rate, depth-1 round trips and a
  // saturating closed loop, so a passing disturbance of the host hits one
  // round of every statistic rather than all of one.
  const double phase_s = seconds / kFixedRounds;
  std::vector<ScheduledRequest> sent;
  for (size_t round = 0; round < kFixedRounds; ++round) {
    for (const bool high : {false, true}) {
      PhaseOutcome p =
          RunPhase(w, rng, high ? kHighRate : kLowRate,
                   phase_s * (high ? kHighShare : kLowShare), pick, in.dist,
                   first_paths, answers, tally);
      std::vector<double> lat = p.res.LatenciesUs(p.sched, false);
      (high ? win.high_n : win.low_n) += lat.size();
      if (high) {
        win.high_p99.push_back(Quantile(&lat, 0.99));
        win.high_p90.push_back(Quantile(&lat, 0.90));
        win.high_p50.push_back(Quantile(&lat, 0.50));
      } else {
        win.low_p99.push_back(Quantile(&lat, 0.99));
        win.low_p50.push_back(Quantile(&lat, 0.50));
      }
      Append(&win.late_us, p.res.LatenessUs(p.sched));
      win.shed += p.shed;
      win.requests += p.sched.size();
    }
    {
      const uint64_t served = w->server->Stats().served;
      RttResult rtt;
      {
        ScopedSpan span("phase.depth1");
        rtt = ClosedLoopRtt(w->server->Port(), in.dist, kRttPerRound);
      }
      tally->attempted += kRttPerRound;
      if (rtt.failed > 0) tally->Fail(rtt.failed, "depth-1 failures");
      const uint64_t delta = w->server->Stats().served - served;
      if (delta != rtt.answers.size()) {
        tally->Fail(1, "depth-1 served count differs from the server's");
      }
      for (const auto& [pair, dist] : rtt.answers) {
        answers->push_back(Answer{pair, false, 0, dist, 0});
      }
      win.rtt_n += rtt.rtt_us.size();
      win.rtt_p50.push_back(Median(rtt.rtt_us));
    }
    {
      const wire::StatsResponse before = w->server->Stats();
      PhaseResult res;
      {
        ScopedSpan span("phase.saturation");
        res = w->client->RunClosed(in.dist, rng, kSaturationDepth,
                                   phase_s * kSaturationShare, &sent);
      }
      const wire::StatsResponse after = w->server->Stats();
      Account(sent, res, after.served - before.served, 0, answers, tally);
      win.sat_n += res.ok + res.unreachable;
      win.sat_qps.push_back(res.achieved_qps);
      win.requests += sent.size();
    }
  }
  win.stages_snapshot = w->server->StatsV2();
  return win;
}

MetricSink HlEndToEnd(const HlWindow& win, double setup_s, uint64_t setup_n,
                      double rss, MetricSink* detail) {
  const double low_p50 = OverRounds(win.low_p50);
  const double high_p50 = OverRounds(win.high_p50);
  const double high_p90 = OverRounds(win.high_p90);
  const double rtt_p50 = OverRounds(win.rtt_p50);
  const double sat_qps = Median(win.sat_qps);
  if (detail != nullptr) {
    detail->Add("dist_p50_us.low", "us", low_p50, win.low_n);
    detail->Add("dist_p99_us.low", "us", OverRounds(win.low_p99), win.low_n);
    detail->Add("dist_p50_us.high", "us", high_p50, win.high_n);
    detail->Add("dist_p90_us.high", "us", high_p90, win.high_n);
    detail->Add("dist_p99_us.high", "us", OverRounds(win.high_p99), win.high_n);
    detail->Add("depth1_rtt_p50_us", "us", rtt_p50, win.rtt_n);
    detail->Add("saturation_qps", "1/s", sat_qps, win.sat_n);
  }
  MetricSink sink;
  AddEndToEnd(setup_s, setup_n, rss, high_p50, win.high_n, low_p50, win.low_n,
              rtt_p50, win.rtt_n, high_p90, win.high_n, &sink);
  return sink;
}

}  // namespace

void RunServeHlPoint(const Options& opt, RunResult* out) {
  std::vector<double> setup_totals;
  std::unique_ptr<World> w = SetUpRepeatedly(
      opt,
      [&opt](World* w) {
        BuildGraph(w);
        Contract(w);
        BuildHl(w);
        ReloadIndexes(w, /*with_hl=*/true);
        w->server = StartServer(*w->hl, "hl", w->graph->NumVertices(), {},
                                TraceFile(opt, "server"));
        ConnectClient(w, kHlConnections);
      },
      &setup_totals);
  const Inputs in = MakeInputs(*w->graph, opt.seed);
  const double setup_s = Median(setup_totals);
  roadnet::Rng rng(opt.seed ^ 0x686c7074ULL);
  std::vector<std::vector<VertexId>> first_paths(in.dist.size());
  std::vector<Answer> answers;

  auto finish_checks = [&] {
    Oracle oracle(*w->graph, *w->ch, *w->hl, in.dist);
    CheckAnswers(answers, &oracle, first_paths, &out->tally);
    const uint64_t bad = oracle.CheckSample(opt.seed, kDijkstraSample);
    if (bad > 0) out->tally.Fail(bad, "reference answers differ from Dijkstra");
  };

  const StealMeter steal;
  if (!opt.trace) {
    const HlWindow win = MeasureHl(w.get(), in, opt.seconds, &rng, &first_paths,
                                   &answers, &out->tally);
    const double rss = PeakRssMb();
    out->detail.Add("host.steal_pct", "%", steal.Percent());
    out->metrics = HlEndToEnd(win, setup_s, setup_totals.size(), rss,
                              &out->detail);
    finish_checks();
    return;
  }

  const HlWindow plain = MeasureHl(w.get(), in, opt.seconds / 2, &rng,
                                   &first_paths, &answers, &out->tally);
  const double rss_plain = PeakRssMb();
  w->server->tracer().Configure(1, std::nullopt);
  HlWindow traced;
  {
    ScopedSpan span("window.traced");
    traced = MeasureHl(w.get(), in, opt.seconds / 2, &rng, &first_paths,
                       &answers, &out->tally);
  }
  w->server->tracer().Configure(0, std::nullopt);
  const double rss_traced = PeakRssMb();
  out->metrics.Add("host.steal_pct", "%", steal.Percent());
  const MetricSink e2e_plain =
      HlEndToEnd(plain, setup_totals.front(), 1, rss_plain, &out->detail);
  AddOverhead(e2e_plain,
              HlEndToEnd(traced, setup_totals.back(), 1, rss_traced, nullptr),
              &out->metrics);
  AddServerStages(traced.stages_snapshot, &out->metrics);
  out->metrics.Add("server.shed", "count", static_cast<double>(traced.shed),
                   traced.requests);
  std::vector<double> late = traced.late_us;
  out->metrics.Add("loadgen.late_us.p99", "us", Quantile(&late, 0.99),
                   late.size());
  RunLayerProbes(w.get(), in, w->server->Port(), &out->metrics, &out->tally);
  AddSetupLayers(w->times, &out->metrics);
  // Validity check of the generator: open-loop p50 at the low rate
  // against the idle depth-1 round trip of the same run.
  out->detail.Add("low_p50_over_rtt_p50", "x",
                  e2e_plain.Get("lat_b_us") /
                      out->metrics.Get("server.rtt_us.p50"));
  finish_checks();
  FinishTrace(opt, out);
}

// ---- serve_ch_mixed -----------------------------------------------------

namespace {

struct MixedWindow {
  // Per-round percentiles; each metric is OverRounds of them.
  std::vector<double> dist_p50, dist_p90, dist_p99, path_p50, path_p99;
  std::vector<double> knn_p50, knn_p99, knn_qps;
  uint64_t dist_n = 0, path_n = 0, knn_n = 0;
  std::vector<double> late_us;
  std::vector<KnnSample> knn;
  uint64_t shed = 0;
  uint64_t requests = 0;
};

// One sub-phase: open-loop distance/path traffic on three connections
// while one closed-loop kNN caller runs on a fourth.
void MixedSubPhase(World* w, const Inputs& in, double seconds,
                   roadnet::Rng* rng, uint64_t knn_seed,
                   std::vector<std::vector<VertexId>>* first_paths,
                   std::vector<Answer>* answers, Tally* tally,
                   MixedWindow* win) {
  const size_t npairs = in.dist.size();
  const std::vector<uint32_t>& long_idx = in.long_path_idx;
  auto pick = [npairs, &long_idx](roadnet::Rng* r, ScheduledRequest* s) {
    s->path = r->NextBool(kPathShare);
    s->pair = s->path ? long_idx[r->NextBelow(long_idx.size())]
                      : static_cast<uint32_t>(r->NextBelow(npairs));
  };
  const std::vector<ScheduledRequest> sched =
      PoissonSchedule(rng, kMixedRate, seconds, pick);
  std::atomic<bool> stop{false};
  std::string knn_error;
  std::vector<KnnSample> knn;
  knn.reserve(1 << 18);
  const wire::StatsResponse before = w->server->Stats();
  PhaseResult res;
  double elapsed = 0;
  {
    ScopedSpan span("phase.mixed");
    const uint64_t start = NowNs();
    std::thread caller([&] {
      RunKnnCaller(w->server->Port(), in.knn_sources, kKnnK, knn_seed, &stop,
                   &knn, &knn_error);
    });
    res = w->client->Run(sched, in.dist, kDrainSeconds, first_paths);
    stop.store(true);
    caller.join();
    elapsed = SecondsSince(start);
    RecordRequestSpans(sched, res);
    SpanRecorder& rec = SpanRecorder::Get();
    for (const KnnSample& k : knn) {
      rec.Record("server.KNN_QUERY", rec.Current(), k.send_ns, k.recv_ns);
    }
  }
  const wire::StatsResponse after = w->server->Stats();
  std::vector<double> knn_us;
  for (const KnnSample& k : knn) {
    if (k.ok) {
      knn_us.push_back(static_cast<double>(k.recv_ns - k.send_ns) * 1e-3);
    }
  }
  tally->attempted += knn.size();
  if (knn_us.size() != knn.size()) {
    tally->Fail(knn.size() - knn_us.size(), "failed kNN requests " + knn_error);
  }
  win->shed += (after.shed_overloaded - before.shed_overloaded) +
               (after.shed_deadline - before.shed_deadline) +
               (after.shed_draining - before.shed_draining);
  win->requests += sched.size() + knn.size();
  Account(sched, res, after.served - before.served, knn_us.size(), answers,
          tally);
  std::vector<double> dist = res.LatenciesUs(sched, false);
  std::vector<double> path = res.LatenciesUs(sched, true);
  win->dist_n += dist.size();
  win->path_n += path.size();
  win->knn_n += knn_us.size();
  win->dist_p99.push_back(Quantile(&dist, 0.99));
  win->dist_p90.push_back(Quantile(&dist, 0.90));
  win->dist_p50.push_back(Quantile(&dist, 0.50));
  win->path_p99.push_back(Quantile(&path, 0.99));
  win->path_p50.push_back(Quantile(&path, 0.50));
  win->knn_qps.push_back(static_cast<double>(knn_us.size()) / elapsed);
  win->knn_p99.push_back(Quantile(&knn_us, 0.99));
  win->knn_p50.push_back(Quantile(&knn_us, 0.50));
  Append(&win->late_us, res.LatenessUs(sched));
  win->knn.insert(win->knn.end(), knn.begin(), knn.end());
}

MixedWindow MeasureMixed(World* w, const Inputs& in, double seconds,
                         roadnet::Rng* rng, uint64_t knn_seed,
                         std::vector<std::vector<VertexId>>* first_paths,
                         std::vector<Answer>* answers, Tally* tally) {
  MixedWindow win;
  for (size_t round = 0; round < kFixedRounds; ++round) {
    MixedSubPhase(w, in, seconds / kFixedRounds, rng, knn_seed + round,
                  first_paths, answers, tally, &win);
  }
  return win;
}

MetricSink MixedEndToEnd(const MixedWindow& win, double setup_s,
                         uint64_t setup_n, double rss, MetricSink* detail) {
  const double dist_p50 = OverRounds(win.dist_p50);
  const double dist_p90 = OverRounds(win.dist_p90);
  const double path_p50 = OverRounds(win.path_p50);
  const double knn_p50 = OverRounds(win.knn_p50);
  const double knn_qps = Median(win.knn_qps);
  if (detail != nullptr) {
    detail->Add("dist_p50_us", "us", dist_p50, win.dist_n);
    detail->Add("dist_p90_us", "us", dist_p90, win.dist_n);
    detail->Add("dist_p99_us", "us", OverRounds(win.dist_p99), win.dist_n);
    detail->Add("path_p50_us", "us", path_p50, win.path_n);
    detail->Add("path_p99_us", "us", OverRounds(win.path_p99), win.path_n);
    detail->Add("knn_p50_us", "us", knn_p50, win.knn_n);
    detail->Add("knn_p99_us", "us", OverRounds(win.knn_p99), win.knn_n);
    detail->Add("knn_closed_loop_qps", "1/s", knn_qps, win.knn_n);
  }
  MetricSink sink;
  AddEndToEnd(setup_s, setup_n, rss, dist_p50, win.dist_n, dist_p90,
              win.dist_n, path_p50, win.path_n, knn_p50, win.knn_n, &sink);
  return sink;
}

// The k nearest POIs, ties broken by vertex id, from KnnByDijkstra.
// KnnByDijkstra stops once k POIs have settled, so a tie at the k-th
// distance goes to whichever POI the heap settled first, not to the
// lower id its header promises. Asking for more until a POI strictly
// farther than the k-th (or the whole component) has settled makes every
// tied POI part of the answer before it is cut to k.
std::vector<roadnet::KnnResult> KnnOracle(const roadnet::Graph& g,
                                          const std::vector<VertexId>& pois,
                                          VertexId s, size_t k) {
  for (size_t want = k + 1;; want *= 2) {
    std::vector<roadnet::KnnResult> r =
        roadnet::KnnByDijkstra(g, pois, s, want);
    if (r.size() < want || r.back().dist > r[k - 1].dist) {
      if (r.size() > k) r.resize(k);
      return r;
    }
  }
}

void CheckKnn(const World& w, const Inputs& in,
              const std::vector<KnnSample>& samples, uint64_t seed,
              Tally* tally) {
  // Expected answer per source from a direct bucket-CH call.
  roadnet::KnnBucketIndex::Context ctx = w.knn->NewContext();
  std::vector<roadnet::KnnResult> result;
  std::vector<uint64_t> expected(in.knn_sources.size());
  for (size_t i = 0; i < in.knn_sources.size(); ++i) {
    w.knn->KnnQuery(&ctx, 0, in.knn_sources[i], kKnnK, &result);
    std::vector<std::pair<VertexId, Distance>> entries;
    for (const auto& r : result) entries.emplace_back(r.poi, r.dist);
    expected[i] = HashKnn(entries);
  }
  uint64_t wrong = 0;
  for (const KnnSample& s : samples) {
    if (s.ok && s.hash != expected[s.source_index]) ++wrong;
  }
  if (wrong > 0) tally->Fail(wrong, "kNN replies differ from bucket-CH");
  // A seeded sample of the reference against the multi-target Dijkstra.
  const auto span = w.pois->Vertices(0);
  const std::vector<VertexId> pois(span.begin(), span.end());
  roadnet::Rng rng(seed ^ 0x6f7261636c65ULL);
  uint64_t bad = 0;
  for (size_t i = 0; i < kKnnOracleSample; ++i) {
    const VertexId s = in.knn_sources[rng.NextBelow(in.knn_sources.size())];
    w.knn->KnnQuery(&ctx, 0, s, kKnnK, &result);
    if (result != KnnOracle(*w.graph, pois, s, kKnnK)) ++bad;
  }
  if (bad > 0) tally->Fail(bad, "bucket-CH kNN differs from Dijkstra");
}

}  // namespace

void RunServeChMixed(const Options& opt, RunResult* out) {
  std::vector<double> setup_totals;
  std::unique_ptr<World> w = SetUpRepeatedly(
      opt,
      [&opt](World* w) {
        BuildGraph(w);
        Contract(w);
        ReloadIndexes(w, /*with_hl=*/false);
        BuildKnn(w, opt.seed);
        roadnet::KnnServing knn;
        knn.pois = w->pois.get();
        knn.bucket = w->knn.get();
        w->server = StartServer(*w->ch, "ch", w->graph->NumVertices(), knn,
                                TraceFile(opt, "server"));
        ConnectClient(w, kMixedConnections);
      },
      &setup_totals);
  const Inputs in = MakeInputs(*w->graph, opt.seed);
  const double setup_s = Median(setup_totals);
  roadnet::Rng rng(opt.seed ^ 0x6d697864ULL);
  std::vector<std::vector<VertexId>> first_paths(in.dist.size());
  std::vector<Answer> answers;
  std::vector<KnnSample> knn_samples;

  // HL exists here only to check the CH server's answers (and, in the
  // traced run, for the HL probes); it is built after the timed window.
  auto finish_checks = [&] {
    if (w->hl == nullptr) BuildHl(w.get());
    Oracle oracle(*w->graph, *w->ch, *w->hl, in.dist);
    CheckAnswers(answers, &oracle, first_paths, &out->tally);
    const uint64_t bad = oracle.CheckSample(opt.seed, kDijkstraSample);
    if (bad > 0) out->tally.Fail(bad, "reference answers differ from Dijkstra");
    CheckKnn(*w, in, knn_samples, opt.seed, &out->tally);
  };
  auto keep_knn = [&](const MixedWindow& win) {
    knn_samples.insert(knn_samples.end(), win.knn.begin(), win.knn.end());
  };

  const StealMeter steal;
  if (!opt.trace) {
    const MixedWindow win =
        MeasureMixed(w.get(), in, opt.seconds, &rng, opt.seed, &first_paths,
                     &answers, &out->tally);
    const double rss = PeakRssMb();
    out->detail.Add("host.steal_pct", "%", steal.Percent());
    out->metrics = MixedEndToEnd(win, setup_s, setup_totals.size(), rss,
                                 &out->detail);
    keep_knn(win);
    finish_checks();
    return;
  }

  const MixedWindow plain =
      MeasureMixed(w.get(), in, opt.seconds / 2, &rng, opt.seed, &first_paths,
                   &answers, &out->tally);
  const double rss_plain = PeakRssMb();
  w->server->tracer().Configure(1, std::nullopt);
  MixedWindow traced;
  {
    ScopedSpan span("window.traced");
    traced = MeasureMixed(w.get(), in, opt.seconds / 2, &rng, opt.seed + 1,
                          &first_paths, &answers, &out->tally);
  }
  const wire::StatsResponse stages = w->server->StatsV2();
  w->server->tracer().Configure(0, std::nullopt);
  const double rss_traced = PeakRssMb();
  out->metrics.Add("host.steal_pct", "%", steal.Percent());
  AddOverhead(
      MixedEndToEnd(plain, setup_totals.front(), 1, rss_plain, &out->detail),
      MixedEndToEnd(traced, setup_totals.back(), 1, rss_traced, nullptr),
      &out->metrics);
  AddServerStages(stages, &out->metrics);
  out->metrics.Add("server.shed", "count", static_cast<double>(traced.shed),
                   traced.requests);
  std::vector<double> late = traced.late_us;
  out->metrics.Add("loadgen.late_us.p99", "us", Quantile(&late, 0.99),
                   late.size());
  keep_knn(plain);
  keep_knn(traced);
  BuildHl(w.get());
  RunLayerProbes(w.get(), in, w->server->Port(), &out->metrics, &out->tally);
  AddSetupLayers(w->times, &out->metrics);
  finish_checks();
  FinishTrace(opt, out);
}

}  // namespace perfbench
