#include "server/server.h"

#include <optional>
#include <utility>

namespace roadnet {

namespace {

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

// Status names for the trace JSONL export, as a plain function pointer so
// the obs layer stays independent of server/wire.
const char* TraceStatusName(uint8_t status) {
  return wire::StatusName(static_cast<wire::Status>(status));
}

// Requests are tiny fixed-size frames; cap far below response sizes.
constexpr uint32_t kMaxRequestBytes = 1024;

// Techniques whose point queries may run to completion on the event
// loop. The ledger's slowest query among them is a CH path query,
// 10.5 us (perfbench ch.path_ns on W-US'; an HL distance takes 0.46 us),
// while one trip through the dispatcher and engine costs ~26 us of
// wake-ups (engine.batch1_us) before any work. bidi and ALT search
// ~0.8 ms per query (dijkstra.bidi_ns) and would stall every connection
// of a loop, so they stay offloaded, as do custom indexes hosted as
// kAnyTechnique. How much of a loop's traffic runs inline is bounded by
// kInlineBudgetNs (see RunsInline).
bool AnswersPointsInline(uint8_t technique_id) {
  return technique_id == wire::TechniqueId("ch") ||
         technique_id == wire::TechniqueId("hl");
}

// Inline time a loop spends per pass over its ready events before it
// offloads further QUERY2 requests: about one hand-off to the engine
// (engine.batch1_us, 26.5 us). Saturating throughput measured the same
// for budgets of 25 to 500 us; the smallest keeps the wait it imposes on
// the rest of the pass shortest.
constexpr uint64_t kInlineBudgetNs = 25'000;

TracerOptions MakeTracerOptions(const ServerOptions& options) {
  TracerOptions t;
  t.sample_every = options.trace_sample_every;
  t.slow_micros = options.trace_slow_us;
  // One shard per event loop: the loop thread is the only producer into
  // its shard's ring (requests start and finish on their owning loop).
  t.shards = options.num_loops == 0 ? 1 : options.num_loops;
  t.ring_capacity = options.trace_ring_capacity;
  t.id_seed = options.trace_seed;
  t.status_name = &TraceStatusName;
  return t;
}

}  // namespace

QueryServer::QueryServer(const PathIndex& index, uint8_t technique_id,
                         uint32_t num_vertices, const ServerOptions& options,
                         const KnnServing& knn)
    : index_(index),
      technique_id_(technique_id),
      num_vertices_(num_vertices),
      options_(options),
      knn_(knn),
      inline_points_(AnswersPointsInline(technique_id)),
      engine_(index, options.engine_threads),
      queue_(options.queue_capacity),
      tracer_(MakeTracerOptions(options)) {
  // One kNN context and scratch vector per engine worker: the task path
  // hands each worker its own slot.
  if (knn_.Enabled()) {
    knn_scratch_.resize(engine_.NumThreads());
    bucket_ctxs_.reserve(engine_.NumThreads());
    for (size_t i = 0; i < engine_.NumThreads(); ++i) {
      bucket_ctxs_.push_back(knn_.bucket->NewContext());
    }
    if (knn_.ier != nullptr) {
      ier_ctxs_.reserve(engine_.NumThreads());
      for (size_t i = 0; i < engine_.NumThreads(); ++i) {
        ier_ctxs_.push_back(knn_.ier->NewContext());
      }
    }
  }
}

QueryServer::~QueryServer() { Shutdown(); }

bool QueryServer::Start(std::string* error) {
  if (!options_.trace_out.empty() &&
      !tracer_.StartExporter(options_.trace_out, error)) {
    return false;
  }
  ScopedFd listen = ListenTcp(options_.port, &port_, error);
  if (!listen.valid()) {
    tracer_.StopExporter();  // same leak as the pool-start failure below
    return false;
  }

  EventLoopOptions lo;
  lo.num_loops = options_.num_loops == 0 ? 1 : options_.num_loops;
  lo.max_connections = options_.max_connections;
  lo.max_frame_bytes = kMaxRequestBytes;
  lo.write_soft_cap = options_.write_queue_soft_cap;
  lo.idle_timeout_ms = options_.idle_timeout_ms;
  lo.sndbuf_bytes = options_.sndbuf_bytes;
  lo.epoch = tracer_.Epoch();
  // The cast happens here (not inside make_unique) because FrameHandler
  // is a private base: only members may convert to it.
  pool_ = std::make_unique<EventLoopPool>(lo, static_cast<FrameHandler*>(this));
  loop_shards_.clear();
  inline_loops_.clear();
  for (size_t i = 0; i < lo.num_loops; ++i) {
    loop_shards_.push_back(tracer_.AcquireShard());
    if (inline_points_) inline_loops_.push_back({index_.NewContext()});
  }
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  if (!pool_->Start(std::move(listen), error)) {
    queue_.Close();
    dispatch_thread_.join();
    for (int shard : loop_shards_) tracer_.ReleaseShard(shard);
    loop_shards_.clear();
    pool_.reset();
    inline_loops_.clear();
    // The exporter was started at the top of this function; a failed
    // Start must not leak its thread (and must close the JSONL file so
    // the caller can retry with the same path).
    tracer_.StopExporter();
    return false;
  }
  started_ = true;
  return true;
}

void QueryServer::RequestShutdown() {
  draining_.store(true);
  {
    MutexLock lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.NotifyAll();
}

bool QueryServer::WaitForShutdownRequest(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(shutdown_mu_);
  while (!shutdown_requested_ &&
         shutdown_cv_.WaitUntil(lock, deadline) != std::cv_status::timeout) {
  }
  return shutdown_requested_;
}

void QueryServer::Shutdown() {
  {
    MutexLock lock(shutdown_mu_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  draining_.store(true);

  if (started_) {
    // 1. Stop accepting. Established connections keep running; their
    // loops reject new requests with SHUTTING_DOWN (draining_ is set).
    // StopAccepting runs a closure on every loop, so once it returns no
    // loop is still inside an OnFrame that admitted a request before
    // draining_ was set: every inline reply is on its write queue.
    pool_->StopAccepting();

    // 2. Close the queue: the dispatcher drains everything already
    // offloaded and exits. Every drained Pending is Complete()d, which
    // posts its reply to the owning loop.
    queue_.Close();
    dispatch_thread_.join();

    // 3. Wait for the completion closures: once in_flight_ hits zero,
    // every offloaded request has its reply on a connection write queue.
    {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      MutexLock lock(drain_mu_);
      while (in_flight_.load(std::memory_order_acquire) != 0 &&
             drain_cv_.WaitUntil(lock, deadline) != std::cv_status::timeout) {
      }
    }

    // 4. Flush replies to peers that are reading (bounded: a peer that
    // stopped reading cannot stall the drain forever), then stop.
    pool_->FlushAndWait(std::chrono::seconds(2));
    pool_->Stop();
    for (int shard : loop_shards_) tracer_.ReleaseShard(shard);
    loop_shards_.clear();
  }
  // Every producer is gone: the final drain flushes all captured traces
  // to the slow-query log before the file closes.
  tracer_.StopExporter();
}

std::string QueryServer::EncodeReply(Pending* p) {
  switch (p->family) {
    case Pending::Family::kKnn:
      p->knn_resp.status = p->resp.status;
      p->knn_resp.server_latency_ns = p->resp.server_latency_ns;
      return wire::EncodeKnnResponse(wire::kKnnReply, p->knn_resp);
    case Pending::Family::kOneToMany:
      p->knn_resp.status = p->resp.status;
      p->knn_resp.server_latency_ns = p->resp.server_latency_ns;
      return wire::EncodeKnnResponse(wire::kOneToManyReply, p->knn_resp);
    case Pending::Family::kPoint:
      break;
  }
  return p->pipelined ? wire::EncodeQueryResponseV2(p->resp)
                      : wire::EncodeQueryResponse(p->resp);
}

void QueryServer::ReplyNow(Pending* p, wire::Status status) {
  p->resp.status = status;
  p->resp.server_latency_ns = ElapsedNanos(p->received);
  p->trace.status = static_cast<uint8_t>(status);
  {
    TraceSpan reply_span(&p->trace, TraceStage::kReplyWrite);
    pool_->Send(p->conn, EncodeReply(p));
  }
  const int shard = loop_shards_[p->conn.loop];
  if (shard >= 0) tracer_.Finish(shard, &p->trace);
}

void QueryServer::Complete(Pending* p, wire::Status status) {
  p->resp.status = status;
  p->resp.server_latency_ns = ElapsedNanos(p->received);
  p->trace.status = static_cast<uint8_t>(status);
  // Encode on the dispatcher (cheap for the loops, and path replies can
  // be large); the owning loop only appends bytes and finishes the
  // trace. The Post hop orders these writes before the loop's reads.
  std::string frame = EncodeReply(p);
  pool_->Post(p->conn.loop, [this, p, frame = std::move(frame)] {
    RequestTrace& trace = p->trace;
    const uint64_t reply_start = trace.NowNs();
    pool_->Send(p->conn, frame);  // false if the connection died: drop
    trace.RecordStage(TraceStage::kReplyWrite, reply_start, trace.NowNs());
    const int shard = loop_shards_[p->conn.loop];
    if (shard >= 0) tracer_.Finish(shard, &trace);
    delete p;
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Lock-then-notify: taking drain_mu_ orders this notify after the
      // drain waiter is actually asleep (it held drain_mu_ from its
      // predicate check into the wait), so the wakeup cannot be lost.
      MutexLock lock(drain_mu_);
      drain_cv_.NotifyAll();
    }
  });
}

bool QueryServer::OnFrame(const ConnRef& conn, std::string&& body,
                          const FrameMeta& meta) {
  const auto type = wire::PeekType(body);
  if (!type.has_value()) return false;  // garbage: hang up

  // Admin frames are answered inline on the loop thread and not traced.
  if (*type == wire::kStats) {
    return pool_->Send(conn, wire::EncodeStatsResponse(StatsV2()));
  }
  if (*type == wire::kShutdown) {
    // Ack first so the admin client gets a reply, then flag the drain;
    // the owner thread (WaitForShutdownRequest) runs Shutdown().
    const bool ok = pool_->Send(conn, wire::EncodeShutdownResponse());
    RequestShutdown();
    return ok;
  }
  if (*type == wire::kTraceConfig) {
    const auto cfg = wire::DecodeTraceConfigRequest(body);
    if (!cfg.has_value()) return false;
    tracer_.Configure(cfg->sample_every, cfg->slow_micros);
    wire::TraceConfigResponse ack;
    ack.sample_every = tracer_.SampleEvery();
    ack.slow_micros = tracer_.SlowMicros();
    return pool_->Send(conn, wire::EncodeTraceConfigResponse(ack));
  }
  if (*type != wire::kQuery && *type != wire::kQueryV2 &&
      *type != wire::kKnnQuery && *type != wire::kOneToManyQuery) {
    return false;
  }

  // A request that runs to completion inside this call keeps its state
  // on the stack; every other request is heap-allocated because it
  // outlives OnFrame on the dispatcher.
  const bool run_inline = RunsInline(conn.loop, *type, meta);
  std::optional<Pending> local;
  std::unique_ptr<Pending> owned;
  if (run_inline) {
    local.emplace();
  } else {
    owned = std::make_unique<Pending>();
  }
  Pending* p = run_inline ? &*local : owned.get();
  p->conn = conn;
  RequestTrace& trace = p->trace;
  const int shard = loop_shards_[conn.loop];
  if (shard >= 0) tracer_.StartRequest(&trace);
  if (meta.first_frame) {
    // The first request's accept stage: accept(2) return to the loop
    // starting to wait for this connection's bytes.
    trace.RecordStage(TraceStage::kAccept, meta.accept_ns,
                      meta.registered_ns);
  }
  // frame_read runs from the frame's first byte to its last (timestamps
  // come from the loop's read path), so it never covers client idle time.
  trace.RecordStage(TraceStage::kFrameRead, meta.read_start_ns,
                    meta.frame_end_ns);
  p->received = std::chrono::steady_clock::now();

  // Decode + validate per family. A short answer (empty category,
  // k > |POIs|) is NOT a bad request — only malformed frames, ids out
  // of range, and techniques/methods the server does not host are.
  bool valid = false;
  if (*type == wire::kQuery || *type == wire::kQueryV2) {
    const auto req = *type == wire::kQueryV2
                         ? wire::DecodeQueryRequestV2(body)
                         : wire::DecodeQueryRequest(body);
    if (req.has_value()) {
      p->pipelined = *type == wire::kQueryV2;
      p->resp.request_id = req->request_id;
      trace.kind = static_cast<uint8_t>(req->kind);
      trace.source = req->source;
      trace.target = req->target;
      valid = req->source < num_vertices_ && req->target < num_vertices_ &&
              (req->technique == wire::kAnyTechnique ||
               req->technique == technique_id_);
      p->req = *req;
    }
  } else if (*type == wire::kKnnQuery) {
    // Family follows the frame type even when decode fails, so a
    // malformed KNN_QUERY still gets a KNN_REPLY bad-request frame.
    p->family = Pending::Family::kKnn;
    const auto req = wire::DecodeKnnRequest(body);
    if (req.has_value()) {
      trace.kind = 2;
      trace.source = req->source;
      trace.target = req->category;  // category stands in for target
      valid = knn_.Enabled() && req->source < num_vertices_ &&
              req->category < knn_.pois->NumCategories() &&
              (req->method != wire::KnnMethod::kIer || knn_.ier != nullptr);
      p->knn_req = *req;
      p->req.deadline_micros = req->deadline_micros;
    }
  } else {
    p->family = Pending::Family::kOneToMany;
    const auto req = wire::DecodeOneToManyRequest(body);
    if (req.has_value()) {
      trace.kind = 3;
      trace.source = req->source;
      trace.target = req->category;
      valid = knn_.Enabled() && req->source < num_vertices_ &&
              req->category < knn_.pois->NumCategories();
      p->otm_req = *req;
      p->req.deadline_micros = req->deadline_micros;
    }
  }
  if (!valid) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    ReplyNow(p, wire::Status::kBadRequest);
    return true;
  }

  // enqueue covers the admission checks.
  TraceSpan enqueue_span(&trace, TraceStage::kEnqueue);
  wire::Status shed = wire::Status::kOk;
  if (draining_.load(std::memory_order_relaxed)) {
    shed = wire::Status::kShuttingDown;
    shed_draining_.fetch_add(1, std::memory_order_relaxed);
  } else if (options_.write_queue_hard_cap > 0 &&
             meta.write_queue_bytes > options_.write_queue_hard_cap) {
    // The peer is not draining its replies; shedding here keeps a
    // non-reading client from pinning engine output in memory.
    shed = wire::Status::kOverloaded;
    shed_overloaded_.fetch_add(1, std::memory_order_relaxed);
  }
  // The span must close BEFORE TryPush: once the request is in the queue
  // the dispatcher may pop it immediately and derive the queue_wait
  // start from this stage's end stamp.
  enqueue_span.Close();
  if (shed == wire::Status::kOk && run_inline) {
    RunInline(p);
    return true;
  }
  if (shed == wire::Status::kOk && !queue_.TryPush(p)) {
    shed = wire::Status::kOverloaded;
    shed_overloaded_.fetch_add(1, std::memory_order_relaxed);
  }
  if (shed != wire::Status::kOk) {
    ReplyNow(p, shed);
    return true;
  }
  // Admitted: the dispatcher owns the Pending now (no touching *p past
  // the TryPush). The completion closure runs on this loop thread, so
  // it cannot race this increment.
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  owned.release();
  return true;
}

// The budget caps how long one pass keeps the requests behind it waiting
// for the loop: past it, handing a QUERY2 request to the engine costs
// less latency than queueing it behind more inline work, and spreads a
// pipelined burst over the workers. The first request of a pass always
// runs (nothing waits on the loop yet), so a quiet loop answers every
// point request itself. v1 replies carry no id and leave in arrival
// order; an offloaded one could be overtaken by a later inline one.
bool QueryServer::RunsInline(uint32_t loop, uint8_t type,
                             const FrameMeta& meta) {
  if (!inline_points_) return false;
  if (type == wire::kQuery) return true;
  if (type != wire::kQueryV2) return false;
  InlineLoop& il = inline_loops_[loop];
  if (il.wake != meta.wake) {
    il.wake = meta.wake;
    il.spent_ns = 0;
  }
  return il.spent_ns < kInlineBudgetNs;
}

void QueryServer::RunInline(Pending* p) {
  RequestTrace& trace = p->trace;
  // Nothing queued and nothing batched: queue_wait and batch_assembly are
  // zero-length spans where execution starts, so an inline trace carries
  // the same stages, in the same order, as an offloaded one.
  const uint64_t start_ns = trace.NowNs();
  trace.RecordStage(TraceStage::kQueueWait, start_ns, start_ns);
  trace.RecordStage(TraceStage::kBatchAssembly, start_ns, start_ns);
  InlineLoop& il = inline_loops_[p->conn.loop];
  QueryContext* ctx = il.ctx.get();
  const VertexId s = p->req.source;
  const VertexId t = p->req.target;
  const bool path = p->req.kind == wire::QueryKind::kPath;
  // A path request answers both queries, as an engine path batch does.
  p->resp.distance = index_.DistanceQuery(ctx, s, t);
  QueryCounters counters = ctx->counters;
  if (path) {
    p->resp.path = index_.PathQuery(ctx, s, t);
    counters += ctx->counters;
  }
  trace.RecordStage(TraceStage::kExecute, start_ns, trace.NowNs());
  trace.counters = counters;
  const uint64_t latency_ns = ElapsedNanos(p->received);
  il.spent_ns += latency_ns;
  {
    MutexLock lock(stats_mu_);
    (path ? path_latency_ : distance_latency_).Record(latency_ns);
    counters_ += counters;
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  ReplyNow(p, p->resp.distance == kInfDistance ? wire::Status::kUnreachable
                                               : wire::Status::kOk);
}

void QueryServer::RunSubBatch(std::vector<Pending*>& reqs, bool paths) {
  if (reqs.empty()) return;
  std::vector<std::pair<VertexId, VertexId>> queries;
  queries.reserve(reqs.size());
  for (const Pending* p : reqs) {
    queries.emplace_back(p->req.source, p->req.target);
  }
  BatchOptions options;
  options.collect_paths = paths;
  // The engine's per-query histogram would only cover index time; the
  // server reports receipt-to-completion latency instead (recorded
  // below), so skip the double measurement.
  options.record_latencies = false;
  const bool traced = tracer_.RuntimeEnabled();
  uint64_t assembly_end = 0;
  if (traced) {
    // Per-query execute windows come back from the engine workers on the
    // tracer's time axis; counters are snapshotted per query.
    options.record_per_query = true;
    options.trace_epoch = tracer_.Epoch();
    assembly_end = tracer_.NowNs();
  }
  in_flight_batches_.fetch_add(1, std::memory_order_relaxed);
  BatchResult result = engine_.Run(queries, options);
  in_flight_batches_.fetch_sub(1, std::memory_order_relaxed);
  if (traced && result.query_start_ns.size() == reqs.size()) {
    for (size_t i = 0; i < reqs.size(); ++i) {
      RequestTrace& trace = reqs[i]->trace;
      // batch_assembly: dispatcher pop (queue_wait end) to engine entry.
      trace.RecordStage(
          TraceStage::kBatchAssembly,
          trace.stages[static_cast<size_t>(TraceStage::kQueueWait)].end_ns,
          assembly_end);
      trace.RecordStage(TraceStage::kExecute, result.query_start_ns[i],
                        result.query_end_ns[i]);
      trace.counters = result.query_counters[i];
    }
  }

  {
    MutexLock lock(stats_mu_);
    Histogram& latency = paths ? path_latency_ : distance_latency_;
    for (size_t i = 0; i < reqs.size(); ++i) {
      Pending* p = reqs[i];
      p->resp.distance = result.distances[i];
      if (paths) p->resp.path = std::move(result.paths[i]);
      latency.Record(ElapsedNanos(p->received));
    }
    counters_ += result.stats.counters;
  }
  served_.fetch_add(reqs.size(), std::memory_order_relaxed);
  for (size_t i = 0; i < reqs.size(); ++i) {
    Complete(reqs[i], result.distances[i] == kInfDistance
                          ? wire::Status::kUnreachable
                          : wire::Status::kOk);
  }
}

void QueryServer::RunKnnSubBatch(std::vector<Pending*>& reqs) {
  if (reqs.empty()) return;
  BatchOptions options;
  options.record_latencies = false;  // server latency is recorded below
  const bool traced = tracer_.RuntimeEnabled();
  uint64_t assembly_end = 0;
  if (traced) {
    options.record_per_query = true;
    options.trace_epoch = tracer_.Epoch();
    assembly_end = tracer_.NowNs();
  }
  // The engine's task path: each request runs on one worker's own kNN
  // contexts and writes its own Pending, so workers never share state.
  QueryTask task = [this, &reqs](size_t worker, size_t i,
                                 QueryCounters* counters) {
    Pending* p = reqs[i];
    std::vector<KnnResult>& out = knn_scratch_[worker];
    if (p->family == Pending::Family::kOneToMany) {
      knn_.bucket->OneToManyQuery(&bucket_ctxs_[worker],
                                  p->otm_req.category, p->otm_req.source,
                                  &out);
      *counters = bucket_ctxs_[worker].counters;
    } else if (p->knn_req.method == wire::KnnMethod::kIer) {
      knn_.ier->KnnQuery(&ier_ctxs_[worker], p->knn_req.category,
                         p->knn_req.source, p->knn_req.k, &out);
      *counters = ier_ctxs_[worker].counters;
    } else {
      knn_.bucket->KnnQuery(&bucket_ctxs_[worker], p->knn_req.category,
                            p->knn_req.source, p->knn_req.k, &out);
      *counters = bucket_ctxs_[worker].counters;
    }
    p->knn_resp.entries.clear();
    p->knn_resp.entries.reserve(out.size());
    for (const KnnResult& r : out) {
      p->knn_resp.entries.emplace_back(r.poi, r.dist);
    }
  };
  in_flight_batches_.fetch_add(1, std::memory_order_relaxed);
  BatchResult result = engine_.RunTasks(reqs.size(), task, options);
  in_flight_batches_.fetch_sub(1, std::memory_order_relaxed);
  if (traced && result.query_start_ns.size() == reqs.size()) {
    for (size_t i = 0; i < reqs.size(); ++i) {
      RequestTrace& trace = reqs[i]->trace;
      trace.RecordStage(
          TraceStage::kBatchAssembly,
          trace.stages[static_cast<size_t>(TraceStage::kQueueWait)].end_ns,
          assembly_end);
      trace.RecordStage(TraceStage::kExecute, result.query_start_ns[i],
                        result.query_end_ns[i]);
      trace.counters = result.query_counters[i];
    }
  }

  {
    MutexLock lock(stats_mu_);
    for (const Pending* p : reqs) {
      Histogram& latency = p->family == Pending::Family::kOneToMany
                               ? one_to_many_latency_
                               : knn_latency_;
      latency.Record(ElapsedNanos(p->received));
    }
    counters_ += result.stats.counters;
  }
  served_.fetch_add(reqs.size(), std::memory_order_relaxed);
  // A short (even empty) list is a complete OK answer: unreachable or
  // absent POIs are simply not in it.
  for (Pending* p : reqs) Complete(p, wire::Status::kOk);
}

void QueryServer::DispatchLoop() {
  std::vector<Pending*> batch;
  std::vector<Pending*> distance_reqs;
  std::vector<Pending*> path_reqs;
  std::vector<Pending*> knn_reqs;
  while (queue_.PopBatch(&batch, options_.max_dispatch_batch)) {
    distance_reqs.clear();
    path_reqs.clear();
    knn_reqs.clear();
    const auto now = std::chrono::steady_clock::now();
    // One pop stamp for the whole batch: each request's queue_wait runs
    // from its own enqueue end to this pop.
    const uint64_t pop_ns = tracer_.ToNs(now);
    for (Pending* p : batch) {
      p->trace.RecordStage(
          TraceStage::kQueueWait,
          p->trace.stages[static_cast<size_t>(TraceStage::kEnqueue)].end_ns,
          pop_ns);
    }
    for (Pending* p : batch) {
      // Deadline enforcement happens at dispatch: a request that already
      // waited past its budget is shed without occupying a worker.
      if (p->req.deadline_micros > 0) {
        const auto waited =
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - p->received)
                .count();
        if (waited > static_cast<int64_t>(p->req.deadline_micros)) {
          shed_deadline_.fetch_add(1, std::memory_order_relaxed);
          Complete(p, wire::Status::kDeadlineExceeded);
          continue;
        }
      }
      if (p->family != Pending::Family::kPoint) {
        knn_reqs.push_back(p);
      } else {
        (p->req.kind == wire::QueryKind::kPath ? path_reqs : distance_reqs)
            .push_back(p);
      }
    }
    RunSubBatch(distance_reqs, /*paths=*/false);
    RunSubBatch(path_reqs, /*paths=*/true);
    RunKnnSubBatch(knn_reqs);
  }
}

wire::StatsResponse QueryServer::Stats() const {
  wire::StatsResponse s;
  s.served = served_.load(std::memory_order_relaxed);
  s.shed_overloaded = shed_overloaded_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.shed_draining = shed_draining_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  if (pool_ != nullptr) {
    const EventLoopPool::PoolStats ps = pool_->Stats();
    s.connections_accepted = ps.accepted;
    s.connections_rejected = ps.rejected;
  }
  MutexLock lock(stats_mu_);
  s.distance_count = distance_latency_.Count();
  s.distance_p50_ns = distance_latency_.ValueAtQuantile(0.50);
  s.distance_p99_ns = distance_latency_.ValueAtQuantile(0.99);
  s.path_count = path_latency_.Count();
  s.path_p50_ns = path_latency_.ValueAtQuantile(0.50);
  s.path_p99_ns = path_latency_.ValueAtQuantile(0.99);
  return s;
}

wire::StatsResponse QueryServer::StatsV2() const {
  wire::StatsResponse s = Stats();
  // Live gauges: instantaneous, so a mid-run STATS shows where requests
  // are right now (waiting, executing, connected).
  s.queue_depth = queue_.Size();
  s.in_flight_batches = in_flight_batches_.load(std::memory_order_relaxed);
  if (pool_ != nullptr) {
    const EventLoopPool::PoolStats ps = pool_->Stats();
    s.open_connections = ps.open_connections;
    s.write_queue_bytes = ps.write_queue_bytes;
    s.idle_reaped = ps.idle_reaped;
    s.loop_connections = ps.loop_connections;
  }
  const Tracer::Snapshot snap = tracer_.GetSnapshot();
  s.traces_finished = snap.finished;
  s.traces_captured = snap.captured;
  s.traces_dropped = snap.dropped;
  s.traces_slow = snap.slow;
  s.stages.reserve(snap.stages.size());
  for (const Tracer::StageStat& stat : snap.stages) {
    wire::StageStatWire w;
    w.stage = static_cast<uint8_t>(stat.stage);
    w.count = stat.count;
    w.p50_ns = stat.p50_ns;
    w.p99_ns = stat.p99_ns;
    s.stages.push_back(w);
  }
  return s;
}

void QueryServer::ExportMetrics(MetricsRegistry* registry) const {
  const wire::StatsResponse s = StatsV2();
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"command", "serve"}, {"method", index_.Name()}};
  registry->Add("served", static_cast<double>(s.served), labels);
  registry->Add("shed_overloaded", static_cast<double>(s.shed_overloaded),
                labels);
  registry->Add("shed_deadline", static_cast<double>(s.shed_deadline),
                labels);
  registry->Add("shed_draining", static_cast<double>(s.shed_draining),
                labels);
  registry->Add("bad_requests", static_cast<double>(s.bad_requests), labels);
  registry->Add("connections_accepted",
                static_cast<double>(s.connections_accepted), labels);
  registry->Add("connections_rejected",
                static_cast<double>(s.connections_rejected), labels);
  // Event-loop core gauges (STATS v3).
  registry->Add("write_queue_bytes", static_cast<double>(s.write_queue_bytes),
                labels);
  registry->Add("idle_connections_reaped",
                static_cast<double>(s.idle_reaped), labels);
  for (size_t i = 0; i < s.loop_connections.size(); ++i) {
    auto l = labels;
    l.emplace_back("loop", std::to_string(i));
    registry->Add("loop_open_connections",
                  static_cast<double>(s.loop_connections[i]), l);
  }
  MutexLock lock(stats_mu_);
  auto with_endpoint = [&labels](const char* endpoint) {
    auto l = labels;
    l.emplace_back("endpoint", endpoint);
    return l;
  };
  registry->AddHistogram("latency_micros", distance_latency_, 1e-3,
                         with_endpoint("distance"));
  registry->AddHistogram("latency_micros", path_latency_, 1e-3,
                         with_endpoint("path"));
  if (knn_.Enabled()) {
    registry->AddHistogram("latency_micros", knn_latency_, 1e-3,
                           with_endpoint("knn"));
    registry->AddHistogram("latency_micros", one_to_many_latency_, 1e-3,
                           with_endpoint("one_to_many"));
  }
  registry->AddCounters(counters_, labels);
  tracer_.ExportMetrics(registry, labels);
}

}  // namespace roadnet
