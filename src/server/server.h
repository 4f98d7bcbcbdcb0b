#ifndef ROADNET_SERVER_SERVER_H_
#define ROADNET_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "knn/ier.h"
#include "knn/knn_index.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "poi/poi_set.h"
#include "routing/path_index.h"
#include "server/bounded_queue.h"
#include "server/event_loop.h"
#include "server/socket.h"
#include "server/wire.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace roadnet {

// Optional kNN / one-to-many serving backends. All-null = the server
// answers only point-to-point queries (KNN_QUERY gets BAD_REQUEST).
// `bucket` and `pois` enable the family; `ier` additionally enables
// method=ier. All referents must outlive the server.
struct KnnServing {
  const PoiSet* pois = nullptr;
  const KnnBucketIndex* bucket = nullptr;
  const IerKnnIndex* ier = nullptr;

  bool Enabled() const { return pois != nullptr && bucket != nullptr; }
};

struct ServerOptions {
  uint16_t port = 0;             // 0 = ephemeral (read back via Port())
  size_t max_connections = 64;   // accept cap; excess conns closed at once
  size_t queue_capacity = 256;   // admission queue; full => OVERLOADED
  size_t engine_threads = 4;     // QueryEngine worker pool size
  size_t max_dispatch_batch = 64;  // requests per engine batch
  // --- Event-loop front-end (src/server/event_loop.h) ---
  size_t num_loops = 2;          // epoll event loops sharing the accepts
  // Per-connection write-queue caps: above soft the loop stops reading
  // the connection; requests decoded while the queue is above hard are
  // shed with OVERLOADED.
  size_t write_queue_soft_cap = 256u << 10;
  size_t write_queue_hard_cap = 1u << 20;
  uint64_t idle_timeout_ms = 0;  // reap idle connections (0 = never)
  int sndbuf_bytes = 0;          // SO_SNDBUF per conn (0 = kernel default)
  // --- Request tracing (obs/trace.h; all runtime-retunable via the
  // TRACE_CONFIG frame). Both capture knobs off = tracing idle: every
  // request pays only the StartRequest early-out.
  uint64_t trace_sample_every = 0;  // head sampling, 1-in-N (0 = off)
  uint64_t trace_slow_us = kTraceSlowDisabled;  // tail capture threshold
  std::string trace_out;            // JSONL slow-query log ("" = no export)
  size_t trace_ring_capacity = 256;  // per-connection trace ring slots
  uint64_t trace_seed = 1;           // trace-id stream seed
};

// Long-running TCP front-end over one immutable PathIndex.
//
// Threading model (see DESIGN.md "Serving"):
//   - a small pool of epoll event loops (EventLoopPool) owns every
//     connection: nonblocking accepts sharded across loops, incremental
//     frame reassembly from edge-triggered reads, pipelined requests
//     (QUERY2 carries a request_id echoed in its reply, so many may be
//     outstanding per connection and complete out of order);
//   - OnFrame (on the loop thread) decodes, validates and runs the
//     admission checks: a draining server or a write queue over the hard
//     cap is answered inline (SHUTTING_DOWN / OVERLOADED);
//   - run to completion: on a CH or HL server an admitted point request
//     (QUERY/QUERY2, distance or path) is answered right there, on the
//     loop's own QueryContext — no allocation, no queue, no thread hop —
//     while the loop's inline work in its current pass over ready events
//     is under a fixed budget (25 us, server.cc). QUERY2 requests past the
//     budget are offloaded, so a pipelined burst is spread over the
//     engine_threads workers instead of one loop; v1 QUERY requests,
//     answered in arrival order without ids, always run inline. A quiet
//     loop thus answers at one query's cost, and a saturated one at
//     num_loops + engine_threads cores;
//   - offload: everything else (bidi/ALT and custom indexes, kNN and
//     one-to-many, QUERY2 past the budget) goes as a heap-allocated
//     Pending into the bounded queue (full => OVERLOADED). One
//     dispatcher thread drains it in batches, sheds requests whose
//     deadline already passed (DEADLINE_EXCEEDED) and feeds the rest to
//     the QueryEngine worker pool; each completed reply is posted back
//     to the owning loop (wakeup fd), which writes it and finishes the
//     trace.
//
// Shutdown (SIGINT via RequestShutdown(), or a client SHUTDOWN frame)
// drains: no new connections or requests are admitted (late requests get
// SHUTTING_DOWN), everything already admitted is answered and flushed,
// then threads join. Shutdown() is idempotent and safe after a failed
// Start().
class QueryServer : private FrameHandler {
 public:
  // The index (and the graph it was built on) must outlive the server.
  // `technique_id` is the wire id clients must send (or kAnyTechnique);
  // `num_vertices` bounds request validation.
  QueryServer(const PathIndex& index, uint8_t technique_id,
              uint32_t num_vertices, const ServerOptions& options,
              const KnnServing& knn = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, builds the loops' query contexts (CH/HL servers), and spawns
  // the event loops + dispatcher thread. False + *error on failure (e.g.
  // port in use).
  bool Start(std::string* error);

  // Port actually bound (resolves port 0). Valid after Start().
  uint16_t Port() const { return port_; }

  // Marks the server draining and wakes WaitForShutdownRequest(). Called
  // by the SHUTDOWN frame handler; safe from any thread, including the
  // SIGINT path in roadnet_cli.
  void RequestShutdown();

  // Blocks until RequestShutdown() (or a SHUTDOWN frame) fires, at most
  // `timeout`. Returns true once shutdown was requested. The caller —
  // not a connection thread — then runs Shutdown().
  bool WaitForShutdownRequest(std::chrono::milliseconds timeout);

  // Drain-then-stop: stop accepting, answer everything admitted, join
  // all threads. Idempotent; also called by the destructor.
  void Shutdown();

  // Snapshot of the serving counters and per-endpoint latency
  // percentiles. Thread-safe.
  wire::StatsResponse Stats() const;

  // Stats() plus the v2 live gauges (queue depth, in-flight batches,
  // open connections) and the tracer's per-stage breakdown — the STATS
  // frame's actual payload. Thread-safe; callable mid-run.
  wire::StatsResponse StatsV2() const;

  // The server's tracer, for runtime retuning (TRACE_CONFIG does this
  // remotely) and test introspection.
  Tracer& tracer() { return tracer_; }

  // Exports the snapshot plus full per-endpoint histograms into a
  // MetricsRegistry (labels: endpoint=distance|path).
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  // One request's state from decode to reply. A point request on a
  // CH/HL server keeps it on the loop's stack for its whole (inline)
  // life. Offloaded requests heap-allocate it in OnFrame; ownership
  // flows loop -> bounded queue -> dispatcher -> (Post) back to the
  // owning loop, which writes the reply and deletes it. No locking: each
  // stage hands the pointer off before the next one touches it, and the
  // Post hop orders the dispatcher's writes before the loop's reads.
  struct Pending {
    // Which request family this is; selects the active request struct
    // and the reply frame encoded for it.
    enum class Family : uint8_t { kPoint = 0, kKnn = 1, kOneToMany = 2 };
    Family family = Family::kPoint;
    // kPoint requests decode into `req`. kKnn / kOneToMany decode into
    // their own structs, but `req.deadline_micros` is mirrored so the
    // dispatcher's deadline shedding is family-agnostic.
    wire::QueryRequest req;
    wire::KnnRequest knn_req;
    wire::OneToManyRequest otm_req;
    std::chrono::steady_clock::time_point received;
    wire::QueryResponse resp;
    // Entry list of a kKnn / kOneToMany reply; status and latency are
    // copied out of `resp` when the reply frame is encoded.
    wire::KnnResponse knn_resp;
    // Lifecycle trace. The loop thread stamps accept/frame_read/enqueue;
    // for an offloaded request the dispatcher and engine stamp
    // queue_wait/batch_assembly/execute while the loop is not touching
    // the Pending, and the completion closure stamps reply_write and
    // Finishes on the loop's shard. Inline requests stamp every stage on
    // the loop thread.
    RequestTrace trace;
    // The connection this request came in on; replies route back through
    // it (and fail harmlessly if the connection died meanwhile).
    ConnRef conn;
    // Arrived as a QUERY2 frame: reply with QUERY_REPLY2 (request_id is
    // mirrored in resp). Old QUERY frames get old QUERY_REPLY frames.
    bool pipelined = false;
  };

  // FrameHandler: one complete frame from an event loop, on that loop's
  // thread.
  bool OnFrame(const ConnRef& conn, std::string&& body,
               const FrameMeta& meta) override;

  // Whether a frame of `type` runs to completion on the loop that read
  // it: a point request on a CH/HL server, v1 always, QUERY2 while the
  // loop's inline time in the frame's pass is under the budget.
  bool RunsInline(uint32_t loop, uint8_t type, const FrameMeta& meta);

  // Runs one admitted point request to completion on the calling loop
  // thread (CH/HL servers): executes it on the loop's context, records
  // latency/counters/served like RunSubBatch, charges its time to the
  // loop's budget, and replies.
  void RunInline(Pending* p);

  void DispatchLoop();

  // Runs one homogeneous sub-batch (all-distance or all-path) through
  // the engine and fills the responses.
  void RunSubBatch(std::vector<Pending*>& reqs, bool paths);

  // Runs a mixed kNN / one-to-many sub-batch through the engine's task
  // path on the per-worker kNN contexts.
  void RunKnnSubBatch(std::vector<Pending*>& reqs);

  // Encodes the reply frame of whatever family/version `p` is (copies
  // status/latency into the kNN reply struct first, hence non-const).
  static std::string EncodeReply(Pending* p);

  // Reply on the loop thread (inline answers, bad requests, shedding):
  // fills status/latency, writes the reply, finishes the trace.
  void ReplyNow(Pending* p, wire::Status status);

  // Dispatcher-side completion: fills status/latency, encodes the reply,
  // and posts it to the owning loop for the actual write + trace finish.
  void Complete(Pending* p, wire::Status status);

  const PathIndex& index_;
  const uint8_t technique_id_;
  const uint32_t num_vertices_;
  const ServerOptions options_;
  const KnnServing knn_;
  // Point requests may run inline on the loops (technique is CH or HL).
  const bool inline_points_;

  QueryEngine engine_;
  BoundedQueue<Pending*> queue_;
  Tracer tracer_;
  // Per-engine-worker kNN scratch, indexed by worker id (empty when the
  // matching backend is absent). Only the engine's task path touches
  // them, one worker per slot, so no locking.
  std::vector<KnnBucketIndex::Context> bucket_ctxs_;
  std::vector<IerKnnIndex::Context> ier_ctxs_;
  std::vector<std::vector<KnnResult>> knn_scratch_;

  uint16_t port_ = 0;
  std::unique_ptr<EventLoopPool> pool_;
  // Tracer shard of each event loop (the loop thread is its shard's only
  // producer); acquired in Start, released in Shutdown.
  std::vector<int> loop_shards_;
  // Run-to-completion state of each event loop (empty unless
  // inline_points_): built in Start, each touched only by its loop's
  // thread.
  struct InlineLoop {
    std::unique_ptr<QueryContext> ctx;
    uint64_t wake = 0;      // the pass (FrameMeta::wake) being charged
    uint64_t spent_ns = 0;  // inline request time charged to that pass
  };
  std::vector<InlineLoop> inline_loops_;
  std::thread dispatch_thread_;
  bool started_ = false;

  // Offloaded requests not yet replied (Pending objects alive past
  // OnFrame; inline requests are replied before OnFrame returns). Shutdown waits for this to hit zero before stopping the
  // loops so every admitted request is answered. drain_mu_ guards no
  // field — the wait predicate is the atomic itself; the mutex only
  // serializes the sleep/notify handshake so the completion closure's
  // notify cannot slip between the waiter's predicate check and its
  // sleep.
  std::atomic<uint64_t> in_flight_{0};
  // roadnet-lint: allow(R10 drain_mu_ intentionally guards no field: the predicate is the atomic in_flight_ above; the mutex exists only to order the drain wait against the completion path's notify)
  Mutex drain_mu_;
  CondVar drain_cv_;

  // Lifecycle. draining_ gates admission (connections and requests);
  // shutdown_cv_ wakes WaitForShutdownRequest().
  std::atomic<bool> draining_{false};
  Mutex shutdown_mu_;
  CondVar shutdown_cv_;
  bool shutdown_requested_ ROADNET_GUARDED_BY(shutdown_mu_) = false;
  bool shutdown_done_ ROADNET_GUARDED_BY(shutdown_mu_) = false;

  // Serving counters (atomics: bumped from loop threads) and
  // per-endpoint latency histograms (written by the loops for inline
  // requests and by the dispatcher for offloaded ones; mutex-guarded).
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> shed_overloaded_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> shed_draining_{0};
  std::atomic<uint64_t> bad_requests_{0};
  // Live gauge for STATS v2 (instantaneous, not lifetime).
  std::atomic<uint64_t> in_flight_batches_{0};
  mutable Mutex stats_mu_;
  Histogram distance_latency_ ROADNET_GUARDED_BY(stats_mu_);
  Histogram path_latency_ ROADNET_GUARDED_BY(stats_mu_);
  Histogram knn_latency_ ROADNET_GUARDED_BY(stats_mu_);
  Histogram one_to_many_latency_ ROADNET_GUARDED_BY(stats_mu_);
  // Summed over every served batch.
  QueryCounters counters_ ROADNET_GUARDED_BY(stats_mu_);
};

}  // namespace roadnet

#endif  // ROADNET_SERVER_SERVER_H_
