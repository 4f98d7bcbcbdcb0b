#ifndef ROADNET_OBS_TRACE_H_
#define ROADNET_OBS_TRACE_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/query_counters.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace roadnet {

// Per-request lifecycle tracing (DESIGN.md "Request tracing").
//
// A request offloaded by the query server crosses three threads: its
// event loop, the dispatcher, and an engine worker. Endpoint percentiles (PR 2/3) say *that* a request was slow;
// this subsystem says *where* — every request carries a RequestTrace
// whose stages (accept -> frame_read -> enqueue -> queue_wait ->
// batch_assembly -> execute -> reply_write) are stamped with
// steady_clock nanoseconds relative to one Tracer epoch, so stage
// windows recorded on different threads line up on a single monotonic
// axis and never overlap.
//
// Capture policy is head + tail sampling: 1-in-N requests are chosen up
// front (deterministic in the request sequence number, ids seeded), and
// any request whose total latency reaches the slow threshold is captured
// regardless — the slow-query log never misses an outlier because the
// head sampler skipped it. Captured traces travel through lock-free
// SPSC ring buffers (one per connection shard; the handler is the only
// producer, the exporter thread the only consumer) and are written as
// JSONL. Per-stage latency histograms are maintained for every traced
// request, sampled or not, and feed the STATS v2 live-introspection
// reply.
//
// Compile-time kill switch: -DROADNET_DISABLE_TRACING turns every span
// and stamp into a no-op (bench_trace_overhead holds the remaining cost
// of the instrumented-but-disabled hot path to <= 2%). The API remains
// so callers need no #ifdefs, mirroring ROADNET_DISABLE_COUNTERS.

#ifdef ROADNET_DISABLE_TRACING
inline constexpr bool kTracingCompiledIn = false;
#else
inline constexpr bool kTracingCompiledIn = true;
#endif

// Lifecycle stages in pipeline order. Stage windows of one request are
// non-overlapping and monotonically ordered; gaps (scheduling delay
// between dispatcher hand-off and worker pickup) are allowed and are
// themselves diagnostic.
// A request answered inline on its event loop (CH/HL point queries)
// records queue_wait and batch_assembly as zero-length spans at the start
// of execute, so both serving paths report the same stage set.
enum class TraceStage : uint8_t {
  kAccept = 0,         // accept(2) return -> loop polling the socket
  kFrameRead = 1,      // first byte of the request frame -> its last
  kEnqueue = 2,        // admission checks (and the queue TryPush)
  kQueueWait = 3,      // admitted -> dispatcher pops the batch
  kBatchAssembly = 4,  // batch pop -> engine Run() entry
  kExecute = 5,        // the query itself (engine worker or loop)
  kReplyWrite = 6,     // reply encode/hand-off -> frame written
};
inline constexpr size_t kNumTraceStages = 7;

const char* TraceStageName(TraceStage stage);

// Sentinel for "tail capture disabled" (TracerOptions::slow_micros). A
// threshold of 0 is meaningful: it captures every request.
inline constexpr uint64_t kTraceSlowDisabled = ~0ull;

struct TraceStageRecord {
  uint64_t start_ns = 0;  // nanoseconds since the Tracer epoch
  uint64_t end_ns = 0;
  // A stage never recorded keeps end_ns == 0 (a real stage end can only
  // be 0 in the epoch instant itself, which no request can hit: the
  // epoch predates the listening socket).
  bool Present() const { return end_ns != 0; }
};

// One request's trace, embedded in the server's per-request state. Plain
// value type: the owning handler thread writes it (the dispatcher and
// engine write stage windows while the handler is blocked on the
// response, so writes never overlap), and Finish() copies it into the
// shard ring.
struct RequestTrace {
  uint64_t trace_id = 0;
  uint64_t seq = 0;           // tracer-wide request sequence number
  bool active = false;        // runtime capture decision for this request
  bool head_sampled = false;  // chosen by the 1-in-N head sampler
  bool slow = false;          // set by Finish() against the threshold
  uint8_t kind = 0;  // 0 dist, 1 path (wire::QueryKind), 2 knn, 3 one-to-many
  uint8_t status = 0;         // wire::Status value
  uint32_t source = 0;
  uint32_t target = 0;
  uint64_t total_ns = 0;      // first stage start -> last stage end
  QueryCounters counters;     // engine snapshot for the execute stage
  TraceStageRecord stages[kNumTraceStages];
  std::chrono::steady_clock::time_point epoch{};
  int open_spans = 0;  // RAII balance check; Finish() asserts it is 0

  // Nanoseconds since the tracer epoch; 0 when the trace is inactive so
  // an untraced request never reads the clock.
  uint64_t NowNs() const {
    if constexpr (!kTracingCompiledIn) return 0;
    if (!active) return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  }

  void RecordStage(TraceStage stage, uint64_t start_ns, uint64_t end_ns) {
    if constexpr (!kTracingCompiledIn) return;
    if (!active) return;
    TraceStageRecord& r = stages[static_cast<size_t>(stage)];
    r.start_ns = start_ns;
    r.end_ns = end_ns;
  }
};

// RAII span: stamps its stage's start on construction and the end on
// destruction (or an explicit early Close()). On an inactive trace the
// constructor is a branch and nothing else.
class TraceSpan {
 public:
  TraceSpan(RequestTrace* trace, TraceStage stage)
      : trace_(trace), stage_(stage) {
    if constexpr (kTracingCompiledIn) {
      if (trace_ != nullptr && trace_->active) {
        start_ns_ = trace_->NowNs();
        ++trace_->open_spans;
        armed_ = true;
      }
    }
  }
  ~TraceSpan() { Close(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Ends the span now; idempotent. Useful when the span must close
  // before a scope exit (e.g. before Finish() in the same block).
  void Close() {
    if constexpr (kTracingCompiledIn) {
      if (armed_) {
        trace_->RecordStage(stage_, start_ns_, trace_->NowNs());
        --trace_->open_spans;
        armed_ = false;
      }
    }
  }

 private:
  RequestTrace* trace_;
  TraceStage stage_;
  uint64_t start_ns_ = 0;
  bool armed_ = false;
};

// Lock-free single-producer single-consumer ring of completed traces.
// The producer is the shard-owning connection handler; the consumer is
// the exporter thread. A full ring drops the new trace (counted) rather
// than blocking the request path.
class TraceRing {
 public:
  // Capacity is rounded up to a power of two, minimum 2.
  explicit TraceRing(size_t capacity);

  // Producer side. False (and one dropped count) when full.
  bool TryPush(const RequestTrace& trace);

  // Consumer side: appends up to `max` traces to *out in FIFO order,
  // returns how many were taken.
  size_t Drain(std::vector<RequestTrace>* out, size_t max);

  uint64_t Dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t Capacity() const { return slots_.size(); }

 private:
  std::vector<RequestTrace> slots_;
  size_t mask_ = 0;
  // head_ is written only by the producer, tail_ only by the consumer;
  // each side acquire-reads the other's cursor, which orders the slot
  // copy against the cursor publication (classic SPSC ring).
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> tail_{0};
  std::atomic<uint64_t> dropped_{0};
};

struct TracerOptions {
  // Head sampling: capture every N-th request (0 disables). Sampling is
  // deterministic in the request sequence number, so a seeded run
  // captures the same requests every time.
  uint64_t sample_every = 0;
  // Tail capture: any request whose total latency is >= this many
  // microseconds is captured even when not head-sampled.
  // kTraceSlowDisabled turns tail capture off; 0 captures everything.
  uint64_t slow_micros = kTraceSlowDisabled;
  // Shard count (one per concurrent producer, e.g. max_connections).
  size_t shards = 8;
  // Per-shard ring capacity (rounded up to a power of two).
  size_t ring_capacity = 256;
  // Seed of the trace-id stream (SplitMix64 over the sequence number).
  uint64_t id_seed = 1;
  // Maps RequestTrace::status bytes to wire names for the JSONL export;
  // nullptr falls back to "status-<n>". Kept a function pointer so the
  // obs layer does not depend on server/wire.
  const char* (*status_name)(uint8_t) = nullptr;
};

// The per-process tracing hub: owns the shards (ring + per-stage
// histograms), the sampling decision, and the JSONL exporter thread.
// Thread-safety: StartRequest/Finish are called by shard owners (one
// thread per shard at a time); Configure, GetSnapshot, and the exporter
// may run concurrently with them.
class Tracer {
 public:
  explicit Tracer(const TracerOptions& options);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Runtime reconfiguration (the wire TRACE_CONFIG frame): a nullopt
  // leaves that knob unchanged. Takes effect for subsequent requests.
  void Configure(std::optional<uint64_t> sample_every,
                 std::optional<uint64_t> slow_micros);

  // True when any capture mechanism is on (cheap: two relaxed loads).
  bool RuntimeEnabled() const {
    if constexpr (!kTracingCompiledIn) return false;
    return sample_every_.load(std::memory_order_relaxed) > 0 ||
           slow_micros_.load(std::memory_order_relaxed) != kTraceSlowDisabled;
  }

  uint64_t SampleEvery() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  uint64_t SlowMicros() const {
    return slow_micros_.load(std::memory_order_relaxed);
  }

  // Shard ownership for producers. AcquireShard returns -1 when all
  // shards are taken (the caller then simply runs untraced); every
  // acquired shard must be released.
  int AcquireShard();
  void ReleaseShard(int shard);

  // Arms `trace` for this request: assigns seq + trace id, applies the
  // head sampler, and stamps the epoch. When tracing is off (compiled
  // out or runtime-disabled) it only clears `active` — the cost a
  // served request pays with tracing idle, gated by
  // bench_trace_overhead.
  void StartRequest(RequestTrace* trace);

  // Completes the trace: asserts span balance, computes the total, makes
  // the tail (slow) decision, records per-stage histograms, and pushes
  // head-sampled/slow traces into the shard's ring. Must be called by
  // the shard owner; no-op for inactive traces.
  void Finish(int shard, RequestTrace* trace);

  // Nanoseconds since the tracer epoch (unconditional clock read; for
  // cold-path stamps like connection accept).
  uint64_t NowNs() const {
    return ToNs(std::chrono::steady_clock::now());
  }
  uint64_t ToNs(std::chrono::steady_clock::time_point t) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
  }
  std::chrono::steady_clock::time_point Epoch() const { return epoch_; }

  // JSONL export: spawns the exporter thread appending completed traces
  // to `path` (truncates an existing file). False + *error if the file
  // cannot be opened. StopExporter drains every ring one final time and
  // closes the file; idempotent, also run by the destructor.
  bool StartExporter(const std::string& path, std::string* error);
  void StopExporter();

  // True while the exporter thread is live. Lets owners assert the
  // exporter's lifecycle (e.g. that a failed server Start did not leak
  // the thread).
  bool ExporterRunning() const;

  // --- Live introspection (the STATS v2 payload) ---

  struct StageStat {
    TraceStage stage;
    uint64_t count = 0;
    uint64_t p50_ns = 0;
    uint64_t p99_ns = 0;
  };
  struct Snapshot {
    uint64_t finished = 0;      // active traces completed
    uint64_t captured = 0;      // pushed into a ring
    uint64_t dropped = 0;       // lost to a full ring
    uint64_t head_sampled = 0;
    uint64_t slow = 0;
    std::vector<StageStat> stages;  // stages with count > 0, pipeline order
  };
  Snapshot GetSnapshot() const;

  // Full per-stage histograms -> MetricsRegistry ("trace_stage_micros"
  // with a stage label, plus the capture counters).
  void ExportMetrics(
      MetricsRegistry* registry,
      std::vector<std::pair<std::string, std::string>> labels) const;

 private:
  struct Shard {
    explicit Shard(size_t ring_capacity) : ring(ring_capacity) {}
    // SPSC: the shard owner produces, the exporter consumes; the ring
    // synchronizes itself with its cursors, so it is not under `mu`.
    TraceRing ring;
    // Owner-written stats; the mutex is effectively uncontended (the
    // owner plus an occasional snapshot/export reader).
    mutable Mutex mu;
    Histogram stage_hist[kNumTraceStages] ROADNET_GUARDED_BY(mu);
    Histogram total_hist ROADNET_GUARDED_BY(mu);
    uint64_t finished ROADNET_GUARDED_BY(mu) = 0;
    uint64_t captured ROADNET_GUARDED_BY(mu) = 0;
    uint64_t head_sampled ROADNET_GUARDED_BY(mu) = 0;
    uint64_t slow ROADNET_GUARDED_BY(mu) = 0;
  };

  void ExporterLoop();
  // Drains every shard ring into the export file; returns traces written.
  size_t DrainAllToFile();

  const std::chrono::steady_clock::time_point epoch_;
  const uint64_t id_seed_;
  const char* (*const status_name_)(uint8_t);
  std::atomic<uint64_t> sample_every_;
  std::atomic<uint64_t> slow_micros_;
  std::atomic<uint64_t> seq_{0};

  std::vector<std::unique_ptr<Shard>> shards_;
  Mutex shard_free_mu_;
  std::vector<int> free_shards_ ROADNET_GUARDED_BY(shard_free_mu_);

  mutable Mutex exporter_mu_;
  CondVar exporter_cv_;
  // The thread handle is guarded too: StopExporter claims it (moves it
  // out) under the lock, which is what makes concurrent stops safe —
  // exactly one caller joins, the rest see exporter_running_ false.
  std::thread exporter_thread_ ROADNET_GUARDED_BY(exporter_mu_);
  std::string export_path_ ROADNET_GUARDED_BY(exporter_mu_);
  FILE* export_file_ ROADNET_GUARDED_BY(exporter_mu_) = nullptr;
  bool exporter_stop_ ROADNET_GUARDED_BY(exporter_mu_) = false;
  bool exporter_running_ ROADNET_GUARDED_BY(exporter_mu_) = false;
};

// Serializes one completed trace as a single JSONL line (no trailing
// newline) — the slow-query-log record format, also consumed by
// tools/roadnet_trace and validated by scripts/validate_metrics.py.
// `status_name` may be nullptr (falls back to "status-<n>").
void AppendTraceJson(const RequestTrace& trace,
                     const char* (*status_name)(uint8_t), std::string* out);

}  // namespace roadnet

#endif  // ROADNET_OBS_TRACE_H_
