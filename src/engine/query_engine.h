#ifndef ROADNET_ENGINE_QUERY_ENGINE_H_
#define ROADNET_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "obs/histogram.h"
#include "obs/query_counters.h"
#include "routing/path.h"
#include "routing/path_index.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace roadnet {

// Per-batch execution metrics: the throughput view of the paper's
// per-query latency numbers (queries/sec is what a production service
// provisions by; the percentiles are what its SLOs are written against).
struct BatchStats {
  size_t num_queries = 0;
  size_t num_threads = 0;
  size_t chunk_size = 0;
  // Chunks a worker claimed from another worker's segment — nonzero when
  // the static split was unbalanced and stealing actually engaged.
  size_t stolen_chunks = 0;
  double wall_seconds = 0;
  double queries_per_second = 0;
  // Per-query latency percentiles in microseconds, derived from the
  // merged per-worker histograms (<= 1.6% bucket error; min/max exact).
  // Zero unless BatchOptions::record_latencies.
  double p50_micros = 0;
  double p90_micros = 0;
  double p99_micros = 0;
  double p999_micros = 0;
  double max_micros = 0;
  // Operation counts summed over every query of the batch (all workers).
  // Zero unless BatchOptions::record_counters.
  QueryCounters counters;
};

struct BatchOptions {
  // Also materialize every shortest path (PathQuery) instead of distances
  // only (DistanceQuery).
  bool collect_paths = false;
  // Time every query individually for the latency percentiles. Costs two
  // clock reads plus one histogram add per query; disable for
  // pure-throughput runs.
  bool record_latencies = true;
  // Aggregate the per-query operation counters into BatchStats::counters.
  // One 7-field add per query on the worker's own context — cheap, but
  // disable it to measure the raw query path alone.
  bool record_counters = true;
  // Queries per stealable chunk; 0 picks a size from the batch and worker
  // counts. Small chunks balance better, large chunks amortize the atomic
  // claim.
  size_t chunk_size = 0;
  // Per-query tracing (obs/trace.h execute spans): stamp every query's
  // start/end as steady_clock nanoseconds relative to `trace_epoch` and
  // snapshot its counters into the per-query BatchResult vectors. The
  // server enables this only when its Tracer is live; workers write
  // disjoint indices, so no synchronization beyond the batch join.
  bool record_per_query = false;
  std::chrono::steady_clock::time_point trace_epoch{};
};

// Type-erased per-item task for query families that are not
// (source, target) pairs — kNN, one-to-many. Invoked once for every
// index in [0, count) on some worker thread; `worker_id` selects the
// caller's per-worker scratch (contexts indexed [0, NumThreads())), and
// the task reports its operation counts through *counters (pre-reset).
using QueryTask =
    std::function<void(size_t worker_id, size_t index, QueryCounters*)>;

struct BatchResult {
  // distances[i] answers queries[i] (kInfDistance if unreachable).
  std::vector<Distance> distances;
  // paths[i] answers queries[i]; empty unless BatchOptions::collect_paths.
  std::vector<Path> paths;
  // Merged per-worker latency histogram in nanoseconds; empty unless
  // BatchOptions::record_latencies. stats' percentiles derive from it,
  // and histograms from successive batches can be merged further.
  Histogram latency;
  // Per-query execute windows (nanoseconds since BatchOptions::trace_epoch)
  // and counters snapshots, indexed like `queries`; empty unless
  // BatchOptions::record_per_query.
  std::vector<uint64_t> query_start_ns;
  std::vector<uint64_t> query_end_ns;
  std::vector<QueryCounters> query_counters;
  BatchStats stats;
};

// Concurrent batch query executor over any PathIndex.
//
// A fixed pool of workers is spawned once per engine, each owning one
// QueryContext of the target index, built on the first (source, target)
// batch so a pool that only ever runs tasks never holds one; batches are executed by splitting the
// query list into per-worker segments of cache-friendly contiguous
// chunks. Workers drain their own segment first and then steal chunks
// from the remaining segments of other workers, so a straggler (one
// worker hitting the batch's hardest queries) cannot idle the rest of the
// pool. Claiming is one fetch_add on the segment owner's cursor, making
// every chunk executed exactly once.
//
// Run() is synchronous and must not be called from two threads at once:
// the engine asserts on concurrent entry (builds with asserts enabled,
// which includes this repository's default Release flags, abort with a
// diagnostic; NDEBUG builds remain undefined behavior). The engine itself
// may be long-lived and reused across many batches.
class QueryEngine {
 public:
  // Spawns `num_threads` workers (>= 1; 0 is clamped to 1); their index
  // contexts are built by the first Run(). The index must outlive the engine and stay immutable
  // while batches run.
  QueryEngine(const PathIndex& index, size_t num_threads);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Executes the batch and blocks until every query is answered.
  BatchResult Run(std::span<const std::pair<VertexId, VertexId>> queries,
                  const BatchOptions& options = {});

  // Executes `count` generic tasks on the worker pool with the same
  // chunking, stealing, latency/counter recording, and per-query trace
  // stamping as Run(). BatchResult::distances/paths stay empty — the
  // task writes its own outputs (workers touch disjoint indices, so no
  // synchronization is needed beyond the join). collect_paths is
  // ignored. Same no-concurrent-entry contract as Run().
  BatchResult RunTasks(size_t count, const QueryTask& task,
                       const BatchOptions& options = {});

  size_t NumThreads() const { return workers_.size(); }

 private:
  // One worker's claimable segment of the current batch. The cursor is
  // bumped by the owner and by thieves alike; claims past `end` are
  // harmless no-ops.
  struct alignas(64) Segment {
    std::atomic<size_t> cursor{0};
    size_t end = 0;
  };

  // The batch being executed, shared by all workers.
  struct Batch {
    std::span<const std::pair<VertexId, VertexId>> queries;
    // Non-null for RunTasks() batches; `queries` is empty then and the
    // item count lives in the segment table.
    const QueryTask* task = nullptr;
    BatchOptions options;
    size_t chunk_size = 1;
    std::vector<Segment> segments;
    std::atomic<size_t> stolen_chunks{0};
    // Output slots; indexed by query position, so workers never write the
    // same element and no synchronization is needed beyond the join.
    std::vector<Distance>* distances = nullptr;
    std::vector<Path>* paths = nullptr;
    // Per-query trace outputs; non-null only with record_per_query.
    std::vector<uint64_t>* query_start_ns = nullptr;
    std::vector<uint64_t>* query_end_ns = nullptr;
    std::vector<QueryCounters>* query_counters = nullptr;
  };

  struct Worker {
    std::thread thread;
    // Null until the first pair batch; written by RunInternal on the
    // caller's thread before the epoch bump publishes it to the worker.
    std::unique_ptr<QueryContext> context;
    // Per-worker observability sinks: only this worker writes them while
    // a batch runs (lock-free by construction); Run() resets them at
    // batch start and merges them after the join.
    Histogram histogram;
    QueryCounters counters;
  };

  // Worker main loop: wait for a batch epoch, drain it, report done.
  void WorkerLoop(size_t worker_id);

  // Executes chunks of `batch`, own segment first, then stealing.
  void DrainBatch(size_t worker_id, Batch* batch);

  // Runs queries [begin, end) of the batch on this worker's context.
  void RunChunk(size_t worker_id, Batch* batch, size_t begin, size_t end);

  // Shared implementation of Run() and RunTasks(): `count` items, pair
  // queries when `task` is null.
  BatchResult RunInternal(
      std::span<const std::pair<VertexId, VertexId>> queries, size_t count,
      const QueryTask* task, const BatchOptions& options);

  const PathIndex& index_;
  std::vector<Worker> workers_;

  Mutex mu_;
  CondVar work_cv_;   // signals a new batch epoch or stop
  CondVar done_cv_;   // signals workers finishing a batch
  uint64_t epoch_ ROADNET_GUARDED_BY(mu_) = 0;  // bumped once per Run()
  // Workers still draining the batch.
  size_t active_workers_ ROADNET_GUARDED_BY(mu_) = 0;
  Batch* batch_ ROADNET_GUARDED_BY(mu_) = nullptr;
  bool stop_ ROADNET_GUARDED_BY(mu_) = false;
  // Reentrancy guard for Run(); see the class comment.
  std::atomic<bool> run_active_{false};
};

}  // namespace roadnet

#endif  // ROADNET_ENGINE_QUERY_ENGINE_H_
