#include "engine/query_engine.h"

#include <algorithm>
#include <cassert>

#include "util/timer.h"

namespace roadnet {

QueryEngine::QueryEngine(const PathIndex& index, size_t num_threads)
    : index_(index) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(
        Worker{std::thread(), nullptr, Histogram(), QueryCounters()});
  }
  // Threads start only after every worker slot exists, so WorkerLoop
  // never observes a partially built pool.
  for (size_t i = 0; i < n; ++i) {
    workers_[i].thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

QueryEngine::~QueryEngine() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (Worker& w : workers_) w.thread.join();
}

void QueryEngine::WorkerLoop(size_t worker_id) {
  uint64_t seen_epoch = 0;
  while (true) {
    Batch* batch = nullptr;
    {
      MutexLock lock(mu_);
      while (!stop_ && epoch_ == seen_epoch) work_cv_.Wait(lock);
      if (stop_) return;
      seen_epoch = epoch_;
      batch = batch_;
    }
    DrainBatch(worker_id, batch);
    {
      MutexLock lock(mu_);
      if (--active_workers_ == 0) done_cv_.NotifyAll();
    }
  }
}

void QueryEngine::RunChunk(size_t worker_id, Batch* batch, size_t begin,
                           size_t end) {
  Worker& worker = workers_[worker_id];
  QueryContext* ctx = worker.context.get();
  const bool timed = batch->options.record_latencies;
  const bool counted = batch->options.record_counters;
  const bool traced = batch->query_start_ns != nullptr;
  const auto trace_epoch = batch->options.trace_epoch;
  for (size_t i = begin; i < end; ++i) {
    if (traced) {
      (*batch->query_start_ns)[i] = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - trace_epoch)
              .count());
    }
    Timer timer;
    if (batch->task != nullptr) {
      QueryCounters task_counters;
      (*batch->task)(worker_id, i, &task_counters);
      if (counted) worker.counters += task_counters;
      if (traced) (*batch->query_counters)[i] = task_counters;
    } else {
      const auto [s, t] = batch->queries[i];
      (*batch->distances)[i] = index_.DistanceQuery(ctx, s, t);
      if (counted) worker.counters += ctx->counters;
      if (traced) (*batch->query_counters)[i] = ctx->counters;
      if (batch->paths != nullptr) {
        // A path batch answers both query types (Section 2's two
        // queries); the reported latency covers the pair.
        (*batch->paths)[i] = index_.PathQuery(ctx, s, t);
        if (counted) worker.counters += ctx->counters;
        if (traced) (*batch->query_counters)[i] += ctx->counters;
      }
    }
    if (timed) worker.histogram.Record(timer.ElapsedNanos());
    if (traced) {
      (*batch->query_end_ns)[i] = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - trace_epoch)
              .count());
    }
  }
}

void QueryEngine::DrainBatch(size_t worker_id, Batch* batch) {
  const size_t chunk = batch->chunk_size;
  const size_t num_segments = batch->segments.size();
  // Own segment first (cache-friendly contiguous claims), then sweep the
  // other segments for leftover chunks.
  for (size_t offset = 0; offset < num_segments; ++offset) {
    const size_t victim = (worker_id + offset) % num_segments;
    Segment& seg = batch->segments[victim];
    while (true) {
      const size_t begin = seg.cursor.fetch_add(chunk);
      if (begin >= seg.end) break;
      const size_t end = std::min(begin + chunk, seg.end);
      if (offset != 0) {
        batch->stolen_chunks.fetch_add(1, std::memory_order_relaxed);
      }
      RunChunk(worker_id, batch, begin, end);
    }
  }
}

BatchResult QueryEngine::Run(
    std::span<const std::pair<VertexId, VertexId>> queries,
    const BatchOptions& options) {
  return RunInternal(queries, queries.size(), nullptr, options);
}

BatchResult QueryEngine::RunTasks(size_t count, const QueryTask& task,
                                  const BatchOptions& options) {
  return RunInternal({}, count, &task, options);
}

BatchResult QueryEngine::RunInternal(
    std::span<const std::pair<VertexId, VertexId>> queries, size_t count,
    const QueryTask* task, const BatchOptions& options) {
  // Loud failure on the classic misuse: Run() from two threads at once
  // would hand the same worker contexts to overlapping batches.
  const bool already_running = run_active_.exchange(true);
  assert(!already_running &&
         "QueryEngine::Run() entered concurrently from two threads");
  (void)already_running;

  BatchResult result;
  if (task == nullptr) {
    result.distances.assign(count, kInfDistance);
    if (options.collect_paths) result.paths.resize(count);
  }
  if (options.record_per_query) {
    result.query_start_ns.assign(count, 0);
    result.query_end_ns.assign(count, 0);
    result.query_counters.assign(count, QueryCounters{});
  }

  // Reset the per-worker sinks before workers see the new epoch, and
  // build missing index contexts here, on the caller's thread: the epoch
  // handshake below publishes them, and a task-only engine (a CH/HL
  // server's kNN pool) never pays their O(n) scratch.
  for (Worker& w : workers_) {
    w.histogram.Reset();
    w.counters.Reset();
    if (task == nullptr && w.context == nullptr) {
      w.context = index_.NewContext();
    }
  }

  Batch batch;
  batch.queries = queries;
  batch.task = task;
  batch.options = options;
  batch.distances = &result.distances;
  batch.paths =
      (task == nullptr && options.collect_paths) ? &result.paths : nullptr;
  if (options.record_per_query) {
    batch.query_start_ns = &result.query_start_ns;
    batch.query_end_ns = &result.query_end_ns;
    batch.query_counters = &result.query_counters;
  }

  // Chunk size: aim for several claims per worker so stealing has
  // something to steal, without making the atomic traffic measurable.
  const size_t num_workers = workers_.size();
  batch.chunk_size =
      options.chunk_size > 0
          ? options.chunk_size
          : std::clamp<size_t>(count / (num_workers * 8), 1, 64);

  // Static split into equal contiguous segments, one per worker.
  batch.segments = std::vector<Segment>(num_workers);
  const size_t per_worker = count / num_workers;
  const size_t remainder = count % num_workers;
  size_t pos = 0;
  for (size_t i = 0; i < num_workers; ++i) {
    const size_t len = per_worker + (i < remainder ? 1 : 0);
    batch.segments[i].cursor.store(pos, std::memory_order_relaxed);
    batch.segments[i].end = pos + len;
    pos += len;
  }

  Timer wall;
  {
    MutexLock lock(mu_);
    batch_ = &batch;
    active_workers_ = num_workers;
    ++epoch_;
  }
  work_cv_.NotifyAll();
  {
    MutexLock lock(mu_);
    while (active_workers_ != 0) done_cv_.Wait(lock);
    batch_ = nullptr;
  }

  BatchStats& stats = result.stats;
  stats.num_queries = count;
  stats.num_threads = num_workers;
  stats.chunk_size = batch.chunk_size;
  stats.stolen_chunks = batch.stolen_chunks.load();
  stats.wall_seconds = wall.ElapsedSeconds();
  stats.queries_per_second =
      stats.wall_seconds > 0 ? count / stats.wall_seconds : 0;

  // Merge the per-worker sinks: histograms add element-wise, so the
  // result is identical to one thread having recorded every query.
  for (const Worker& w : workers_) {
    if (options.record_latencies) result.latency.Merge(w.histogram);
    if (options.record_counters) stats.counters += w.counters;
  }
  if (options.record_latencies && result.latency.Count() > 0) {
    constexpr double kNanosToMicros = 1e-3;
    stats.p50_micros = result.latency.ValueAtQuantile(0.50) * kNanosToMicros;
    stats.p90_micros = result.latency.ValueAtQuantile(0.90) * kNanosToMicros;
    stats.p99_micros = result.latency.ValueAtQuantile(0.99) * kNanosToMicros;
    stats.p999_micros =
        result.latency.ValueAtQuantile(0.999) * kNanosToMicros;
    stats.max_micros = result.latency.Max() * kNanosToMicros;
  }
  run_active_.store(false);
  return result;
}

}  // namespace roadnet
