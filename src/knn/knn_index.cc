#include "knn/knn_index.h"

#include <algorithm>
#include <cassert>

namespace roadnet {

namespace {

// Result ordering: ascending (distance, vertex id). Within one category
// poi indexes are assigned in ascending vertex order, so comparing
// (dist, poi index) is the same ordering.
inline bool HeapLess(const std::pair<Distance, uint32_t>& a,
                     const std::pair<Distance, uint32_t>& b) {
  return a.first != b.first ? a.first < b.first : a.second < b.second;
}

}  // namespace

KnnBucketIndex::KnnBucketIndex(const ChIndex& ch, const PoiSet& pois)
    : ch_(ch), pois_(pois) {
  const uint32_t n = pois_.NumVertices();
  const uint32_t num_categories = pois_.NumCategories();
  offsets_.resize(num_categories);
  entries_.resize(num_categories);
  std::unique_ptr<QueryContext> ctx = ch_.NewContext();
  // Backward upward search from every POI: the graph is undirected, so
  // the upward space from p holds exact d(p, v) for every settled v.
  // Entries are counting-sorted into a per-rank CSR so a query scans
  // each settled vertex's bucket as one contiguous range, then each
  // bucket is sorted by (dist, poi) so a k-bounded scan can stop at the
  // first entry past the kth-best.
  std::vector<std::pair<uint32_t, BucketEntry>> raw;
  for (uint32_t c = 0; c < num_categories; ++c) {
    const std::span<const VertexId> list = pois_.Vertices(c);
    max_category_size_ = std::max(max_category_size_, list.size());
    raw.clear();
    for (uint32_t i = 0; i < list.size(); ++i) {
      ch_.UpwardSearch(ctx.get(), list[i], [&](uint32_t rank, Distance d) {
        assert(rank < n);
        raw.push_back({rank, BucketEntry{i, d}});
        return true;
      });
    }
    std::vector<uint32_t>& offsets = offsets_[c];
    offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (const auto& [rank, entry] : raw) ++offsets[rank + 1];
    for (uint32_t r = 0; r < n; ++r) offsets[r + 1] += offsets[r];
    std::vector<BucketEntry>& entries = entries_[c];
    entries.resize(raw.size());
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [rank, entry] : raw) entries[cursor[rank]++] = entry;
    for (uint32_t r = 0; r < n; ++r) {
      std::sort(entries.begin() + offsets[r], entries.begin() + offsets[r + 1],
                [](const BucketEntry& a, const BucketEntry& b) {
                  return a.dist != b.dist ? a.dist < b.dist : a.poi < b.poi;
                });
    }
  }
}

KnnBucketIndex::Context KnnBucketIndex::NewContext() const {
  Context ctx;
  ctx.ch_ctx = ch_.NewContext();
  ctx.best.assign(max_category_size_, kInfDistance);
  ctx.heap_pos.assign(max_category_size_, Context::kNotInHeap);
  // The exhaustive join appends every reached POI; sized to the worst
  // case up front so the bucket-scan loop never allocates (R11).
  ctx.touched.reserve(max_category_size_);
  return ctx;
}

void KnnBucketIndex::HeapSiftUp(Context* ctx, size_t slot) const {
  auto& heap = ctx->heap;
  while (slot > 0) {
    const size_t parent = (slot - 1) / 2;
    // Max-heap on (dist, poi): the root is the current kth-best.
    if (!HeapLess(heap[parent], heap[slot])) break;
    std::swap(heap[parent], heap[slot]);
    ctx->heap_pos[heap[parent].second] = static_cast<uint32_t>(parent);
    ctx->heap_pos[heap[slot].second] = static_cast<uint32_t>(slot);
    slot = parent;
  }
}

void KnnBucketIndex::HeapSiftDown(Context* ctx, size_t slot) const {
  auto& heap = ctx->heap;
  const size_t size = heap.size();
  for (;;) {
    size_t largest = slot;
    const size_t left = 2 * slot + 1, right = 2 * slot + 2;
    if (left < size && HeapLess(heap[largest], heap[left])) largest = left;
    if (right < size && HeapLess(heap[largest], heap[right])) {
      largest = right;
    }
    if (largest == slot) break;
    std::swap(heap[largest], heap[slot]);
    ctx->heap_pos[heap[largest].second] = static_cast<uint32_t>(largest);
    ctx->heap_pos[heap[slot].second] = static_cast<uint32_t>(slot);
    slot = largest;
  }
}

void KnnBucketIndex::TryImprove(Context* ctx, uint32_t poi, Distance dist,
                                size_t k) const {
  Distance& best = ctx->best[poi];
  if (best == kInfDistance) {
    ctx->touched.push_back(poi);
  } else if (dist >= best) {
    return;  // not an improvement
  }
  best = dist;
  const uint32_t pos = ctx->heap_pos[poi];
  if (pos != Context::kNotInHeap) {
    // Decrease-key: the entry shrank, so it can only violate the
    // max-heap property against its children.
    ctx->heap[pos].first = dist;
    HeapSiftDown(ctx, pos);
    return;
  }
  if (ctx->heap.size() < k) {
    ctx->heap.push_back({dist, poi});
    ctx->heap_pos[poi] = static_cast<uint32_t>(ctx->heap.size() - 1);
    HeapSiftUp(ctx, ctx->heap.size() - 1);
    return;
  }
  // Full heap: replace the kth-best if this candidate beats it. An
  // evicted POI keeps its best[] value, so a later bucket entry that
  // improves it below the bound re-enters through this same path.
  if (HeapLess({dist, poi}, ctx->heap[0])) {
    ctx->heap_pos[ctx->heap[0].second] = Context::kNotInHeap;
    ctx->heap[0] = {dist, poi};
    ctx->heap_pos[poi] = 0;
    HeapSiftDown(ctx, 0);
  }
}

void KnnBucketIndex::Join(Context* ctx, uint32_t category, VertexId s,
                          size_t bound_k) const {
  ctx->counters.Reset();
  const std::vector<uint32_t>& offsets = offsets_[category];
  const std::vector<BucketEntry>& entries = entries_[category];
  // Streams the upward search: each settled vertex's bucket is scanned
  // the moment it settles, and the k-bounded join ends the search once
  // nothing left can enter the result (see the class comment for why
  // stopping there is exact).
  ch_.UpwardSearch(ctx->ch_ctx.get(), s, [&](uint32_t rank, Distance df) {
    ctx->counters.Settle();
    const uint32_t end = offsets[rank + 1];
    if (bound_k == 0) {
      // Exhaustive one-to-many join: best[] only, no heap, no stop.
      for (uint32_t e = offsets[rank]; e < end; ++e) {
        ctx->counters.TableLookup();
        const Distance total = df + entries[e].dist;
        Distance& best = ctx->best[entries[e].poi];
        if (best == kInfDistance) {
          ctx->touched.push_back(entries[e].poi);
          best = total;
        } else if (total < best) {
          best = total;
        }
      }
      return true;
    }
    // Settle order is nondecreasing in df, so once k results are held a
    // vertex past the kth-best ends the search; within a bucket sorted
    // by dist, the first entry past it ends the scan. Strict > keeps
    // candidates tied with the kth-best, which may still displace it on
    // vertex id.
    if (ctx->heap.size() == bound_k && df > ctx->heap[0].first) return false;
    for (uint32_t e = offsets[rank]; e < end; ++e) {
      ctx->counters.TableLookup();
      const Distance total = df + entries[e].dist;
      if (ctx->heap.size() == bound_k && total > ctx->heap[0].first) break;
      TryImprove(ctx, entries[e].poi, total, bound_k);
    }
    return true;
  });
}

void KnnBucketIndex::KnnQuery(Context* ctx, uint32_t category, VertexId s,
                              size_t k, std::vector<KnnResult>* out) const {
  out->clear();
  if (k == 0) {
    ctx->counters.Reset();
    return;
  }
  Join(ctx, category, s, k);
  const std::span<const VertexId> list = pois_.Vertices(category);
  out->reserve(ctx->heap.size());
  for (const auto& [dist, poi] : ctx->heap) {
    out->push_back({list[poi], dist});
  }
  std::sort(out->begin(), out->end(),
            [](const KnnResult& a, const KnnResult& b) {
              return a.dist != b.dist ? a.dist < b.dist : a.poi < b.poi;
            });
  for (uint32_t poi : ctx->touched) {
    ctx->best[poi] = kInfDistance;
    ctx->heap_pos[poi] = Context::kNotInHeap;
  }
  ctx->touched.clear();
  ctx->heap.clear();
}

void KnnBucketIndex::OneToManyQuery(Context* ctx, uint32_t category,
                                    VertexId s,
                                    std::vector<KnnResult>* out) const {
  out->clear();
  Join(ctx, category, s, /*bound_k=*/0);
  const std::span<const VertexId> list = pois_.Vertices(category);
  out->reserve(ctx->touched.size());
  for (uint32_t poi : ctx->touched) {
    out->push_back({list[poi], ctx->best[poi]});
    ctx->best[poi] = kInfDistance;
  }
  ctx->touched.clear();
  std::sort(out->begin(), out->end(),
            [](const KnnResult& a, const KnnResult& b) {
              return a.dist != b.dist ? a.dist < b.dist : a.poi < b.poi;
            });
}

size_t KnnBucketIndex::IndexBytes() const {
  size_t bytes = 0;
  for (const auto& offsets : offsets_) {
    bytes += offsets.size() * sizeof(uint32_t);
  }
  for (const auto& entries : entries_) {
    bytes += entries.size() * sizeof(BucketEntry);
  }
  return bytes;
}

size_t KnnBucketIndex::NumBucketEntries() const {
  size_t total = 0;
  for (const auto& entries : entries_) total += entries.size();
  return total;
}

}  // namespace roadnet
