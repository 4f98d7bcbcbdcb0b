#ifndef ROADNET_KNN_KNN_INDEX_H_
#define ROADNET_KNN_KNN_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ch/ch_index.h"
#include "graph/types.h"
#include "obs/query_counters.h"
#include "poi/poi_set.h"
#include "routing/knn.h"

namespace roadnet {

// Bucket-based CH kNN (the many-to-many bucket construction of Knopp et
// al. turned into a one-to-many/kNN index; see DESIGN.md "kNN &
// one-to-many").
//
// Preprocessing runs one backward upward search from every POI of every
// category and records, for each settled vertex (in rank space), a
// bucket entry (poi, distance-to-poi); each bucket is sorted by
// (distance, poi). The graph is undirected, so one upward search space
// serves both directions. A query streams one forward upward search from
// the source and scans each vertex's bucket as the vertex settles:
// d_f + bucket distance is an upper bound on the network distance to
// that POI, and the minimum over all common settled vertices is exact
// (the CH search-space property: the apex v of a shortest s-p path is in
// both spaces with exact upward distances).
//
// kNN keeps a bounded k-max-heap with decrease-key over the candidate
// POIs. Once it holds k results it stops the search at the first settled
// vertex with d_f > kth-best, and stops a bucket scan at the first entry
// with d_f + dist > kth-best. This is exact: the kth-best only shrinks,
// and a POI p that belongs in the answer, at true distance D <= the final
// kth-best, has its apex at d_f <= D — settled before the stop, with
// p's entry in its bucket at d_f + dist = D, before the scan's cut. So
// every reported distance is exact, and any POI that could displace the
// kth-best was seen. Both cuts are strict, so a POI tied with the
// kth-best still competes on vertex id. Ties break ascending on vertex
// id everywhere, so results are deterministic and comparable
// bit-for-bit against the Dijkstra oracle. One-to-many runs the same
// streaming join without a bound and never stops.
//
// Immutable after construction (lint R2); every query runs on a
// caller-owned Context (R3), so one index serves any number of threads.
class KnnBucketIndex {
 public:
  // Per-thread query scratch: the CH context of the forward search plus
  // the join state, sized once for the largest category.
  class Context {
   public:
    Context() = default;
    Context(Context&&) = default;
    Context& operator=(Context&&) = default;

    // Operation counts of the most recent query on this context:
    // settled = vertices the forward upward search settled (up to and
    // including the one that stopped it), table_lookups = bucket entries
    // read (including the one that cut a scan). Reset on query entry,
    // like every QueryContext.
    QueryCounters counters;

   private:
    friend class KnnBucketIndex;
    static constexpr uint32_t kNotInHeap = 0xFFFFFFFFu;

    std::unique_ptr<QueryContext> ch_ctx;
    // Join state per poi index of the queried category; reset via
    // `touched` so queries stay O(search space), not O(|POIs|).
    std::vector<Distance> best;
    std::vector<uint32_t> touched;
    // Bounded max-heap of the current k best (dist, poi index) pairs,
    // with heap_pos enabling decrease-key when a later bucket entry
    // improves a POI already in the heap.
    std::vector<std::pair<Distance, uint32_t>> heap;
    std::vector<uint32_t> heap_pos;
  };

  // Builds the per-category buckets; runs |POIs| upward searches. Both
  // references must outlive the index, and `pois` must have been placed
  // on the graph `ch` was built from (vertex counts are checked).
  KnnBucketIndex(const ChIndex& ch, const PoiSet& pois);

  Context NewContext() const;

  // The k POIs of `category` nearest to s by network distance, sorted
  // ascending by (distance, vertex id). Fewer than k results when the
  // category is smaller than k or partly unreachable — that is an OK
  // answer, not an error. k == 0 yields an empty result.
  void KnnQuery(Context* ctx, uint32_t category, VertexId s, size_t k,
                std::vector<KnnResult>* out) const;

  // Every reachable POI of `category` with its distance from s, sorted
  // ascending by (distance, vertex id): the batched-ETA primitive,
  // definitionally equal to KnnQuery with k = |category|.
  void OneToManyQuery(Context* ctx, uint32_t category, VertexId s,
                      std::vector<KnnResult>* out) const;

  const PoiSet& Pois() const { return pois_; }
  // Bytes of bucket structures beyond the CH index and the POI set.
  size_t IndexBytes() const;
  // Total bucket entries over all categories (the space/speed knob the
  // bench reports alongside query time).
  size_t NumBucketEntries() const;

 private:
  struct BucketEntry {
    uint32_t poi;   // index into the category's sorted vertex list
    Distance dist;  // exact upward distance from the POI
  };

  // Joins the forward search space of s against category c's buckets,
  // filling ctx->best/touched. With bound_k > 0 the bounded heap stops
  // the search and the bucket scans early; with bound_k == 0 the join is
  // exhaustive (one-to-many).
  void Join(Context* ctx, uint32_t category, VertexId s,
            size_t bound_k) const;
  void TryImprove(Context* ctx, uint32_t poi, Distance dist,
                  size_t k) const;
  void HeapSiftUp(Context* ctx, size_t slot) const;
  void HeapSiftDown(Context* ctx, size_t slot) const;

  const ChIndex& ch_;
  const PoiSet& pois_;
  size_t max_category_size_ = 0;
  // Per category: CSR over contraction ranks into the entry array, each
  // rank's range sorted by (dist, poi). High ranks are the dense shared
  // core every search converges into, so the hot buckets sit in one
  // contiguous stretch.
  std::vector<std::vector<uint32_t>> offsets_;
  std::vector<std::vector<BucketEntry>> entries_;
};

}  // namespace roadnet

#endif  // ROADNET_KNN_KNN_INDEX_H_
