#ifndef ROADNET_DIJKSTRA_DIJKSTRA_H_
#define ROADNET_DIJKSTRA_DIJKSTRA_H_

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "obs/query_counters.h"
#include "pq/indexed_heap.h"
#include "routing/path.h"

namespace roadnet {

// Reusable unidirectional Dijkstra engine (Dijkstra 1959, the paper's
// classic solution). One instance owns scratch arrays sized by the graph,
// amortized across queries via generation counters, so each run allocates
// nothing. Besides the one-to-one query it exposes the restricted modes
// the preprocessing steps of CH, TNR, SILC, and PCPD need: full SSSP,
// run-until-targets-settled, and first-hop tracking.
class Dijkstra {
 public:
  explicit Dijkstra(const Graph& g);

  // One-to-one: distance from s to t (kInfDistance if unreachable),
  // stopping as soon as t is settled.
  Distance Run(VertexId s, VertexId t);

  // Full single-source search settling every reachable vertex.
  void RunAll(VertexId s);

  // Like RunAll, but additionally records the first hop (the neighbour of
  // s that begins the shortest path) of every settled vertex, which is the
  // per-source colouring SILC compresses (Section 3.4).
  void RunAllWithFirstHop(VertexId s);

  // Runs from s until `stop_after` distinct vertices of `targets` are
  // settled (default: all of them), or the graph is exhausted. When it
  // stops early (stop_after below the number of distinct targets), it
  // keeps settling until every vertex as close as the stop_after-th
  // target is settled too, so targets tied with it are all in. Used by
  // TNR access-node computation and the kNN utilities.
  void RunUntilSettled(VertexId s, const std::vector<VertexId>& targets,
                       size_t stop_after = SIZE_MAX);

  // --- Results of the most recent run ---

  // Tentative or settled distance of v (kInfDistance if never reached).
  Distance DistanceTo(VertexId v) const {
    return Reached(v) ? dist_[v] : kInfDistance;
  }

  bool Settled(VertexId v) const {
    return Reached(v) && settled_[v] == generation_;
  }

  // Predecessor of v on the shortest-path tree (kInvalidVertex for the
  // source or unreached vertices).
  VertexId ParentOf(VertexId v) const {
    return Reached(v) ? parent_[v] : kInvalidVertex;
  }

  // First hop from the source toward v; requires RunAllWithFirstHop.
  // Returns v == source ? kInvalidVertex : the neighbour of the source.
  VertexId FirstHopOf(VertexId v) const {
    return Reached(v) ? first_hop_[v] : kInvalidVertex;
  }

  // Reconstructs the path source..v from the parent tree (empty if
  // unreached).
  Path PathTo(VertexId v) const;

  // Number of vertices settled by the most recent run (the paper's
  // intuition for why bidirectional search wins).
  size_t SettledCount() const { return counters_.vertices_settled; }

  // Full operation counts of the most recent run.
  const QueryCounters& Counters() const { return counters_; }

 private:
  bool Reached(VertexId v) const { return reached_[v] == generation_; }

  void Start(VertexId s);
  // Settles the minimum vertex and relaxes its arcs. Returns the vertex.
  VertexId SettleNext(bool track_first_hop);

  const Graph& graph_;
  IndexedHeap<Distance> heap_;
  std::vector<Distance> dist_;
  std::vector<VertexId> parent_;
  std::vector<VertexId> first_hop_;
  std::vector<uint32_t> reached_;
  std::vector<uint32_t> settled_;
  std::vector<uint32_t> target_mark_;
  uint32_t generation_ = 0;
  uint32_t target_generation_ = 0;
  QueryCounters counters_;
  VertexId source_ = kInvalidVertex;
};

}  // namespace roadnet

#endif  // ROADNET_DIJKSTRA_DIJKSTRA_H_
