#include "dijkstra/dijkstra.h"

#include <algorithm>

namespace roadnet {

Dijkstra::Dijkstra(const Graph& g)
    : graph_(g),
      heap_(g.NumVertices()),
      dist_(g.NumVertices(), 0),
      parent_(g.NumVertices(), kInvalidVertex),
      first_hop_(g.NumVertices(), kInvalidVertex),
      reached_(g.NumVertices(), 0),
      settled_(g.NumVertices(), 0) {}

void Dijkstra::Start(VertexId s) {
  ++generation_;
  heap_.Clear();
  counters_.Reset();
  source_ = s;
  dist_[s] = 0;
  parent_[s] = kInvalidVertex;
  first_hop_[s] = kInvalidVertex;
  reached_[s] = generation_;
  heap_.Push(s, 0);
  counters_.HeapPush();
}

VertexId Dijkstra::SettleNext(bool track_first_hop) {
  VertexId u = heap_.PopMin();
  counters_.HeapPop();
  settled_[u] = generation_;
  counters_.Settle();
  const Distance du = dist_[u];
  for (const Arc& a : graph_.Neighbors(u)) {
    counters_.RelaxEdge();
    const Distance cand = du + a.weight;
    if (reached_[a.to] != generation_) {
      reached_[a.to] = generation_;
      dist_[a.to] = cand;
      parent_[a.to] = u;
      if (track_first_hop) first_hop_[a.to] = (u == source_) ? a.to : first_hop_[u];
      heap_.Push(a.to, cand);
      counters_.HeapPush();
    } else if (cand < dist_[a.to] && settled_[a.to] != generation_) {
      dist_[a.to] = cand;
      parent_[a.to] = u;
      if (track_first_hop) first_hop_[a.to] = (u == source_) ? a.to : first_hop_[u];
      heap_.DecreaseKey(a.to, cand);
      counters_.HeapPush();
    }
  }
  return u;
}

Distance Dijkstra::Run(VertexId s, VertexId t) {
  Start(s);
  while (!heap_.Empty()) {
    if (SettleNext(/*track_first_hop=*/false) == t) return dist_[t];
  }
  return kInfDistance;
}

void Dijkstra::RunAll(VertexId s) {
  Start(s);
  while (!heap_.Empty()) SettleNext(/*track_first_hop=*/false);
}

void Dijkstra::RunAllWithFirstHop(VertexId s) {
  Start(s);
  while (!heap_.Empty()) SettleNext(/*track_first_hop=*/true);
}

void Dijkstra::RunUntilSettled(VertexId s,
                               const std::vector<VertexId>& targets,
                               size_t stop_after) {
  Start(s);
  if (target_mark_.size() < graph_.NumVertices()) {
    target_mark_.assign(graph_.NumVertices(), 0);
  }
  ++target_generation_;
  size_t distinct = 0;
  for (VertexId t : targets) {
    if (target_mark_[t] != target_generation_) {
      target_mark_[t] = target_generation_;
      ++distinct;
    }
  }
  size_t remaining = std::min(distinct, stop_after);
  Distance last = 0;  // distance of the most recently settled target
  while (!heap_.Empty() && remaining > 0) {
    VertexId u = SettleNext(/*track_first_hop=*/false);
    if (target_mark_[u] == target_generation_) {
      target_mark_[u] = target_generation_ - 1;  // count each target once
      last = dist_[u];
      --remaining;
    }
  }
  // Settle order among equal keys is the heap's, not the caller's: a
  // target tied with the last one may still be queued.
  if (stop_after < distinct && remaining == 0) {
    while (!heap_.Empty() && heap_.MinKey() <= last) {
      SettleNext(/*track_first_hop=*/false);
    }
  }
}

Path Dijkstra::PathTo(VertexId v) const {
  if (!Reached(v)) return {};
  Path path;
  for (VertexId cur = v; cur != kInvalidVertex; cur = parent_[cur]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace roadnet
