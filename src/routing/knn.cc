#include "routing/knn.h"

#include <algorithm>

#include "dijkstra/dijkstra.h"

namespace roadnet {

namespace {

// Deterministic result ordering: by distance, then by vertex id.
void SortResults(std::vector<KnnResult>* results) {
  std::sort(results->begin(), results->end(),
            [](const KnnResult& a, const KnnResult& b) {
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.poi < b.poi;
            });
}

}  // namespace

std::vector<KnnResult> KnnByDijkstra(const Graph& g,
                                     const std::vector<VertexId>& pois,
                                     VertexId query, size_t k) {
  // Expanding search until k distinct POIs settle (or the component is
  // exhausted), then on through every POI tied with the k-th: the heap
  // settles equal distances in no particular id order, so cutting at the
  // k-th settled POI could keep a higher id over a tied lower one. The
  // sort below then resolves ties by vertex id, matching the scan
  // strategy exactly.
  std::vector<KnnResult> results;
  Dijkstra dijkstra(g);
  dijkstra.RunUntilSettled(query, pois, k);
  for (VertexId p : pois) {
    if (dijkstra.Settled(p)) {
      results.push_back(KnnResult{p, dijkstra.DistanceTo(p)});
    }
  }
  SortResults(&results);
  // Drop duplicates (a POI listed twice is one answer).
  results.erase(std::unique(results.begin(), results.end()), results.end());
  if (results.size() > k) results.resize(k);
  return results;
}

std::vector<KnnResult> KnnByIndexScan(PathIndex* index,
                                      const std::vector<VertexId>& pois,
                                      VertexId query, size_t k) {
  std::vector<KnnResult> results;
  results.reserve(pois.size());
  for (VertexId p : pois) {
    const Distance d = index->DistanceQuery(query, p);
    if (d != kInfDistance) results.push_back(KnnResult{p, d});
  }
  SortResults(&results);
  results.erase(std::unique(results.begin(), results.end()), results.end());
  if (results.size() > k) results.resize(k);
  return results;
}

}  // namespace roadnet
