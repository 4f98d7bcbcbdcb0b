#include "routing/knn.h"

#include <algorithm>

#include "ch/ch_index.h"
#include "dijkstra/dijkstra.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

std::vector<VertexId> RandomPois(const Graph& g, size_t count,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> pois;
  for (size_t i = 0; i < count; ++i) {
    pois.push_back(static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
  }
  return pois;
}

std::vector<Distance> DistancesOf(const std::vector<KnnResult>& r) {
  std::vector<Distance> d;
  for (const KnnResult& x : r) d.push_back(x.dist);
  return d;
}

TEST(Knn, StrategiesAgreeOnDistances) {
  Graph g = TestNetwork(900, 3);
  ChIndex ch(g);
  const auto pois = RandomPois(g, 30, 5);
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    const VertexId q = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    for (size_t k : {size_t{1}, size_t{5}, size_t{30}}) {
      const auto a = KnnByDijkstra(g, pois, q, k);
      const auto b = KnnByIndexScan(&ch, pois, q, k);
      EXPECT_EQ(DistancesOf(a), DistancesOf(b))
          << "q=" << q << " k=" << k;
    }
  }
}

TEST(Knn, MatchesBruteForce) {
  Graph g = TestNetwork(500, 11);
  ChIndex ch(g);
  const auto pois = RandomPois(g, 20, 9);
  Dijkstra dij(g);
  const VertexId q = 42;
  dij.RunAll(q);
  std::vector<Distance> all;
  for (VertexId p : pois) all.push_back(dij.DistanceTo(p));
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());

  const auto top3 = KnnByIndexScan(&ch, pois, q, 3);
  ASSERT_GE(top3.size(), 1u);
  // Results are sorted ascending and within the true distance multiset.
  for (size_t i = 0; i + 1 < top3.size(); ++i) {
    EXPECT_LE(top3[i].dist, top3[i + 1].dist);
  }
  EXPECT_EQ(top3[0].dist, all[0]);
}

TEST(Knn, KLargerThanPoiCount) {
  Graph g = TestNetwork(300, 13);
  ChIndex ch(g);
  const auto pois = RandomPois(g, 4, 3);
  const auto results = KnnByIndexScan(&ch, pois, 0, 100);
  EXPECT_LE(results.size(), 4u);
  EXPECT_GE(results.size(), 1u);
}

TEST(Knn, DuplicatePoisCollapse) {
  Graph g = TestNetwork(300, 17);
  ChIndex ch(g);
  std::vector<VertexId> pois = {7, 7, 7, 9};
  const auto results = KnnByIndexScan(&ch, pois, 0, 4);
  EXPECT_LE(results.size(), 2u);
  const auto results2 = KnnByDijkstra(g, pois, 0, 4);
  EXPECT_EQ(DistancesOf(results), DistancesOf(results2));
}

TEST(Knn, QueryVertexIsPoi) {
  Graph g = TestNetwork(300, 19);
  ChIndex ch(g);
  std::vector<VertexId> pois = {5, 100, 200};
  const auto results = KnnByIndexScan(&ch, pois, 5, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].poi, 5u);
  EXPECT_EQ(results[0].dist, 0u);
}

TEST(Knn, DijkstraVariantStopsEarly) {
  Graph g = TestNetwork(2500, 23);
  const auto pois = RandomPois(g, 50, 31);
  // Settling only 1 nearest POI should explore far less than settling all.
  Dijkstra probe(g);
  probe.RunUntilSettled(0, pois, 1);
  const size_t near_ball = probe.SettledCount();
  probe.RunUntilSettled(0, pois);
  EXPECT_LT(near_ball, probe.SettledCount());
}

TEST(Knn, DijkstraBreaksDistanceTiesByVertexId) {
  // Eight POIs, all 7 away from vertex 0: leaves 1..4 hang off it
  // directly, leaves 5..8 two hops out. Whatever order the heap settles
  // them in, the k nearest are the k lowest ids, as the scan strategy
  // answers.
  GraphBuilder b(13);
  for (VertexId leaf = 1; leaf <= 4; ++leaf) b.AddEdge(0, leaf, 7);
  for (VertexId leaf = 5; leaf <= 8; ++leaf) {
    b.AddEdge(0, leaf + 4, 3);
    b.AddEdge(leaf + 4, leaf, 4);
  }
  const Graph g = std::move(b).Build();
  std::vector<VertexId> pois = {8, 7, 6, 5, 4, 3, 2, 1};
  for (size_t k = 1; k <= pois.size(); ++k) {
    const auto results = KnnByDijkstra(g, pois, 0, k);
    ASSERT_EQ(results.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(results[i].poi, i + 1) << "k=" << k;
      EXPECT_EQ(results[i].dist, 7u);
    }
  }
}

TEST(Knn, DijkstraTieAtTheKthPoiKeepsTheLowerId) {
  // Two POIs equally far (10) from vertex 0; the higher id is one hop
  // away, the lower id three, so a search cut at the first settled POI
  // would keep the higher id.
  GraphBuilder b(5);
  b.AddEdge(0, 4, 10);
  b.AddEdge(0, 2, 2);
  b.AddEdge(2, 3, 3);
  b.AddEdge(3, 1, 5);
  const Graph g = std::move(b).Build();
  for (const std::vector<VertexId>& pois :
       {std::vector<VertexId>{1, 4}, std::vector<VertexId>{4, 1}}) {
    const auto results = KnnByDijkstra(g, pois, 0, 1);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].poi, 1u);
    EXPECT_EQ(results[0].dist, 10u);
  }
}

}  // namespace
}  // namespace roadnet
