#include "routing/knn.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include "ch/ch_index.h"
#include "dijkstra/dijkstra.h"
#include "knn/knn_index.h"
#include "poi/poi_set.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {

// Readable failure output for result lists (gtest would dump the bytes).
void PrintTo(const KnnResult& r, std::ostream* os) {
  *os << "{poi " << r.poi << ", dist " << r.dist << "}";
}

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

// --- Bucket-CH kNN: the k-bounded early stop must not change answers ---
//
// KnnBucketIndex stops its upward search at the first settled vertex
// past the kth-best distance and cuts each (distance-sorted) bucket scan
// at the first entry past it. These tests aim at the places such a stop
// can go wrong: ties at the cut, k around the category size, POIs the
// search never reaches, and whether the stop happens at all.

// A w x w grid of unit-weight edges: distances tie everywhere, so the
// k-th and (k+1)-th nearest POIs are often equally far.
Graph UnitGrid(uint32_t w) {
  GraphBuilder b(w * w);
  for (uint32_t r = 0; r < w; ++r) {
    for (uint32_t c = 0; c < w; ++c) {
      const VertexId v = r * w + c;
      b.SetCoord(v, Point{static_cast<int32_t>(c), static_cast<int32_t>(r)});
      if (c + 1 < w) b.AddEdge(v, v + 1, 1);
      if (r + 1 < w) b.AddEdge(v, v + w, 1);
    }
  }
  return std::move(b).Build();
}

PoiSet PlacePois(const Graph& g, std::vector<PoiCategorySpec> categories,
                 uint64_t seed) {
  PoiConfig config;
  config.categories = std::move(categories);
  config.seed = seed;
  return PoiSet::Generate(g, config);
}

std::vector<VertexId> CategoryVector(const PoiSet& pois, uint32_t c) {
  const auto span = pois.Vertices(c);
  return {span.begin(), span.end()};
}

// The vertices whose bucket carries p's exact distance from s: the
// common vertices of both upward search spaces minimizing d_f + d_b.
std::set<VertexId> Apexes(const ChIndex& ch, QueryContext* ctx, VertexId s,
                          VertexId p) {
  std::vector<std::pair<VertexId, Distance>> space;
  ch.UpwardSearchSpace(ctx, s, &space);
  const std::map<VertexId, Distance> forward(space.begin(), space.end());
  ch.UpwardSearchSpace(ctx, p, &space);
  Distance best = kInfDistance;
  std::set<VertexId> apexes;
  for (const auto& [v, db] : space) {
    const auto it = forward.find(v);
    if (it == forward.end()) continue;
    const Distance total = it->second + db;
    if (total < best) {
      best = total;
      apexes.clear();
    }
    if (total == best) apexes.insert(v);
  }
  return apexes;
}

TEST(BucketKnn, TiesAtTheKthDistanceBreakByVertexIdAcrossBuckets) {
  const Graph g = UnitGrid(12);
  const ChIndex ch(g);
  const PoiSet pois = PlacePois(g, {{"all", 1.0}, {"some", 0.15}}, 3);
  const KnnBucketIndex bucket(ch, pois);
  KnnBucketIndex::Context ctx = bucket.NewContext();
  std::unique_ptr<QueryContext> ch_ctx = ch.NewContext();
  std::vector<KnnResult> out, all;
  size_t ties_at_kth = 0, ties_across_buckets = 0;
  for (uint32_t c = 0; c < pois.NumCategories(); ++c) {
    const std::vector<VertexId> cat = CategoryVector(pois, c);
    for (VertexId s = 0; s < g.NumVertices(); s += 5) {
      bucket.OneToManyQuery(&ctx, c, s, &all);
      for (size_t k = 1; k < all.size(); k += 3) {
        bucket.KnnQuery(&ctx, c, s, k, &out);
        ASSERT_EQ(out, KnnByDijkstra(g, cat, s, k))
            << "category " << c << " s=" << s << " k=" << k;
        // A tie at the cut: the first POI left out is as far as the
        // last one kept, so only the vertex id decides.
        if (all[k].dist != all[k - 1].dist) continue;
        ++ties_at_kth;
        const std::set<VertexId> kept = Apexes(ch, ch_ctx.get(), s,
                                               all[k - 1].poi);
        const std::set<VertexId> left = Apexes(ch, ch_ctx.get(), s,
                                               all[k].poi);
        if (std::none_of(kept.begin(), kept.end(), [&](VertexId v) {
              return left.count(v) > 0;
            })) {
          ++ties_across_buckets;
        }
      }
    }
  }
  // The sweep must actually exercise the case it is named for.
  EXPECT_GT(ties_at_kth, 100u);
  EXPECT_GT(ties_across_buckets, 10u);
}

TEST(BucketKnn, KAroundTheCategorySizeMatchesTheOracle) {
  const Graph g = TestNetwork(900, 41);
  const ChIndex ch(g);
  const PoiSet pois =
      PlacePois(g, {{"dense", 0.05}, {"sparse", 0.01}, {"pair", 0.0023}}, 43);
  const KnnBucketIndex bucket(ch, pois);
  KnnBucketIndex::Context ctx = bucket.NewContext();
  std::vector<KnnResult> out, all;
  Rng rng(47);
  for (uint32_t c = 0; c < pois.NumCategories(); ++c) {
    const std::vector<VertexId> cat = CategoryVector(pois, c);
    ASSERT_GE(cat.size(), 2u);
    for (int i = 0; i < 40; ++i) {
      const auto s = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      bucket.OneToManyQuery(&ctx, c, s, &all);
      for (size_t k : {size_t{1}, cat.size() - 1, cat.size(), cat.size() + 5}) {
        bucket.KnnQuery(&ctx, c, s, k, &out);
        ASSERT_EQ(out, KnnByDijkstra(g, cat, s, k))
            << "category " << c << " s=" << s << " k=" << k;
        if (k >= cat.size()) {
          EXPECT_EQ(out, all) << "s=" << s << " k=" << k;
        }
      }
    }
  }
}

TEST(BucketKnn, PoisInAnotherComponentAreNeverReported) {
  // Two components: a weighted path 0-1-2-3-4 and a triangle 5-6-7.
  // Every vertex is a POI, so from the path only its five are reachable.
  GraphBuilder b(8);
  b.AddEdge(0, 1, 4);
  b.AddEdge(1, 2, 1);
  b.AddEdge(2, 3, 2);
  b.AddEdge(3, 4, 1);
  b.AddEdge(5, 6, 1);
  b.AddEdge(6, 7, 1);
  b.AddEdge(5, 7, 1);
  const Graph g = std::move(b).Build();
  const ChIndex ch(g);
  const PoiSet pois = PlacePois(g, {{"all", 1.0}}, 5);
  const std::vector<VertexId> cat = CategoryVector(pois, 0);
  ASSERT_EQ(cat.size(), 8u);
  const KnnBucketIndex bucket(ch, pois);
  KnnBucketIndex::Context ctx = bucket.NewContext();
  std::vector<KnnResult> out;
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    const size_t reachable = s < 5 ? 5 : 3;
    for (size_t k = 1; k <= cat.size() + 5; ++k) {
      bucket.KnnQuery(&ctx, 0, s, k, &out);
      ASSERT_EQ(out, KnnByDijkstra(g, cat, s, k)) << "s=" << s << " k=" << k;
      EXPECT_EQ(out.size(), std::min(k, reachable));
      for (const KnnResult& r : out) EXPECT_EQ(r.poi < 5, s < 5);
    }
    bucket.OneToManyQuery(&ctx, 0, s, &out);
    EXPECT_EQ(out.size(), reachable);
  }
}

TEST(BucketKnn, NearestNeighbourStopsBeforeTheWholeSearchSpace) {
  // Without the early stop a k-bounded query settles exactly the search
  // space one-to-many settles; with it, k = 1 must settle strictly fewer.
  const Graph g = TestNetwork(2000, 53);
  const ChIndex ch(g);
  const PoiSet pois = PlacePois(g, {{"dense", 0.05}}, 59);
  const std::vector<VertexId> cat = CategoryVector(pois, 0);
  const KnnBucketIndex bucket(ch, pois);
  KnnBucketIndex::Context ctx = bucket.NewContext();
  std::vector<KnnResult> out;
  // Sources that are POIs themselves (the answer is at distance 0) and
  // arbitrary vertices.
  std::vector<VertexId> sources(cat.begin(), cat.begin() + 10);
  Rng rng(61);
  for (int i = 0; i < 30; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
  }
  for (VertexId s : sources) {
    bucket.OneToManyQuery(&ctx, 0, s, &out);
    const QueryCounters full = ctx.counters;
    bucket.KnnQuery(&ctx, 0, s, 1, &out);
    ASSERT_EQ(out, KnnByDijkstra(g, cat, s, 1)) << "s=" << s;
    EXPECT_LT(ctx.counters.vertices_settled, full.vertices_settled)
        << "s=" << s;
    EXPECT_LE(ctx.counters.table_lookups, full.table_lookups) << "s=" << s;
  }
}

}  // namespace
}  // namespace roadnet
