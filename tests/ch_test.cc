#include "ch/ch_index.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ch/contraction.h"
#include "ch/many_to_many.h"
#include "dijkstra/dijkstra.h"
#include "graph/generator.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(Contraction, PaperFigure1ProducesValidShortcuts) {
  Graph g = PaperFigure1Graph();
  ChConfig config;
  ContractionResult result = ContractGraph(g, config);
  ASSERT_EQ(result.rank.size(), 8u);
  // All ranks distinct.
  std::vector<bool> seen(8, false);
  for (uint32_t r : result.rank) {
    ASSERT_LT(r, 8u);
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
  // Every shortcut's weight equals the true distance between its endpoints
  // (Section 3.2: w(c) = dist(vj, vk)).
  Dijkstra dij(g);
  for (const TaggedEdge& e : result.edges) {
    if (e.middle == kInvalidVertex) continue;
    EXPECT_EQ(dij.Run(e.u, e.v), e.weight)
        << "shortcut (" << e.u << "," << e.v << ")";
  }
}

TEST(ChIndex, PaperFigure1Distances) {
  Graph g = PaperFigure1Graph();
  ChIndex ch(g);
  // The paper's walkthrough: the CH query for (v3, v7) meets at v8 and
  // returns dist = 6 (v3-v1-v8 = 2 plus v8-v6-v5-v7 = 4).
  EXPECT_EQ(ch.DistanceQuery(2, 6), 6u);
  Dijkstra dij(g);
  for (VertexId s = 0; s < 8; ++s) {
    for (VertexId t = 0; t < 8; ++t) {
      EXPECT_EQ(ch.DistanceQuery(s, t), dij.Run(s, t))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(ChIndex, CorrectOnSyntheticNetworks) {
  Graph g = TestNetwork(600, 7);
  ChIndex ch(g);
  ExpectIndexCorrect(g, &ch, 200, 11);
}

TEST(ChIndex, CorrectWithoutStallOnDemand) {
  Graph g = TestNetwork(600, 7);
  ChConfig config;
  config.stall_on_demand = false;
  ChIndex ch(g, config);
  EXPECT_FALSE(ch.StallOnDemand());
  ExpectIndexCorrect(g, &ch, 200, 13);
}

TEST(ChIndex, SelfQuery) {
  Graph g = TestNetwork(200, 3);
  ChIndex ch(g);
  EXPECT_EQ(ch.DistanceQuery(5, 5), 0u);
  Path p = ch.PathQuery(5, 5);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 5u);
}

TEST(ChIndex, AllOrderingHeuristicsAreCorrect) {
  Graph g = TestNetwork(400, 21);
  for (OrderingHeuristic h :
       {OrderingHeuristic::kEdgeDifferenceDeleted,
        OrderingHeuristic::kEdgeDifference, OrderingHeuristic::kDegree,
        OrderingHeuristic::kRandom}) {
    ChConfig config;
    config.heuristic = h;
    ChIndex ch(g, config);
    ExpectIndexCorrect(g, &ch, 100, 17);
  }
}

TEST(ChIndex, GoodOrderingBeatsRandomOnShortcuts) {
  Graph g = TestNetwork(1200, 5);
  ChConfig good;
  ChConfig bad;
  bad.heuristic = OrderingHeuristic::kRandom;
  ChIndex ch_good(g, good);
  ChIndex ch_bad(g, bad);
  // The paper notes an inferior ordering can produce drastically more
  // shortcuts; edge-difference ordering must do no worse than random.
  EXPECT_LE(ch_good.NumShortcuts(), ch_bad.NumShortcuts());
}

TEST(ManyToMany, MatchesPairwiseDijkstra) {
  Graph g = TestNetwork(300, 9);
  ChIndex ch(g);
  Rng rng(42);
  std::vector<VertexId> sources, targets;
  for (int i = 0; i < 12; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
    targets.push_back(static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
  }
  std::vector<Distance> table = ManyToManyDistances(&ch, sources, targets);
  Dijkstra dij(g);
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      EXPECT_EQ(table[i * targets.size() + j],
                dij.Run(sources[i], targets[j]))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(ManyToMany, EmptyInputs) {
  Graph g = TestNetwork(100, 1);
  ChIndex ch(g);
  EXPECT_TRUE(ManyToManyDistances(&ch, {}, {1, 2}).empty());
  EXPECT_TRUE(ManyToManyDistances(&ch, {1}, {}).empty());
}

// The HL build, many-to-many and the kNN bucket build consume
// UpwardSearchSpace's exact output, so moving its loop behind the
// UpwardSearch visitor must not change it. The digest pins every
// (vertex, distance) pair in settle order, from every source of a fixed
// network, to what the dedicated loop produced before the move.
TEST(ChIndex, UpwardSearchSpaceOutputIsUnchanged) {
  const Graph g = TestNetwork(400, 71);
  const ChIndex ch(g);
  std::unique_ptr<QueryContext> ctx = ch.NewContext();
  std::vector<std::pair<VertexId, Distance>> space;
  uint64_t digest = 1469598103934665603ull;  // FNV-1a over 32-bit words
  auto mix = [&digest](uint32_t word) {
    digest = (digest ^ word) * 1099511628211ull;
  };
  size_t total = 0;
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    ch.UpwardSearchSpace(ctx.get(), s, &space);
    ASSERT_FALSE(space.empty());
    EXPECT_EQ(space.front(), (std::pair<VertexId, Distance>{s, 0}));
    for (size_t i = 1; i < space.size(); ++i) {
      ASSERT_LE(space[i - 1].second, space[i].second) << "s=" << s;
    }
    for (const auto& [v, d] : space) {
      mix(v);
      mix(static_cast<uint32_t>(d));
    }
    total += space.size();
  }
  EXPECT_EQ(total, size_t{8855});
  EXPECT_EQ(digest, uint64_t{6687046746000060426u});
}

// A visitor that returns false ends the search at that vertex: what it
// saw is exactly the matching prefix of the full search space.
TEST(ChIndex, UpwardSearchStopsWhereTheVisitorSays) {
  const Graph g = TestNetwork(300, 73);
  const ChIndex ch(g);
  std::unique_ptr<QueryContext> ctx = ch.NewContext();
  std::vector<std::pair<VertexId, Distance>> space, seen;
  for (VertexId s = 0; s < g.NumVertices(); s += 7) {
    ch.UpwardSearchSpace(ctx.get(), s, &space);
    for (size_t stop = 1; stop <= space.size(); ++stop) {
      seen.clear();
      ch.UpwardSearch(ctx.get(), s, [&](uint32_t rank, Distance d) {
        seen.emplace_back(ch.VertexAtRank(rank), d);
        return seen.size() < stop;
      });
      const std::vector<std::pair<VertexId, Distance>> prefix(
          space.begin(), space.begin() + stop);
      ASSERT_EQ(seen, prefix) << "s=" << s << " stop=" << stop;
    }
  }
}

}  // namespace
}  // namespace roadnet
