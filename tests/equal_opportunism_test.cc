#include "core/equal_opportunism.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datasets/workloads.h"
#include "graph/dynamic_graph.h"
#include "partition/hub_tally.h"
#include "util/rng.h"

namespace loom {
namespace core {
namespace {

// Shared fixture: Fig. 1 trie (motifs a-b @1.0, b-c @0.7, a-b-c @0.7) plus a
// small adjacency for the neighbour-bid term.
class EqualOpportunismTest : public ::testing::Test {
 protected:
  EqualOpportunismTest()
      : values_(4, 251, 0xC0FFEE), calc_(&values_), trie_(&calc_, 0.4) {
    auto workload = datasets::Figure1Workload(&registry_);
    for (const auto& q : workload.queries()) {
      trie_.AddQuery(q.pattern, q.frequency);
    }
    // Locate motif node ids by edge count/support for use in matches.
    for (uint32_t id = 1; id < trie_.NumNodes(); ++id) {
      if (!trie_.IsMotif(id)) continue;
      if (trie_.node(id).num_edges == 2) {
        abc_node_ = id;
      } else if (trie_.NormalizedSupport(id) > 0.99) {
        ab_node_ = id;
      } else {
        bc_node_ = id;
      }
    }
    for (graph::VertexId v = 0; v < 32; ++v) seen_.TouchVertex(v, 0);
  }

  motif::MatchHandle MakeMatch(std::vector<graph::EdgeId> edges,
                               std::vector<graph::VertexId> vertices,
                               uint32_t node) {
    motif::MatchHandle h = ml_.Acquire();
    motif::Match& m = ml_.match(h);
    m.edges = std::move(edges);
    m.vertices = std::move(vertices);
    m.degrees.assign(m.vertices.size(), 1);
    m.node_id = node;
    EXPECT_TRUE(ml_.Commit(h));
    return h;
  }

  graph::LabelRegistry registry_;
  signature::LabelValues values_;
  signature::SignatureCalculator calc_;
  tpstry::Tpstry trie_;
  graph::DynamicGraph seen_;
  motif::MatchList ml_;
  uint32_t ab_node_ = 0, bc_node_ = 0, abc_node_ = 0;
};

TEST_F(EqualOpportunismTest, RationBoundsAndMonotonicity) {
  EqualOpportunism eo(&trie_, &seen_, {});
  partition::Partitioning p(3, 300);
  // Equal (empty) partitions: full ration everywhere.
  for (graph::PartitionId si = 0; si < 3; ++si) {
    EXPECT_DOUBLE_EQ(eo.Ration(si, p), 1.0);
  }
  // Make partition 0 larger: its ration must drop below the smaller ones'.
  for (graph::VertexId v = 0; v < 12; ++v) p.Assign(v, 0);
  for (graph::VertexId v = 12; v < 23; ++v) p.Assign(v, 1);
  for (graph::VertexId v = 23; v < 33; ++v) p.Assign(v, 2);
  EXPECT_LE(eo.Ration(0, p), eo.Ration(2, p));
  EXPECT_DOUBLE_EQ(eo.Ration(2, p), 1.0);  // smallest partition
  for (graph::PartitionId si = 0; si < 3; ++si) {
    EXPECT_GE(eo.Ration(si, p), 0.0);
    EXPECT_LE(eo.Ration(si, p), 1.0);
  }
}

TEST_F(EqualOpportunismTest, RationZeroBeyondBalanceBound) {
  EqualOpportunismConfig cfg;
  cfg.balance_b = 1.1;
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 1000);
  // 40 vs 20 assigned: partition 0 is at 1.33x the average (30) > 1.1x.
  for (graph::VertexId v = 0; v < 40; ++v) p.Assign(v, 0);
  for (graph::VertexId v = 40; v < 60; ++v) p.Assign(v, 1);
  EXPECT_DOUBLE_EQ(eo.Ration(0, p), 0.0);
  EXPECT_GT(eo.Ration(1, p), 0.0);
}

TEST_F(EqualOpportunismTest, DisableRationing) {
  EqualOpportunismConfig cfg;
  cfg.disable_rationing = true;
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 100);
  for (graph::VertexId v = 0; v < 50; ++v) p.Assign(v, 0);
  EXPECT_DOUBLE_EQ(eo.Ration(0, p), 1.0);
}

TEST_F(EqualOpportunismTest, DecideFollowsVertexOverlap) {
  EqualOpportunismConfig cfg;
  cfg.neighbor_bid_weight = 0.0;  // isolate Eq. 1's vertex overlap
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 100);
  p.Assign(10, 1);  // vertex 10 lives in partition 1
  p.Assign(20, 0);  // balance the sizes so rations are equal
  auto m = MakeMatch({0}, {10, 11}, ab_node_);
  std::vector<motif::MatchHandle> me{m};
  auto decision = eo.DecideBids(ml_, me, p);
  EXPECT_EQ(decision.partition, 1u);
  ASSERT_EQ(decision.take, 1u);
  EXPECT_EQ(me[0], m);
}

// No partition holds a match vertex or a neighbour: no positive bid, so the
// caller's fallback (LoomPartitioner::EvictOldest's LDG choice) decides.
TEST_F(EqualOpportunismTest, NoOverlapLeavesNoWinner) {
  EqualOpportunismConfig cfg;
  cfg.neighbor_bid_weight = 0.0;
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(4, 100);
  auto m = MakeMatch({0}, {10, 11}, ab_node_);
  std::vector<motif::MatchHandle> me{m};
  auto decision = eo.DecideBids(ml_, me, p);
  EXPECT_EQ(decision.partition, graph::kNoPartition);
  EXPECT_EQ(decision.take, 0u);
}

TEST_F(EqualOpportunismTest, NeighborBidAttractsClusters) {
  EqualOpportunismConfig cfg;
  cfg.neighbor_bid_weight = 0.5;
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 100);
  // Match vertices are unassigned, but vertex 10's neighbour 5 is in
  // partition 1 (and sizes are balanced).
  seen_.AddEdge(10, 5);
  p.Assign(5, 1);
  p.Assign(6, 0);
  auto m = MakeMatch({0}, {10, 11}, ab_node_);
  std::vector<motif::MatchHandle> me{m};
  auto decision = eo.DecideBids(ml_, me, p);
  EXPECT_EQ(decision.partition, 1u);
}

// Hub rows feed Eq. 1's neighbour bid: a cluster vertex with a row copies
// it, one without walks its adjacency. DecideBids must return the same
// winner, take and match order as an allocator without the cache, on
// random graphs, placements and clusters. Threshold 1 gives a row to every
// vertex with an entry, 2 to vertices of degree 2 and up (so clusters mix
// both kinds), kDisabled to none. The hooks fire in LoomPartitioner's
// order: OnEdgeVisible after each AddEdge, OnAssign after each placement.
TEST_F(EqualOpportunismTest, HubRowsDecideLikeAdjacencyWalks) {
  constexpr uint32_t kParts = 3;
  constexpr graph::VertexId kVertices = 24;
  const uint32_t nodes[] = {ab_node_, bc_node_, abc_node_};
  for (const uint32_t threshold :
       {1u, 2u, partition::HubTallyCache::kDisabled}) {
    util::SplitMix64 rng(0xB1D5 + threshold);
    size_t with_row = 0;
    size_t without_row = 0;
    size_t bid_wins = 0;
    for (int trial = 0; trial < 300; ++trial) {
      graph::DynamicGraph g(kVertices);
      for (graph::VertexId v = 0; v < kVertices; ++v) g.TouchVertex(v, 0);
      partition::Partitioning p(kParts, 2 * kVertices);
      partition::HubTallyCache hub(kParts, threshold);
      const int num_edges = 4 + static_cast<int>(rng.Next() % 40);
      for (int i = 0; i < num_edges; ++i) {
        const auto u = static_cast<graph::VertexId>(rng.Next() % kVertices);
        const auto v = static_cast<graph::VertexId>(rng.Next() % kVertices);
        g.AddEdge(u, v);
        hub.OnEdgeVisible(u, v, g, p);
        if (rng.Next() % 3 == 0) {
          const auto w = static_cast<graph::VertexId>(rng.Next() % kVertices);
          if (!p.IsAssigned(w)) {
            const auto part =
                static_cast<graph::PartitionId>(rng.Next() % kParts);
            hub.OnAssign(w, p.Assign(w, part), g);
          }
        }
      }
      // A cluster of 1-4 matches sharing evictee edge 0.
      motif::MatchList ml;
      std::vector<motif::MatchHandle> me;
      const int num_matches = 1 + static_cast<int>(rng.Next() % 4);
      for (int m = 0; m < num_matches; ++m) {
        motif::MatchHandle h = ml.Acquire();
        motif::Match& match = ml.match(h);
        match.edges = {0, static_cast<graph::EdgeId>(100 + m)};
        const auto a = static_cast<graph::VertexId>(rng.Next() % kVertices);
        const auto b = static_cast<graph::VertexId>(
            (a + 1 + rng.Next() % (kVertices - 1)) % kVertices);
        match.vertices = {std::min(a, b), std::max(a, b)};
        match.degrees.assign(2, 1);
        match.node_id = nodes[rng.Next() % 3];
        ASSERT_TRUE(ml.Commit(h));
        me.push_back(h);
        for (const graph::VertexId v : match.vertices) {
          ++(hub.Counts(v) != nullptr ? with_row : without_row);
        }
      }
      EqualOpportunism with_hub(&trie_, &g, {}, &hub);
      EqualOpportunism walk_only(&trie_, &g, {});
      std::vector<motif::MatchHandle> me_hub = me;
      std::vector<motif::MatchHandle> me_walk = me;
      const AllocationDecision a = with_hub.DecideBids(ml, me_hub, p);
      const AllocationDecision b = walk_only.DecideBids(ml, me_walk, p);
      ASSERT_EQ(a.partition, b.partition)
          << "threshold=" << threshold << " trial=" << trial;
      ASSERT_EQ(a.take, b.take)
          << "threshold=" << threshold << " trial=" << trial;
      ASSERT_EQ(me_hub, me_walk)
          << "threshold=" << threshold << " trial=" << trial;
      if (b.partition != graph::kNoPartition) ++bid_wins;
    }
    // The grid must exercise what it claims: both kinds of vertex, and
    // decisions that a bid (not the caller's fallback) settles.
    EXPECT_GT(bid_wins, 100u) << "threshold=" << threshold;
    if (threshold == partition::HubTallyCache::kDisabled) {
      EXPECT_EQ(with_row, 0u);
    } else {
      EXPECT_GT(with_row, 100u) << "threshold=" << threshold;
    }
    if (threshold != 1) {
      EXPECT_GT(without_row, 100u) << "threshold=" << threshold;
    }
  }
}

TEST_F(EqualOpportunismTest, SupportOrderingPrioritisesHighSupport) {
  EqualOpportunism eo(&trie_, &seen_, {});
  partition::Partitioning p(2, 100);
  p.Assign(10, 1);
  p.Assign(20, 0);
  // Two matches sharing edge 0: the a-b single (support 1.0) must sort ahead
  // of the a-b-c pair (support 0.7).
  auto low = MakeMatch({0, 1}, {10, 11, 12}, abc_node_);
  auto high = MakeMatch({0}, {10, 11}, ab_node_);
  std::vector<motif::MatchHandle> me{low, high};
  auto decision = eo.DecideBids(ml_, me, p);
  ASSERT_GE(decision.take, 1u);
  EXPECT_EQ(me[0], high);
}

TEST_F(EqualOpportunismTest, EmptyClusterLeavesNoWinner) {
  EqualOpportunism eo(&trie_, &seen_, {});
  partition::Partitioning p(2, 100);
  std::vector<motif::MatchHandle> me;
  auto decision = eo.DecideBids(ml_, me, p);
  EXPECT_EQ(decision.partition, graph::kNoPartition);
  EXPECT_EQ(decision.take, 0u);
}

TEST_F(EqualOpportunismTest, PaperWorkedExampleRationHalfish) {
  // Sec. 4's example: S1 33.3% larger than S2 gives l(S1) = 1/2 under the
  // paper's own arithmetic (1/1.33 * 2/3 = 0.5 with the reciprocal reading).
  EqualOpportunismConfig cfg;
  cfg.balance_b = 2.0;  // the example ignores the b cutoff
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 1000);
  for (graph::VertexId v = 0; v < 40; ++v) p.Assign(v, 0);
  for (graph::VertexId v = 40; v < 70; ++v) p.Assign(v, 1);
  EXPECT_NEAR(eo.Ration(0, p), (30.0 / 40.0) * (2.0 / 3.0), 1e-9);
  EXPECT_DOUBLE_EQ(eo.Ration(1, p), 1.0);
}

}  // namespace
}  // namespace core
}  // namespace loom
