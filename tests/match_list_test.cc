#include "motif/match_list.h"

#include <gtest/gtest.h>

namespace loom {
namespace motif {
namespace {

Match MakeRecord(std::vector<graph::EdgeId> edges,
                 std::vector<graph::VertexId> vertices, uint32_t node) {
  Match m;
  m.edges = std::move(edges);
  m.vertices = std::move(vertices);
  m.degrees.assign(m.vertices.size(), 1);
  m.node_id = node;
  return m;
}

/// Acquires, fills and commits; kNullMatch when rejected as duplicate.
MatchHandle AddMatch(MatchList& ml, std::vector<graph::EdgeId> edges,
                     std::vector<graph::VertexId> vertices, uint32_t node) {
  MatchHandle h = ml.Acquire();
  ml.match(h).CopyFrom(MakeRecord(std::move(edges), std::move(vertices), node));
  return ml.Commit(h) ? h : kNullMatch;
}

TEST(MatchTest, ContainsChecks) {
  Match m = MakeRecord({2, 5, 9}, {1, 3}, 7);
  EXPECT_TRUE(m.ContainsEdge(5));
  EXPECT_FALSE(m.ContainsEdge(4));
  EXPECT_TRUE(m.ContainsVertex(3));
  EXPECT_FALSE(m.ContainsVertex(2));
}

TEST(MatchTest, KeyIsContentBased) {
  Match a = MakeRecord({1, 2}, {0, 1, 2}, 3);
  Match b = MakeRecord({1, 2}, {0, 1, 2}, 3);
  Match c = MakeRecord({1, 2}, {0, 1, 2}, 4);  // different motif
  Match d = MakeRecord({1, 3}, {0, 1, 2}, 3);  // different edges
  EXPECT_EQ(a.Key(), b.Key());
  EXPECT_NE(a.Key(), c.Key());
  EXPECT_NE(a.Key(), d.Key());
}

TEST(MatchListTest, AddAndLookup) {
  MatchList ml;
  MatchHandle m = AddMatch(ml, {0}, {10, 11}, 1);
  EXPECT_NE(m, kNullMatch);
  EXPECT_EQ(ml.NumLive(), 1u);
  EXPECT_EQ(ml.LiveAt(10).size(), 1u);
  EXPECT_EQ(ml.LiveAt(11).size(), 1u);
  EXPECT_EQ(ml.LiveAt(12).size(), 0u);
  EXPECT_EQ(ml.LiveWithEdge(0).size(), 1u);
  EXPECT_EQ(ml.LiveWithEdge(1).size(), 0u);
  EXPECT_TRUE(ml.HasLiveAt(10));
  EXPECT_FALSE(ml.HasLiveAt(12));
}

// The posting-list hint grows no index: hints on indexed vertices, on
// vertices without matches and on ids past the index leave every list as
// it was.
TEST(MatchListTest, LookaheadHintLeavesTheIndexUnchanged) {
  MatchList ml;
  ASSERT_NE(AddMatch(ml, {0}, {10, 11}, 1), kNullMatch);
  for (const graph::VertexId v : {0u, 10u, 11u, 12u, 5000u,
                                  graph::kInvalidVertex}) {
    ml.PrefetchVertex(v);
  }
  EXPECT_EQ(ml.IndexEntriesAt(10), 1u);
  EXPECT_EQ(ml.IndexEntriesAt(11), 1u);
  EXPECT_EQ(ml.IndexEntriesAt(0), 0u);
  EXPECT_EQ(ml.IndexEntriesAt(5000), 0u);
  EXPECT_EQ(ml.NumLive(), 1u);
  EXPECT_EQ(ml.LiveAt(10).size(), 1u);
}

TEST(MatchListTest, DuplicateRejected) {
  MatchList ml;
  EXPECT_NE(AddMatch(ml, {0, 1}, {5, 6, 7}, 2), kNullMatch);
  EXPECT_EQ(AddMatch(ml, {0, 1}, {5, 6, 7}, 2), kNullMatch);
  EXPECT_EQ(ml.NumLive(), 1u);
  EXPECT_EQ(ml.TotalAdded(), 1u);
}

TEST(MatchListTest, SameEdgesDifferentMotifCoexist) {
  MatchList ml;
  EXPECT_NE(AddMatch(ml, {0, 1}, {5, 6, 7}, 2), kNullMatch);
  EXPECT_NE(AddMatch(ml, {0, 1}, {5, 6, 7}, 3), kNullMatch);
  EXPECT_EQ(ml.NumLive(), 2u);
}

TEST(MatchListTest, RemoveMatchesWithEdgeKillsAllContaining) {
  MatchList ml;
  MatchHandle m1 = AddMatch(ml, {0}, {5, 6}, 1);
  MatchHandle m2 = AddMatch(ml, {0, 1}, {5, 6, 7}, 2);
  MatchHandle m3 = AddMatch(ml, {1}, {6, 7}, 1);
  ml.RemoveMatchesWithEdge(0);
  EXPECT_FALSE(ml.IsLive(m1));
  EXPECT_FALSE(ml.IsLive(m2));
  EXPECT_TRUE(ml.IsLive(m3));
  EXPECT_EQ(ml.NumLive(), 1u);
  EXPECT_EQ(ml.LiveAt(5).size(), 0u);
  EXPECT_EQ(ml.LiveAt(6).size(), 1u);
  EXPECT_EQ(ml.LiveWithEdge(1).size(), 1u);
}

TEST(MatchListTest, DeadMatchCanBeReAdded) {
  MatchList ml;
  AddMatch(ml, {0}, {5, 6}, 1);
  ml.RemoveMatchesWithEdge(0);
  // Same content is allowed again once the original died.
  EXPECT_NE(AddMatch(ml, {0}, {5, 6}, 1), kNullMatch);
  EXPECT_EQ(ml.NumLive(), 1u);
}

TEST(MatchListTest, CompactPurgesDeadEntries) {
  MatchList ml;
  for (graph::EdgeId e = 0; e < 10; ++e) {
    AddMatch(ml, {e}, {e * 2, e * 2 + 1}, 1);
  }
  for (graph::EdgeId e = 0; e < 5; ++e) ml.RemoveMatchesWithEdge(e);
  ml.Compact();
  EXPECT_EQ(ml.NumLive(), 5u);
  for (graph::EdgeId e = 0; e < 5; ++e) {
    EXPECT_TRUE(ml.LiveAt(e * 2).empty());
    EXPECT_EQ(ml.IndexEntriesAt(e * 2), 0u);
  }
  for (graph::EdgeId e = 5; e < 10; ++e) {
    EXPECT_EQ(ml.LiveAt(e * 2).size(), 1u);
  }
}

TEST(MatchListTest, RemoveUnknownEdgeIsNoop) {
  MatchList ml;
  AddMatch(ml, {3}, {0, 1}, 1);
  ml.RemoveMatchesWithEdge(99);
  EXPECT_EQ(ml.NumLive(), 1u);
}

TEST(MatchListTest, IterationPrunesMostlyDeadLists) {
  // Vertex 5 accumulates 32 matches; killing 31 of them leaves dead handles
  // in the posting list, which the next iteration must prune in place —
  // memory stays bounded without waiting for a full Compact().
  MatchList ml;
  for (graph::EdgeId e = 0; e < 32; ++e) {
    ASSERT_NE(AddMatch(ml, {e}, {5, 100 + e}, 1), kNullMatch);
  }
  EXPECT_EQ(ml.IndexEntriesAt(5), 32u);
  for (graph::EdgeId e = 0; e < 31; ++e) ml.RemoveMatchesWithEdge(e);
  EXPECT_EQ(ml.IndexEntriesAt(5), 32u);  // dead handles still parked
  std::vector<MatchHandle> live;
  ml.CollectLiveAt(5, &live);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(ml.match(live[0]).edges, (std::vector<graph::EdgeId>{31}));
  EXPECT_EQ(ml.IndexEntriesAt(5), 1u);  // pruned during iteration
}

TEST(MatchListTest, CollectAppendsInInsertionOrder) {
  MatchList ml;
  MatchHandle a = AddMatch(ml, {0}, {9}, 1);
  MatchHandle b = AddMatch(ml, {1}, {9}, 1);
  MatchHandle c = AddMatch(ml, {2}, {9}, 1);
  std::vector<MatchHandle> out;
  ml.CollectLiveAt(9, &out);
  EXPECT_EQ(out, (std::vector<MatchHandle>{a, b, c}));
}

TEST(MatchListTest, CollectStopsAtTheLimit) {
  MatchList ml;
  std::vector<MatchHandle> all;
  for (graph::EdgeId e = 0; e < 6; ++e) {
    all.push_back(AddMatch(ml, {e}, {9, 100 + e}, 1));
  }
  std::vector<MatchHandle> out{kNullMatch};  // appended to, not cleared
  ml.CollectLiveAt(9, &out, 4);
  EXPECT_EQ(out, (std::vector<MatchHandle>{kNullMatch, all[0], all[1],
                                           all[2], all[3]}));
  out.clear();
  ml.CollectLiveAt(9, &out, 0);
  EXPECT_TRUE(out.empty());
  ml.CollectLiveAt(9, &out, 100);
  EXPECT_EQ(out, all);
}

TEST(MatchListTest, CollectLimitCountsOnlyLiveHandles) {
  // 8 matches at vertex 9, the 1st and 3rd killed: 2 of 8 dead is below the
  // prune ratio, so the walk itself must skip them.
  MatchList ml;
  std::vector<MatchHandle> all;
  for (graph::EdgeId e = 0; e < 8; ++e) {
    all.push_back(AddMatch(ml, {e}, {9, 100 + e}, 1));
  }
  ml.RemoveMatchesWithEdge(0);
  ml.RemoveMatchesWithEdge(2);
  std::vector<MatchHandle> out;
  ml.CollectLiveAt(9, &out, 3);
  EXPECT_EQ(out, (std::vector<MatchHandle>{all[1], all[3], all[4]}));
  EXPECT_EQ(ml.IndexEntriesAt(9), 8u);  // not pruned
}

TEST(MatchListTest, LimitedCollectStillPrunesMostlyDeadLists) {
  MatchList ml;
  std::vector<MatchHandle> all;
  for (graph::EdgeId e = 0; e < 8; ++e) {
    all.push_back(AddMatch(ml, {e}, {9, 100 + e}, 1));
  }
  for (graph::EdgeId e = 0; e < 4; ++e) ml.RemoveMatchesWithEdge(e);
  std::vector<MatchHandle> out;
  ml.CollectLiveAt(9, &out, 1);
  EXPECT_EQ(out, (std::vector<MatchHandle>{all[4]}));
  EXPECT_EQ(ml.IndexEntriesAt(9), 4u);  // half dead: pruned before the walk
}

TEST(MatchListTest, UnlimitedCollectMatchesLiveAt) {
  MatchList ml;
  for (graph::EdgeId e = 0; e < 20; ++e) {
    AddMatch(ml, {e}, {9, 100 + e}, 1);
  }
  for (graph::EdgeId e : {1u, 5u, 6u, 13u, 19u}) ml.RemoveMatchesWithEdge(e);
  const std::vector<MatchHandle> expected = ml.LiveAt(9);
  ASSERT_EQ(expected.size(), 15u);
  std::vector<MatchHandle> out;
  ml.CollectLiveAt(9, &out);
  EXPECT_EQ(out, expected);
}

TEST(MatchListTest, ForEachLiveAtStopsWhenTheVisitorSaysSo) {
  MatchList ml;
  std::vector<MatchHandle> all;
  for (graph::EdgeId e = 0; e < 5; ++e) {
    all.push_back(AddMatch(ml, {e}, {9, 100 + e}, 1));
  }
  ml.RemoveMatchesWithEdge(1);
  std::vector<MatchHandle> seen;
  ml.ForEachLiveAt(9, [&](MatchHandle h) {
    seen.push_back(h);
    return h != all[2];
  });
  EXPECT_EQ(seen, (std::vector<MatchHandle>{all[0], all[2]}));
}

TEST(MatchListTest, EdgeRingSurvivesSparseGrowingIds) {
  // Edge ids with large gaps (bypassed stream positions) force the edge ring
  // to grow and re-place its posting lists.
  MatchList ml;
  std::vector<MatchHandle> handles;
  for (graph::EdgeId i = 0; i < 50; ++i) {
    handles.push_back(AddMatch(ml, {i * 97}, {i, i + 1}, 1));
    ASSERT_NE(handles.back(), kNullMatch);
  }
  for (graph::EdgeId i = 0; i < 50; ++i) {
    ASSERT_EQ(ml.LiveWithEdge(i * 97).size(), 1u) << i;
  }
  // Retire in arbitrary order; the ring head chases the oldest active key.
  for (graph::EdgeId i : {7u, 0u, 49u, 23u}) {
    ml.RemoveMatchesWithEdge(i * 97);
    EXPECT_FALSE(ml.IsLive(handles[i]));
  }
  EXPECT_EQ(ml.NumLive(), 46u);
}

TEST(MatchListTest, EdgeRingGrowthStepAboveCapWithSpanBelowCapKeepsKeys) {
  // Regression: x4 ring growth overshooting the 2^18 cap while the key span
  // still fits must clamp, not spill (the spill new-head would underflow
  // and strand the newest key's posting list).
  MatchList ml;
  MatchHandle a = AddMatch(ml, {0}, {1, 2}, 1);
  MatchHandle b = AddMatch(ml, {100000}, {2, 3}, 1);  // ring at 131072
  MatchHandle c = AddMatch(ml, {200000}, {3, 4}, 1);  // x4 > cap, span fits
  ASSERT_NE(a, kNullMatch);
  ASSERT_NE(b, kNullMatch);
  ASSERT_NE(c, kNullMatch);
  EXPECT_EQ(ml.LiveWithEdge(0).size(), 1u);
  EXPECT_EQ(ml.LiveWithEdge(100000).size(), 1u);
  ASSERT_EQ(ml.LiveWithEdge(200000).size(), 1u);
  ml.RemoveMatchesWithEdge(200000);
  EXPECT_FALSE(ml.IsLive(c));
  EXPECT_EQ(ml.NumLive(), 2u);
}

TEST(MatchListTest, DrainedRingRestartDoesNotShadowSpilledKey) {
  // Regression: after a spill, retiring every ring key drains the ring;
  // a later match on the spilled key must extend its overflow list, not
  // create a duplicate ring slot that RemoveMatchesWithEdge would miss.
  MatchList ml;
  MatchHandle old_match = AddMatch(ml, {0}, {1, 2}, 1);
  MatchHandle far = AddMatch(ml, {400000}, {2, 3}, 1);  // spills key 0
  ASSERT_NE(old_match, kNullMatch);
  ASSERT_NE(far, kNullMatch);
  ml.RemoveMatchesWithEdge(400000);  // drains the ring (head == tail)
  MatchHandle again = AddMatch(ml, {0}, {1, 2}, 2);  // same spilled edge
  ASSERT_NE(again, kNullMatch);
  EXPECT_EQ(ml.LiveWithEdge(0).size(), 2u);
  ml.RemoveMatchesWithEdge(0);
  EXPECT_FALSE(ml.IsLive(old_match));
  EXPECT_FALSE(ml.IsLive(again));
  EXPECT_TRUE(ml.LiveWithEdge(0).empty());
  EXPECT_EQ(ml.NumLive(), 0u);
}

TEST(MatchListTest, EdgeRingSpillsLingeringKeysBeyondCap) {
  // The edge ring caps its growth (default 2^18 slots); a key left far
  // behind by the advancing id span spills to the overflow map and must
  // remain fully functional there.
  MatchList ml;
  MatchHandle old_match = AddMatch(ml, {0}, {1, 2}, 1);
  ASSERT_NE(old_match, kNullMatch);
  MatchHandle new_match = AddMatch(ml, {400000}, {2, 3}, 1);
  ASSERT_NE(new_match, kNullMatch);
  // Key 0 now lives behind the ring's coverage; lookups still find it.
  ASSERT_EQ(ml.LiveWithEdge(0).size(), 1u);
  EXPECT_EQ(ml.LiveWithEdge(0)[0], old_match);
  ASSERT_EQ(ml.LiveWithEdge(400000).size(), 1u);
  // A later match can still reference the spilled edge.
  MatchHandle joint = AddMatch(ml, {0, 400000}, {1, 2, 3}, 2);
  ASSERT_NE(joint, kNullMatch);
  EXPECT_EQ(ml.LiveWithEdge(0).size(), 2u);
  // Retiring the spilled edge kills every match containing it.
  ml.RemoveMatchesWithEdge(0);
  EXPECT_FALSE(ml.IsLive(old_match));
  EXPECT_FALSE(ml.IsLive(joint));
  EXPECT_TRUE(ml.IsLive(new_match));
  EXPECT_TRUE(ml.LiveWithEdge(0).empty());
  EXPECT_EQ(ml.NumLive(), 1u);
}

}  // namespace
}  // namespace motif
}  // namespace loom
