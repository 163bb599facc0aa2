#include "motif/match_list.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "util/rng.h"

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

TEST(MatchListTest, KillingTheLastMatchEmptiesItsVertexLists) {
  MatchList ml;
  for (graph::EdgeId e = 0; e < 10; ++e) {
    AddMatch(ml, {e}, {e * 2, e * 2 + 1}, 1);
  }
  for (graph::EdgeId e = 0; e < 5; ++e) ml.RemoveMatchesWithEdge(e);
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

// A brute-force model of the match list: live matches in commit order,
// driven by random Commit/RemoveMatchesWithEdge sequences over a small vertex
// and edge universe whose vertex 0 is a hub (in most matches). After every
// step each read agrees with the model, and each vertex list holds fewer
// than twice as many entries as it has live matches, or none when it has no
// live match. Halfway through, the list is saved, restored into a fresh one
// and the run continues on the restored copy.
TEST(MatchListTest, RandomCommitsAndRemovalsMatchABruteForceModel) {
  constexpr graph::VertexId kVertices = 10;
  constexpr size_t kSteps = 1500;
  struct Live {
    std::vector<graph::EdgeId> edges;
    std::vector<graph::VertexId> vertices;
    uint32_t node;
  };
  const std::filesystem::path path =
      std::filesystem::path(testing::TempDir()) / "match_list_model.loomck";
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    auto ml = std::make_unique<MatchList>();
    std::vector<std::pair<MatchHandle, Live>> model;  // commit order
    std::deque<graph::EdgeId> window;  // edges that may still gain matches
    std::vector<graph::EdgeId> retired;
    graph::EdgeId next_edge = 0;

    const auto check = [&](size_t step) {
      SCOPED_TRACE("step " + std::to_string(step));
      ASSERT_EQ(ml->NumLive(), model.size());
      for (graph::VertexId v = 0; v <= kVertices; ++v) {
        std::vector<MatchHandle> want;
        for (const auto& [h, m] : model) {
          if (std::binary_search(m.vertices.begin(), m.vertices.end(), v)) {
            want.push_back(h);
          }
        }
        ASSERT_EQ(ml->LiveAt(v), want) << "vertex " << v;
        ASSERT_EQ(ml->HasLiveAt(v), !want.empty()) << "vertex " << v;
        for (const size_t limit : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                                   SIZE_MAX}) {
          std::vector<MatchHandle> got{kNullMatch};
          ml->CollectLiveAt(v, &got, limit);
          std::vector<MatchHandle> prefix{kNullMatch};
          prefix.insert(prefix.end(), want.begin(),
                        want.begin() + static_cast<ptrdiff_t>(
                                           std::min(limit, want.size())));
          ASSERT_EQ(got, prefix) << "vertex " << v << " limit " << limit;
        }
        const size_t entries = ml->IndexEntriesAt(v);
        if (want.empty()) {
          ASSERT_EQ(entries, 0u) << "vertex " << v;
        } else {
          ASSERT_LT(entries, 2 * want.size()) << "vertex " << v;
        }
      }
      std::vector<graph::EdgeId> probes(window.begin(), window.end());
      probes.insert(probes.end(), retired.begin(), retired.end());
      probes.push_back(next_edge);
      for (const graph::EdgeId e : probes) {
        std::vector<MatchHandle> want;
        for (const auto& [h, m] : model) {
          if (std::binary_search(m.edges.begin(), m.edges.end(), e)) {
            want.push_back(h);
          }
        }
        ASSERT_EQ(ml->LiveWithEdge(e), want) << "edge " << e;
      }
    };

    for (size_t step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) {
        {
          io::CheckpointWriter w;
          ml->SaveTo(&w);
          w.Commit(path.string());
        }
        io::CheckpointReader r(path.string());
        ml = std::make_unique<MatchList>();
        ml->LoadFrom(&r);
        check(step);
      }
      if (window.size() < 3 || (window.size() < 8 && rng.Bernoulli(0.3))) {
        window.push_back(next_edge++);
      }
      if (rng.Bernoulli(0.45)) {
        // Retire an edge: usually the oldest, as the window evicts, else
        // one claimed early by another edge's cluster.
        const size_t i = rng.Bernoulli(0.6) ? 0 : rng.Uniform(window.size());
        const graph::EdgeId e = window[i];
        window.erase(window.begin() + static_cast<ptrdiff_t>(i));
        retired.push_back(e);
        ml->RemoveMatchesWithEdge(e);
        std::erase_if(model, [e](const auto& entry) {
          return std::binary_search(entry.second.edges.begin(),
                                    entry.second.edges.end(), e);
        });
      } else {
        Live m;
        const size_t num_edges = 1 + rng.Uniform(std::min<size_t>(3, window.size()));
        while (m.edges.size() < num_edges) {
          const graph::EdgeId e = window[rng.Uniform(window.size())];
          if (std::find(m.edges.begin(), m.edges.end(), e) == m.edges.end()) {
            m.edges.push_back(e);
          }
        }
        std::sort(m.edges.begin(), m.edges.end());
        if (rng.Bernoulli(0.8)) m.vertices.push_back(0);  // the hub
        const size_t num_vertices = 1 + rng.Uniform(3);
        while (m.vertices.size() < num_vertices) {
          const auto v = static_cast<graph::VertexId>(rng.Uniform(kVertices));
          if (std::find(m.vertices.begin(), m.vertices.end(), v) ==
              m.vertices.end()) {
            m.vertices.push_back(v);
          }
        }
        std::sort(m.vertices.begin(), m.vertices.end());
        m.node = static_cast<uint32_t>(rng.Uniform(3));
        const bool duplicate =
            std::any_of(model.begin(), model.end(), [&m](const auto& entry) {
              return entry.second.edges == m.edges && entry.second.node == m.node;
            });
        const MatchHandle h = AddMatch(*ml, m.edges, m.vertices, m.node);
        ASSERT_EQ(h == kNullMatch, duplicate) << "step " << step;
        if (h != kNullMatch) model.emplace_back(h, m);
      }
      check(step);
    }
  }
  std::filesystem::remove(path);
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
