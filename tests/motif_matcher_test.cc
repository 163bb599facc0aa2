#include "motif/motif_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "datasets/workloads.h"
#include "graph/label_registry.h"
#include "util/rng.h"

namespace loom {
namespace motif {
namespace {

using stream::SlidingWindow;
using stream::StreamEdge;

// Fixture around the Fig. 1 workload: motifs at T=40% are a-b, b-c, a-b-c;
// at T=5% every sub-graph (up to the 4-edge square) is a motif.
class MatcherTest : public ::testing::Test {
 protected:
  explicit MatcherTest(double threshold = 0.4)
      : values_(4, 251, 0xC0FFEE),
        calc_(&values_),
        trie_(&calc_, threshold),
        window_(100) {
    workload_ = datasets::Figure1Workload(&registry_);
    for (const auto& q : workload_.queries()) {
      trie_.AddQuery(q.pattern, q.frequency);
    }
    matcher_ = std::make_unique<MotifMatcher>(&trie_, &calc_);
    a_ = registry_.Find("a");
    b_ = registry_.Find("b");
    c_ = registry_.Find("c");
    d_ = registry_.Find("d");
  }

  StreamEdge E(graph::EdgeId id, graph::VertexId u, graph::LabelId lu,
               graph::VertexId v, graph::LabelId lv) {
    StreamEdge e;
    e.id = id;
    e.u = u;
    e.v = v;
    e.label_u = lu;
    e.label_v = lv;
    return e;
  }

  // Pushes into the window and runs the matcher.
  void Feed(const StreamEdge& e) {
    window_.Push(e);
    matcher_->OnEdgeAdded(e, window_, &ml_);
  }

  graph::LabelRegistry registry_;
  query::Workload workload_;
  signature::LabelValues values_;
  signature::SignatureCalculator calc_;
  tpstry::Tpstry trie_;
  SlidingWindow window_;
  MatchList ml_;
  std::unique_ptr<MotifMatcher> matcher_;
  graph::LabelId a_, b_, c_, d_;
};

TEST_F(MatcherTest, AdmissionTest) {
  EXPECT_NE(matcher_->SingleEdgeMotif(E(0, 1, a_, 2, b_)), nullptr);
  EXPECT_NE(matcher_->SingleEdgeMotif(E(0, 1, b_, 2, c_)), nullptr);
  // c-d occurs in q3 only (10% support): in the trie but not a motif.
  EXPECT_EQ(matcher_->SingleEdgeMotif(E(0, 1, c_, 2, d_)), nullptr);
  // a-d occurs in no query at all.
  EXPECT_EQ(matcher_->SingleEdgeMotif(E(0, 1, a_, 2, d_)), nullptr);
}

TEST_F(MatcherTest, SingleEdgeMatchRegistered) {
  Feed(E(0, 1, a_, 2, b_));
  EXPECT_EQ(ml_.NumLive(), 1u);
  auto at1 = ml_.LiveAt(1);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(ml_.match(at1[0]).edges, (std::vector<graph::EdgeId>{0}));
  EXPECT_EQ(matcher_->stats().single_edge_matches, 1u);
}

TEST_F(MatcherTest, ExtensionFormsTwoEdgeMotif) {
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 2, b_, 3, c_));
  // Matches: {e0} (a-b), {e1} (b-c), {e0,e1} (a-b-c).
  EXPECT_EQ(ml_.NumLive(), 3u);
  EXPECT_EQ(matcher_->stats().extension_matches, 1u);
  auto at3 = ml_.LiveAt(3);
  bool found_abc = false;
  for (MatchHandle h : at3) {
    if (ml_.match(h).edges.size() == 2) found_abc = true;
  }
  EXPECT_TRUE(found_abc);
}

TEST_F(MatcherTest, NonAdjacentEdgesDoNotCombine) {
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 5, a_, 6, b_));
  EXPECT_EQ(ml_.NumLive(), 2u);  // just the two singles
  EXPECT_EQ(matcher_->stats().extension_matches, 0u);
}

TEST_F(MatcherTest, AbaPathNotAMotifAtFortyPercent) {
  // a-b plus another a-b sharing the b vertex = a-b-a: support 30% < T.
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 3, a_, 2, b_));
  EXPECT_EQ(ml_.NumLive(), 2u);  // extensions rejected by motif filter
}

TEST_F(MatcherTest, DuplicateDiscoveryIsDeduped) {
  // Triangle-ish feeding order that could find a-b-c twice.
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 2, b_, 3, c_));
  size_t live_before = ml_.NumLive();
  // Re-feeding the same structural edge with a NEW id forms new matches (it
  // is a distinct stream element), but the existing pairs stay deduped.
  Feed(E(2, 4, a_, 2, b_));
  EXPECT_GE(ml_.NumLive(), live_before + 1);
}

// Lower threshold: every Fig. 1 sub-graph is a motif, enabling joins.
class JoinMatcherTest : public MatcherTest {
 protected:
  JoinMatcherTest() : MatcherTest(0.05) {}
};

TEST_F(JoinMatcherTest, PerEndpointCapTruncatesHubSnapshots) {
  // A b-labelled hub (vertex 0) takes a-b edges as v and b-c edges as u,
  // plus edges parallel to earlier ones: their u endpoint's list holds
  // matches that contain the hub, which step 1 must not take twice. The
  // edge parallel to edge 0 puts such matches at the head of the hub's
  // list, inside the cap. With a cap of 4, step 1's union (> 8) and step
  // 2's per-endpoint lists (> 4) are both truncated; the counters and the
  // surviving matches pin which matches the truncated snapshots keep.
  matcher_ = std::make_unique<MotifMatcher>(
      &trie_, &calc_, MatcherConfig{.max_matches_per_vertex = 4});
  constexpr graph::VertexId kHub = 0;
  graph::EdgeId id = 0;
  graph::VertexId last_c = 0;
  for (graph::VertexId i = 1; i <= 14; ++i) {
    const graph::VertexId a = 100 + i, c = 200 + i;
    Feed(E(id++, a, a_, kHub, b_));  // hub as v
    Feed(E(id++, kHub, b_, c, c_));  // hub as u
    if (i % 2 == 0) Feed(E(id++, last_c, c_, kHub, b_));  // parallel b-c
    if (i == 1) Feed(E(id++, 101, a_, kHub, b_));  // parallel to edge 0
    last_c = c;
  }
  EXPECT_GT(ml_.LiveAt(kHub).size(), 8u) << "the hub must exceed 2 x cap";

  const MatcherStats& s = matcher_->stats();
  EXPECT_EQ(s.edges_admitted, 36u);
  EXPECT_EQ(s.single_edge_matches, 36u);
  EXPECT_EQ(s.extension_matches, 101u);
  EXPECT_EQ(s.join_matches, 0u);
  EXPECT_EQ(s.join_attempts, 345u);

  // Every match contains the hub, so its list is the whole matchList.
  std::vector<uint64_t> keys;
  for (MatchHandle h : ml_.LiveAt(kHub)) keys.push_back(ml_.match(h).Key());
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), ml_.NumLive());
  const std::vector<uint64_t> expected = {
      0x082b9b07b4e57188ull, 0x082b9d07b4e574eeull, 0x082ba007b4e57a07ull,
      0x082ba307b4e57f20ull, 0x082ba607b4e58439ull, 0x082ba807b4e5879full,
      0x082ba907b4e58952ull, 0x082baa07b4e58b05ull, 0x082bac07b4e58e6bull,
      0x082bae07b4e591d1ull, 0x082baf07b4e59384ull, 0x082bb007b4e59537ull,
      0x082bb107b4e596eaull, 0x082bb407b4e59c03ull, 0x082bb507b4e59db6ull,
      0x082bb607b4e59f69ull, 0x082bb707b4e5a11cull, 0x082bb907b4e5a482ull,
      0x082bbe07b4e5ad01ull, 0x082bbf07b4e5aeb4ull, 0x082bc207b4e5b3cdull,
      0x082f0207b4e85664ull, 0x082f0407b4e859caull, 0x082f1607b4e87860ull,
      0x082f1807b4e87bc6ull, 0x082f1b07b4e880dfull, 0x082f1e07b4e885f8ull,
      0x082f2107b4e88b11ull, 0x082f2307b4e88e77ull, 0x082f2507b4e891ddull,
      0x082f2707b4e89543ull, 0x082f2a07b4e89a5cull, 0x082f2d07b4e89f75ull,
      0x082f3007b4e8a48eull, 0x082f3307b4e8a9a7ull, 0x082f3507b4e8ad0dull,
      0xbf42e8185d4b6effull, 0xbf42ea185d4b7265ull, 0xbf4303185d4b9ce0ull,
      0xbf4306185d4ba1f9ull, 0xbf430c185d4bac2bull, 0xbf430e185d4baf91ull,
      0xbf430f185d4bb144ull, 0xbf4311185d4bb4aaull, 0xbf4314185d4bb9c3ull,
      0xbf4315185d4bbb76ull, 0xbf4317185d4bbedcull, 0xbf431b185d4bc5a8ull,
      0xbf431d185d4bc90eull, 0xbf4322185d4bd18dull, 0xbf49c9185d515900ull,
      0xbf49cb185d515c66ull, 0xbf49ce185d51617full, 0xbf49d1185d516698ull,
      0xbf49d4185d516bb1ull, 0xbf49d8185d51727dull, 0xbf49da185d5175e3ull,
      0xbf49dd185d517afcull, 0xbf49e0185d518015ull, 0xbf49e3185d51852eull,
      0xbf49e6185d518a47ull, 0xbf49e8185d518dadull, 0xbf49f5185d51a3c4ull,
      0xbf49f7185d51a72aull, 0xbf4d18185d541514ull, 0xbf4d1a185d54187aull,
      0xbf4d1d185d541d93ull, 0xbf4d1f185d5420f9ull, 0xbf4d22185d542612ull,
      0xbf4d24185d542978ull, 0xbf4d27185d542e91ull, 0xbf4d29185d5431f7ull,
      0xbf4d2c185d543710ull, 0xbf4d2e185d543a76ull, 0xbf4d31185d543f8full,
      0xbf4d33185d5442f5ull, 0xbf4d35185d54465bull, 0xbf4d36185d54480eull,
      0xbf53e3185d59d9b3ull, 0xbf53e6185d59deccull, 0xbf53e8185d59e232ull,
      0xbf5402185d5a0e60ull, 0xbf5405185d5a1379ull, 0xbf5409185d5a1a45ull,
      0xbf540a185d5a1bf8ull, 0xbf540c185d5a1f5eull, 0xbf540f185d5a2477ull,
      0xbf5410185d5a262aull, 0xbf5411185d5a27ddull, 0xbf5412185d5a2990ull,
      0xbf5413185d5a2b43ull, 0xbf5414185d5a2cf6ull, 0xbf5417185d5a320full,
      0xbf5419185d5a3575ull, 0xbf541b185d5a38dbull, 0xbf541c185d5a3a8eull,
      0xbf541d185d5a3c41ull, 0xbf541e185d5a3df4ull, 0xbf5421185d5a430dull,
      0xea924e1875d366a3ull, 0xea92501875d36a09ull, 0xea925d1875d38020ull,
      0xea925f1875d38386ull, 0xea92621875d3889full, 0xea92651875d38db8ull,
      0xea92681875d392d1ull, 0xea926b1875d397eaull, 0xea92711875d3a21cull,
      0xea92771875d3ac4eull, 0xea927a1875d3b167ull, 0xea927c1875d3b4cdull,
      0xea9c961875dc3580ull, 0xea9c981875dc38e6ull, 0xea9c9b1875dc3dffull,
      0xea9c9e1875dc4318ull, 0xea9ca11875dc4831ull, 0xea9ca71875dc5263ull,
      0xea9caa1875dc577cull, 0xea9cad1875dc5c95ull, 0xea9cb01875dc61aeull,
      0xea9cb31875dc66c7ull, 0xea9cb51875dc6a2dull, 0xea9cc21875dc8044ull,
      0xea9cc41875dc83aaull, 0xeaa34c1875e1d670ull, 0xeaa34e1875e1d9d6ull,
      0xeaa35d1875e1f353ull, 0xeaa35f1875e1f6b9ull, 0xeaa3601875e1f86cull,
      0xeaa3651875e200ebull, 0xeaa3661875e2029eull, 0xeaa36b1875e20b1dull,
      0xeaa3711875e2154full, 0xeaa3721875e21702ull, 0xeaa3771875e21f81ull,
      0xeaa3781875e22134ull, 0xeaa37a1875e2249aull};
  EXPECT_EQ(keys, expected);
}

TEST_F(JoinMatcherTest, HubStreamsStaySoundUnderEveryCap) {
  // Random hub-heavy labelled streams: half of all endpoints fall on three
  // hubs, so at small caps both step 1's union and step 2's per-endpoint
  // snapshots truncate. Step 2 skips pairing any match with the new edge's
  // own single-edge match, since that repeats step 1's extension; Debug
  // builds assert on every skip that step 1 did extend that match.
  constexpr graph::VertexId kVertices = 24, kHubs = 3;
  constexpr size_t kEdges = 80;
  const graph::LabelId pool[] = {a_, b_, c_, d_};
  uint64_t joins = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (size_t cap : {1, 2, 3, 4, 64}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " cap " << cap);
      util::Rng rng(seed);
      std::vector<graph::LabelId> labels(kVertices);
      for (auto& l : labels) l = pool[rng.Uniform(4)];
      auto pick = [&] {
        return static_cast<graph::VertexId>(
            rng.Uniform(2) == 0 ? rng.Uniform(kHubs) : rng.Uniform(kVertices));
      };
      MotifMatcher matcher(&trie_, &calc_,
                           MatcherConfig{.max_matches_per_vertex = cap});
      SlidingWindow window(kEdges);
      MatchList ml;
      std::vector<StreamEdge> fed;  // indexed by edge id
      while (fed.size() < kEdges) {
        const graph::VertexId u = pick(), v = pick();
        if (u == v) continue;
        const StreamEdge e = E(static_cast<graph::EdgeId>(fed.size()), u,
                               labels[u], v, labels[v]);
        if (matcher.SingleEdgeMotif(e) == nullptr) continue;
        window.Push(e);
        matcher.OnEdgeAdded(e, window, &ml);
        fed.push_back(e);
      }
      joins += matcher.stats().join_matches;

      std::set<MatchHandle> seen;
      for (const StreamEdge& fe : fed) {
        for (MatchHandle h : ml.LiveWithEdge(fe.id)) {
          if (!seen.insert(h).second) continue;
          const Match& m = ml.match(h);
          std::vector<StreamEdge> edges;
          std::vector<graph::VertexId> parent(kVertices);
          std::iota(parent.begin(), parent.end(), 0u);
          auto find = [&](graph::VertexId x) {
            while (parent[x] != x) x = parent[x] = parent[parent[x]];
            return x;
          };
          for (graph::EdgeId id : m.edges) {
            edges.push_back(fed[id]);
            parent[find(fed[id].u)] = find(fed[id].v);
          }
          for (graph::VertexId x : m.vertices) {
            EXPECT_EQ(find(x), find(m.vertices[0])) << "match not connected";
          }
          EXPECT_TRUE(trie_.IsMotif(m.node_id));
          EXPECT_EQ(calc_.ComputeSignature(edges), trie_.node(m.node_id).sig);
        }
      }
      EXPECT_EQ(seen.size(), ml.NumLive());
    }
  }
  EXPECT_GT(joins, 0u) << "joins must still fire on some seed";
}

TEST_F(JoinMatcherTest, BridgingEdgeJoinsTwoMatches) {
  // Two disjoint a-b edges, then a bridge making the 3-edge path b-a-b-a:
  // vertices 1(a)-2(b) and 3(a)-4(b); bridge (2,3).
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 3, a_, 4, b_));
  ASSERT_EQ(ml_.NumLive(), 2u);
  Feed(E(2, 2, b_, 3, a_));
  // Expect at least: 3 singles, two 2-edge extensions ({e0,e2}, {e1,e2}) and
  // the 3-edge join {e0,e1,e2}.
  EXPECT_GE(matcher_->stats().extension_matches, 2u);
  EXPECT_GE(matcher_->stats().join_matches, 1u);
  bool found_three = false;
  for (MatchHandle h : ml_.LiveAt(2)) {
    if (ml_.match(h).edges.size() == 3) found_three = true;
  }
  EXPECT_TRUE(found_three);
}

TEST_F(JoinMatcherTest, SquareCompletesViaAllFourEdges) {
  // Fig. 1's q1: the a-b-a-b square 1(a)-2(b)-3(a)-4(b)-1.
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 2, b_, 3, a_));
  Feed(E(2, 3, a_, 4, b_));
  Feed(E(3, 4, b_, 1, a_));
  bool found_square = false;
  for (MatchHandle h : ml_.LiveAt(1)) {
    if (ml_.match(h).edges.size() == 4) found_square = true;
  }
  EXPECT_TRUE(found_square) << "the 4-edge square motif must be matched";
}

TEST_F(JoinMatcherTest, MatchesNeverExceedLargestMotif) {
  // Feed a long a-b-a-b-... path; no match may exceed the largest motif (4
  // edges, the square — but a 5-vertex path is not a sub-graph of any query,
  // so 4-edge *path* matches must not appear either).
  const uint32_t max_edges = trie_.MaxMotifEdges();
  for (graph::EdgeId i = 0; i < 12; ++i) {
    graph::LabelId lu = (i % 2 == 0) ? a_ : b_;
    graph::LabelId lv = (i % 2 == 0) ? b_ : a_;
    Feed(E(i, i, lu, i + 1, lv));
  }
  for (graph::VertexId v = 0; v <= 12; ++v) {
    for (MatchHandle h : ml_.LiveAt(v)) {
      const Match& m = ml_.match(h);
      EXPECT_LE(m.edges.size(), max_edges);
      // Paths of length 4 are not sub-graphs of q1/q2/q3.
      if (m.edges.size() == 4) {
        // Must be the square (4 vertices), not a path (5 vertices).
        EXPECT_EQ(m.vertices.size(), 4u);
      }
    }
  }
}

TEST_F(MatcherTest, StatsAccumulate) {
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 2, b_, 3, c_));
  const MatcherStats& s = matcher_->stats();
  EXPECT_EQ(s.edges_admitted, 2u);
  EXPECT_EQ(s.single_edge_matches, 2u);
  EXPECT_EQ(s.extension_matches, 1u);
}

}  // namespace
}  // namespace motif
}  // namespace loom
