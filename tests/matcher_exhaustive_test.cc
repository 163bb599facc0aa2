// Cross-validation of the streaming matcher (Alg. 2) against brute force.
//
// The paper proves signatures admit no false negatives; the matcher built on
// them must therefore find EVERY motif-matching sub-graph whose edges are
// simultaneously inside the window. We verify that exhaustively: stream a
// random labelled graph with an unbounded window, enumerate every connected
// edge subset of the final window (brute force), test each for signature
// equality with a motif, and require the matchList to contain it.
//
// Two alphabets run the same leg: the Fig. 1 workload (4 labels, the
// original coverage) and a 40-label schema whose motifs live at the high
// end of the label space — the admission memo and any label-indexed
// residue staging are sized from num_labels at construction, and this leg
// is what catches a table sized for a small alphabet being probed with
// wide label ids (the memoised admission path never saw ids > 3 before).

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <map>
#include <set>

#include "datasets/workloads.h"
#include "motif/motif_matcher.h"
#include "tpstry/subgraph_enumerator.h"
#include "util/rng.h"

namespace loom {
namespace motif {
namespace {

/// Streams a random graph labelled from `label_pool` through a matcher
/// built on (registry, workload, threshold) with an unbounded window, then
/// brute-force checks that every window-resident motif match was found.
/// The matcher's final counters go to `*stats` when given.
void RunExhaustiveLeg(uint64_t seed, const graph::LabelRegistry& registry,
                      const query::Workload& workload, double threshold,
                      const std::vector<graph::LabelId>& label_pool,
                      MatcherStats* stats = nullptr) {
  util::Rng rng(seed);

  signature::LabelValues values(registry.size(), 251, 0xC0FFEE);
  signature::SignatureCalculator calc(&values);
  tpstry::Tpstry trie(&calc, threshold);
  for (const auto& q : workload.queries()) {
    trie.AddQuery(q.pattern, q.frequency);
  }
  MotifMatcher matcher(&trie, &calc);

  // Random small labelled graph, streamed in random order.
  const size_t n = 6 + rng.Uniform(4);
  std::vector<graph::LabelId> labels(n);
  for (auto& l : labels) l = label_pool[rng.Uniform(label_pool.size())];
  std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
  for (graph::VertexId v = 1; v < n; ++v) {
    edges.emplace_back(v, static_cast<graph::VertexId>(rng.Uniform(v)));
  }
  for (size_t i = 0; i < n / 2; ++i) {
    graph::VertexId a = static_cast<graph::VertexId>(rng.Uniform(n));
    graph::VertexId b = static_cast<graph::VertexId>(rng.Uniform(n));
    if (a == b) continue;
    bool dup = false;
    for (auto [x, y] : edges) {
      if ((x == a && y == b) || (x == b && y == a)) dup = true;
    }
    if (!dup) edges.emplace_back(a, b);
  }

  // Stream with an unbounded window.
  stream::SlidingWindow window(1000);
  MatchList ml;
  std::vector<stream::StreamEdge> admitted;
  graph::EdgeId next_id = 0;
  for (auto [u, v] : edges) {
    stream::StreamEdge e;
    e.id = next_id++;
    e.u = u;
    e.v = v;
    e.label_u = labels[u];
    e.label_v = labels[v];
    if (matcher.SingleEdgeMotif(e) == nullptr) continue;
    window.Push(e);
    matcher.OnEdgeAdded(e, window, &ml);
    admitted.push_back(e);
  }
  if (stats != nullptr) *stats = matcher.stats();
  if (admitted.empty()) return;  // nothing admissible under this seed
  ASSERT_LE(admitted.size(), 25u) << "keep brute force tractable";

  // Brute force: every connected subset of admitted edges whose signature
  // equals some motif's signature must be in the matchList.
  const size_t m = admitted.size();
  const uint32_t max_motif_edges = trie.MaxMotifEdges();
  size_t expected = 0, found = 0;
  for (uint64_t mask = 1; mask < (uint64_t{1} << m); ++mask) {
    const int bits = std::popcount(mask);
    if (bits < 1 || static_cast<uint32_t>(bits) > max_motif_edges) continue;
    std::vector<stream::StreamEdge> subset;
    for (size_t i = 0; i < m; ++i) {
      if (mask & (uint64_t{1} << i)) subset.push_back(admitted[i]);
    }
    // Connectivity check via union-find on vertex ids.
    std::set<graph::VertexId> verts;
    for (const auto& e : subset) {
      verts.insert(e.u);
      verts.insert(e.v);
    }
    std::map<graph::VertexId, graph::VertexId> parent;
    for (graph::VertexId v : verts) parent[v] = v;
    std::function<graph::VertexId(graph::VertexId)> find =
        [&](graph::VertexId x) {
          while (parent[x] != x) x = parent[x] = parent[parent[x]];
          return x;
        };
    for (const auto& e : subset) parent[find(e.u)] = find(e.v);
    bool connected = true;
    for (graph::VertexId v : verts) {
      if (find(v) != find(*verts.begin())) connected = false;
    }
    if (!connected) continue;

    signature::Signature sig = calc.ComputeSignature(subset);
    const tpstry::TpsNode* node = trie.FindBySignature(sig);
    if (node == nullptr || !trie.IsMotif(node->id)) continue;
    ++expected;

    // The matchList must contain exactly this edge set with this motif.
    bool present = false;
    for (MatchHandle h : ml.LiveWithEdge(subset[0].id)) {
      const Match& match = ml.match(h);
      if (match.node_id != node->id) continue;
      if (match.edges.size() != subset.size()) continue;
      bool same = true;
      for (const auto& e : subset) {
        if (!match.ContainsEdge(e.id)) same = false;
      }
      if (same) present = true;
    }
    if (present) ++found;
    EXPECT_TRUE(present) << "seed " << seed << ": motif match of "
                         << subset.size() << " edges missed by Alg. 2";
  }
  EXPECT_EQ(found, expected);
}

/// The Fig. 1 leg: its workload at a low threshold so multi-edge motifs (up
/// to the 4-edge square) are in play.
void RunFigure1Leg(uint64_t seed, MatcherStats* stats = nullptr) {
  graph::LabelRegistry registry;
  query::Workload workload = datasets::Figure1Workload(&registry);
  std::vector<graph::LabelId> pool;
  for (size_t l = 0; l < registry.size(); ++l) {
    pool.push_back(static_cast<graph::LabelId>(l));
  }
  RunExhaustiveLeg(seed, registry, workload, 0.05, pool, stats);
}

constexpr uint64_t kFigure1Seeds = 40;

class ExhaustiveMatchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExhaustiveMatchTest, MatcherFindsEveryWindowResidentMotifMatch) {
  RunFigure1Leg(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveMatchTest,
                         ::testing::Range<uint64_t>(0, kFigure1Seeds));

TEST(ExhaustiveJoinCoverageTest, JoinsFireAcrossTheFigure1Seeds) {
  // The brute force above only proves the join step if some seed needs it:
  // a filter that skipped every join would otherwise pass unnoticed.
  uint64_t joins = 0;
  for (uint64_t seed = 0; seed < kFigure1Seeds; ++seed) {
    MatcherStats stats;
    RunFigure1Leg(seed, &stats);
    joins += stats.join_matches;
  }
  EXPECT_GE(joins, 1u);
}

class WideAlphabetExhaustiveTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WideAlphabetExhaustiveTest, MemoisedAdmissionSurvivesWideLabelIds) {
  // 40 interned labels; the motifs use only the top of the id range, so
  // every admission probe indexes far beyond anything the Fig. 1 leg
  // reaches, and bypassed labels exercise the negative memo rows.
  graph::LabelRegistry registry;
  for (int i = 0; i < 40; ++i) {
    std::string name = "L";  // two-step append dodges a libstdc++ -Wrestrict
    name += std::to_string(i);
    registry.Intern(name);
  }
  auto L = [](int i) { return static_cast<graph::LabelId>(i); };
  query::Workload workload;
  workload.Add("hi-path2", graph::PatternGraph::Path({L(30), L(35)}), 0.30);
  workload.Add("hi-path3", graph::PatternGraph::Path({L(35), L(38), L(39)}),
               0.25);
  workload.Add("hi-star", graph::PatternGraph::Star(L(37), {L(31), L(33)}),
               0.25);
  workload.Add("hi-cycle", graph::PatternGraph::Cycle({L(30), L(36), L(39)}),
               0.20);
  // Stream labels: the motif labels plus low-id labels that can never match
  // (admission must reject them through the same memo).
  std::vector<graph::LabelId> pool;
  for (int i : {30, 31, 33, 35, 36, 37, 38, 39, 0, 1, 2, 7}) {
    pool.push_back(L(i));
  }
  RunExhaustiveLeg(0xA1FA00 + GetParam(), registry, workload, 0.02, pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideAlphabetExhaustiveTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace motif
}  // namespace loom
