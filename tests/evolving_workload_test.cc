// Tests for workload drift support (paper Sec. 6): TPSTry++ support decay
// and LoomPartitioner::UpdateWorkload.

#include <gtest/gtest.h>

#include "core/loom_partitioner.h"
#include "datasets/dataset_registry.h"
#include "datasets/workloads.h"
#include "partition/partition_metrics.h"
#include "query/workload_runner.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace core {
namespace {

TEST(DecaySupportsTest, ScalesSupportsAndTotalUniformly) {
  graph::LabelRegistry reg;
  query::Workload w = datasets::Figure1Workload(&reg);
  signature::LabelValues values(reg.size(), 251, 1);
  signature::SignatureCalculator calc(&values);
  tpstry::Tpstry trie(&calc, 0.4);
  for (const auto& q : w.queries()) trie.AddQuery(q.pattern, q.frequency);

  const auto motifs_before = trie.MotifIds();
  std::vector<double> supports_before;
  for (uint32_t id = 1; id < trie.NumNodes(); ++id) {
    supports_before.push_back(trie.NormalizedSupport(id));
  }

  trie.DecaySupports(0.5);

  // Uniform decay leaves *normalised* supports (and hence motifs) unchanged.
  EXPECT_EQ(trie.MotifIds(), motifs_before);
  for (uint32_t id = 1; id < trie.NumNodes(); ++id) {
    EXPECT_NEAR(trie.NormalizedSupport(id), supports_before[id - 1], 1e-9);
  }
  EXPECT_NEAR(trie.total_frequency(), 0.5, 1e-12);
}

TEST(DecaySupportsTest, DecayPlusAddShiftsMotifs) {
  graph::LabelRegistry reg;
  const graph::LabelId a = reg.Intern("a");
  const graph::LabelId b = reg.Intern("b");
  const graph::LabelId c = reg.Intern("c");
  signature::LabelValues values(reg.size(), 251, 1);
  signature::SignatureCalculator calc(&values);
  tpstry::Tpstry trie(&calc, 0.4);

  trie.AddQuery(graph::PatternGraph::Path({a, b}), 1.0);
  EXPECT_NE(trie.FindSingleEdgeMotif(calc.SingleEdgeSignature(a, b)), nullptr);
  EXPECT_EQ(trie.FindSingleEdgeMotif(calc.SingleEdgeSignature(b, c)), nullptr);

  // Decay a-b to 20% of the mass; add b-c with 80%.
  trie.DecaySupports(0.2);
  trie.AddQuery(graph::PatternGraph::Path({b, c}), 0.8);

  EXPECT_EQ(trie.FindSingleEdgeMotif(calc.SingleEdgeSignature(a, b)), nullptr)
      << "a-b demoted (20% < 40%)";
  EXPECT_NE(trie.FindSingleEdgeMotif(calc.SingleEdgeSignature(b, c)), nullptr)
      << "b-c promoted (80% >= 40%)";
}

TEST(UpdateWorkloadTest, ChangesAdmissionMaskMidStream) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);

  // Initial workload: derivation only -> Agent label not motif-relevant.
  graph::LabelRegistry& reg = ds.registry;
  query::Workload initial;
  initial.Add("derivation",
              graph::PatternGraph::Path({reg.Find("Entity"),
                                         reg.Find("Activity"),
                                         reg.Find("Entity")}),
              1.0);
  query::Workload shifted;
  shifted.Add("attribution",
              graph::PatternGraph::Path({reg.Find("Entity"),
                                         reg.Find("Activity"),
                                         reg.Find("Agent")}),
              1.0);

  engine::EngineOptions options;
  options.k = 4;
  options.expected_vertices = ds.NumVertices();
  options.expected_edges = ds.NumEdges();
  options.window_size = 256;

  LoomPartitioner loom(options, initial, reg.size());
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  const size_t half = es.size() / 2;
  size_t i = 0;
  for (const auto& e : es) {
    if (i++ == half) loom.UpdateWorkload(shifted, /*decay=*/0.1);
    loom.Ingest(e);
  }
  loom.Finalize();
  EXPECT_TRUE(partition::FullyAssigned(ds.graph, loom.partitioning()));

  // After the shift the Activity-Agent edge is a motif; some of the second
  // half's agent edges must have been admitted rather than bypassed, i.e.
  // admissions exceed the count of Entity-Activity edges alone.
  EXPECT_GT(loom.matcher_stats().edges_admitted, 0u);
  EXPECT_GT(loom.trie().NumNodes(), 3u);
}

TEST(UpdateWorkloadTest, FullReplacementWithZeroDecay) {
  auto ds = datasets::MakeFigure1Dataset();
  engine::EngineOptions options;
  options.k = 2;
  options.expected_vertices = ds.NumVertices();
  options.expected_edges = ds.NumEdges();
  LoomPartitioner loom(options, ds.workload, ds.registry.size());
  const size_t motifs_before = loom.trie().MotifIds().size();

  // Replace with a workload containing only q3 (the c-d path family).
  query::Workload replacement;
  replacement.Add("q3", ds.workload.queries()[2].pattern, 1.0);
  loom.UpdateWorkload(replacement, /*decay=*/0.0);

  // Every sub-graph of q3 is now a 100%-support motif; the old a-b-a-b
  // square family is demoted to ~0.
  EXPECT_NE(loom.trie().MotifIds().size(), motifs_before);
  EXPECT_EQ(loom.trie().MaxMotifEdges(), 3u);  // the full a-b-c-d path
}

TEST(UpdateWorkloadTest, PromotedMotifLetsBridgeJoinUntilDemoted) {
  // The matcher prunes joins by each trie node's motif depth (the longest
  // chain of motif children below it); UpdateWorkload must refresh it. Two
  // disjoint a-b edges and a b-a bridge form the path a-b-a-b, which only a
  // join of {a-b-a} with the far a-b edge can match.
  graph::LabelRegistry reg;
  const graph::LabelId a = reg.Intern("a");
  const graph::LabelId b = reg.Intern("b");
  query::Workload two_edge;  // a-b-a and b-a-b at 50% each: no 3-edge motif
  two_edge.Add("aba", graph::PatternGraph::Path({a, b, a}), 0.5);
  two_edge.Add("bab", graph::PatternGraph::Path({b, a, b}), 0.5);
  query::Workload three_edge;
  three_edge.Add("abab", graph::PatternGraph::Path({a, b, a, b}), 1.0);

  engine::EngineOptions options;
  options.k = 2;
  options.expected_vertices = 16;
  options.expected_edges = 16;
  options.window_size = 64;  // nothing is evicted
  LoomPartitioner loom(options, two_edge, reg.size());
  graph::EdgeId next_edge = 0;
  graph::VertexId next_vertex = 0;
  auto ingest = [&](graph::VertexId u, graph::LabelId lu, graph::VertexId v,
                    graph::LabelId lv) {
    stream::StreamEdge e;
    e.id = next_edge++;
    e.u = u;
    e.v = v;
    e.label_u = lu;
    e.label_v = lv;
    loom.Ingest(e);
  };
  // Returns the joins the bridge made, on four fresh vertices.
  auto bridge_joins = [&] {
    const graph::VertexId a1 = next_vertex++, b1 = next_vertex++;
    const graph::VertexId a2 = next_vertex++, b2 = next_vertex++;
    ingest(a1, a, b1, b);
    ingest(a2, a, b2, b);
    const uint64_t joins = loom.matcher_stats().join_matches;
    const uint64_t extensions = loom.matcher_stats().extension_matches;
    ingest(b1, b, a2, a);
    EXPECT_EQ(loom.matcher_stats().extension_matches - extensions, 2u)
        << "the bridge extends both a-b edges to 2-edge motifs";
    return loom.matcher_stats().join_matches - joins;
  };

  EXPECT_EQ(bridge_joins(), 0u) << "a-b-a-b is not in the trie yet";
  loom.UpdateWorkload(three_edge, /*decay=*/0.0);
  ASSERT_EQ(loom.trie().MaxMotifEdges(), 3u);
  EXPECT_EQ(bridge_joins(), 1u) << "a-b-a-b promoted: the bridge joins";
  loom.UpdateWorkload(two_edge, /*decay=*/0.0);
  ASSERT_EQ(loom.trie().MaxMotifEdges(), 2u);
  EXPECT_EQ(bridge_joins(), 0u) << "a-b-a-b demoted: no join";
}

TEST(UpdateWorkloadTest, StillBeatsStaleOnShiftedWorkload) {
  // End-to-end sanity of the Sec. 6 story (mirrors the ablation bench at
  // test scale): adapting at the shift must not be worse than staying stale.
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.35);
  graph::LabelRegistry& reg = ds.registry;
  query::Workload initial;  // attribution-dominant, like the ablation bench
  initial.Add("attribution",
              graph::PatternGraph::Path({reg.Find("Entity"),
                                         reg.Find("Activity"),
                                         reg.Find("Agent")}),
              0.7);
  initial.Add("derivation",
              graph::PatternGraph::Path({reg.Find("Entity"),
                                         reg.Find("Activity"),
                                         reg.Find("Entity")}),
              0.3);
  const query::Workload& final_w = ds.workload;

  auto run = [&](bool adapt) {
    engine::EngineOptions options;
    options.k = 8;
    options.expected_vertices = ds.NumVertices();
    options.expected_edges = ds.NumEdges();
    options.window_size = 1000;
    LoomPartitioner loom(options, initial, reg.size());
    auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
    const size_t half = es.size() / 2;
    size_t i = 0;
    for (const auto& e : es) {
      if (i++ == half && adapt) loom.UpdateWorkload(final_w, 0.2);
      loom.Ingest(e);
    }
    loom.Finalize();
    query::ExecutorConfig ex;
    ex.max_seeds = 1000;
    return query::RunWorkload(ds.graph, loom.partitioning(), final_w, ex)
        .weighted_ipt;
  };
  EXPECT_LT(run(/*adapt=*/true), run(/*adapt=*/false));
}

}  // namespace
}  // namespace core
}  // namespace loom
