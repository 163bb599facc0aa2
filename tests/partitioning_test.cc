#include "partition/partitioning.h"

#include <gtest/gtest.h>

#include "graph/dynamic_graph.h"
#include "partition/hub_tally.h"
#include "partition/partition_metrics.h"

namespace loom {
namespace partition {
namespace {

TEST(PartitioningTest, CapacityFormula) {
  Partitioning p(4, 100, 1.1);
  EXPECT_EQ(p.Capacity(), 28u);  // ceil(1.1 * 100 / 4)
  Partitioning q(4, 100, 1.0);
  EXPECT_EQ(q.Capacity(), 25u);
}

TEST(PartitioningTest, AssignIsFirstWriterWins) {
  Partitioning p(2, 10);
  EXPECT_EQ(p.Assign(3, 1), 1u);
  EXPECT_EQ(p.Assign(3, 0), 1u);  // no-op, returns existing
  EXPECT_EQ(p.PartitionOf(3), 1u);
  EXPECT_EQ(p.Size(1), 1u);
  EXPECT_EQ(p.Size(0), 0u);
  EXPECT_EQ(p.NumAssigned(), 1u);
}

TEST(PartitioningTest, UnassignedIsNoPartition) {
  Partitioning p(2, 10);
  EXPECT_EQ(p.PartitionOf(5), graph::kNoPartition);
  EXPECT_FALSE(p.IsAssigned(5));
  EXPECT_EQ(p.PartitionOf(9999), graph::kNoPartition);  // out of range
}

TEST(PartitioningTest, CapacityOverflowDivertsToLeastLoaded) {
  Partitioning p(2, 4, 1.0);  // capacity 2 each
  p.Assign(0, 0);
  p.Assign(1, 0);
  EXPECT_TRUE(p.AtCapacity(0));
  EXPECT_EQ(p.Assign(2, 0), 1u);  // diverted
  EXPECT_EQ(p.Size(1), 1u);
}

TEST(PartitioningTest, MinMaxAndLeastLoaded) {
  Partitioning p(3, 30);
  p.Assign(0, 2);
  p.Assign(1, 2);
  p.Assign(2, 1);
  EXPECT_EQ(p.MinSize(), 0u);
  EXPECT_EQ(p.MaxSize(), 2u);
  EXPECT_EQ(p.LeastLoaded(), 0u);
}

TEST(PartitioningTest, GrowsBeyondExpectedVertices) {
  Partitioning p(2, 4);
  EXPECT_EQ(p.Assign(1000, 1), 1u);
  EXPECT_EQ(p.PartitionOf(1000), 1u);
}

// The look-ahead hints of the partition table and the hub cache grow
// neither: hints past the assignment table, on unassigned vertices and on
// vertices with and without a hub row leave both as they were.
TEST(PartitioningTest, LookaheadHintsLeaveTablesUnchanged) {
  graph::DynamicGraph g(4);
  for (graph::VertexId v = 0; v < 4; ++v) g.TouchVertex(v, 0);
  Partitioning p(2, 4);
  HubTallyCache hub(2, /*degree_threshold=*/2);
  g.AddEdge(0, 1);
  hub.OnEdgeVisible(0, 1, g, p);
  g.AddEdge(0, 2);
  hub.OnEdgeVisible(0, 2, g, p);  // vertex 0 reaches degree 2: a row
  hub.OnAssign(1, p.Assign(1, 1), g);
  const size_t table = p.assignments().size();
  for (const graph::VertexId v : {0u, 1u, 2u, 3u, 4u, 4096u,
                                  graph::kInvalidVertex}) {
    p.PrefetchVertex(v);
    hub.PrefetchVertex(v);
  }
  EXPECT_EQ(p.assignments().size(), table);
  EXPECT_EQ(p.NumAssigned(), 1u);
  EXPECT_EQ(p.PartitionOf(1), 1u);
  EXPECT_FALSE(p.IsAssigned(4096));
  ASSERT_NE(hub.Counts(0), nullptr);
  EXPECT_EQ(hub.Counts(0)[0], 0u);
  EXPECT_EQ(hub.Counts(0)[1], 1u);
  for (const graph::VertexId v : {1u, 2u, 3u, 4096u}) {
    EXPECT_EQ(hub.Counts(v), nullptr) << "v=" << v;
  }
}

// ----------------------------------------------------------------- metrics

graph::LabeledGraph Path4() {
  graph::LabeledGraph::Builder b;
  for (int i = 0; i < 4; ++i) b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  return b.Build();
}

TEST(PartitionMetricsTest, EdgeCutCounts) {
  graph::LabeledGraph g = Path4();
  Partitioning p(2, 4);
  p.Assign(0, 0);
  p.Assign(1, 0);
  p.Assign(2, 1);
  p.Assign(3, 1);
  EXPECT_EQ(EdgeCut(g, p), 1u);  // only edge (1,2) crosses
  EXPECT_NEAR(EdgeCutRatio(g, p), 1.0 / 3.0, 1e-12);
  EXPECT_TRUE(FullyAssigned(g, p));
}

TEST(PartitionMetricsTest, WorstCaseCut) {
  graph::LabeledGraph g = Path4();
  Partitioning p(2, 4);
  p.Assign(0, 0);
  p.Assign(1, 1);
  p.Assign(2, 0);
  p.Assign(3, 1);
  EXPECT_EQ(EdgeCut(g, p), 3u);
}

TEST(PartitionMetricsTest, ImbalanceZeroWhenEven) {
  Partitioning p(2, 4);
  p.Assign(0, 0);
  p.Assign(1, 0);
  p.Assign(2, 1);
  p.Assign(3, 1);
  EXPECT_NEAR(Imbalance(p), 0.0, 1e-12);
}

TEST(PartitionMetricsTest, ImbalanceMeasuresMaxOverIdeal) {
  Partitioning p(2, 4);
  p.Assign(0, 0);
  p.Assign(1, 0);
  p.Assign(2, 0);
  p.Assign(3, 1);
  // max = 3, ideal = 2 -> imbalance 0.5.
  EXPECT_NEAR(Imbalance(p), 0.5, 1e-12);
}

TEST(PartitionMetricsTest, NotFullyAssignedDetected) {
  graph::LabeledGraph g = Path4();
  Partitioning p(2, 4);
  p.Assign(0, 0);
  EXPECT_FALSE(FullyAssigned(g, p));
}

TEST(PartitionMetricsTest, EmptyGraphEdgeCases) {
  graph::LabeledGraph g;
  Partitioning p(2, 0);
  EXPECT_EQ(EdgeCut(g, p), 0u);
  EXPECT_EQ(EdgeCutRatio(g, p), 0.0);
  EXPECT_EQ(Imbalance(p), 0.0);
  EXPECT_TRUE(FullyAssigned(g, p));
}

}  // namespace
}  // namespace partition
}  // namespace loom
