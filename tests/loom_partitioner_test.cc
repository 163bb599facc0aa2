#include "core/loom_partitioner.h"

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "partition/partition_metrics.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace core {
namespace {

TEST(LoomPartitionerTest, FullyAssignsEveryVertex) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  LoomPartitioner loom(test_util::OptionsFor(ds, 8, 512), ds.workload,
                       ds.registry.size());
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  EXPECT_TRUE(partition::FullyAssigned(ds.graph, loom.partitioning()));
  EXPECT_EQ(loom.WindowSize(), 0u);  // window drained
}

TEST(LoomPartitionerTest, StatsAreConsistent) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  LoomPartitioner loom(test_util::OptionsFor(ds, 8, 512), ds.workload,
                       ds.registry.size());
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  const LoomStats& s = loom.stats();
  // Every edge either bypassed or was admitted to the window.
  EXPECT_EQ(s.edges_bypassed + loom.matcher_stats().edges_admitted,
            es.size());
  // Every admitted edge was eventually assigned through a cluster (or solo).
  EXPECT_EQ(s.cluster_edges_assigned, loom.matcher_stats().edges_admitted);
  EXPECT_GT(s.clusters_allocated, 0u);
}

TEST(LoomPartitionerTest, RespectsImbalanceBound) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  LoomPartitioner loom(test_util::OptionsFor(ds, 8, 512), ds.workload,
                       ds.registry.size());
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  EXPECT_LT(partition::Imbalance(loom.partitioning()), 0.12);
}

TEST(LoomPartitionerTest, FinalizeIsIdempotent) {
  auto ds = datasets::MakeFigure1Dataset();
  LoomPartitioner loom(test_util::OptionsFor(ds, 2, 4), ds.workload,
                       ds.registry.size());
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  size_t assigned = loom.partitioning().NumAssigned();
  loom.Finalize();
  EXPECT_EQ(loom.partitioning().NumAssigned(), assigned);
}

TEST(LoomPartitionerTest, TrieBuiltFromWorkload) {
  auto ds = datasets::MakeFigure1Dataset();
  LoomPartitioner loom(test_util::OptionsFor(ds, 2, 512), ds.workload,
                       ds.registry.size());
  EXPECT_EQ(loom.trie().NumNodes(), 11u);
  EXPECT_EQ(loom.trie().MotifIds().size(), 3u);
}

TEST(LoomPartitionerTest, NonMotifEdgesBypassWindow) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  LoomPartitioner loom(test_util::OptionsFor(ds, 4, 512), ds.workload,
                       ds.registry.size());
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  // ProvGen's Activity-Agent edges (support 30% < 40%) must bypass.
  EXPECT_GT(loom.stats().edges_bypassed, 0u);
  EXPECT_LT(loom.stats().edges_bypassed, es.size());
}

TEST(LoomPartitionerTest, TinyWindowStillCorrect) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.03);
  LoomPartitioner loom(test_util::OptionsFor(ds, 4, /*window=*/1), ds.workload,
                       ds.registry.size());
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  EXPECT_TRUE(partition::FullyAssigned(ds.graph, loom.partitioning()));
}

TEST(LoomPartitionerTest, WindowNeverExceedsCapacityBetweenIngests) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.03);
  const size_t t = 64;
  LoomPartitioner loom(test_util::OptionsFor(ds, 4, t), ds.workload,
                       ds.registry.size());
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) {
    loom.Ingest(e);
    EXPECT_LE(loom.WindowSize(), t);
  }
}

TEST(LoomPartitionerTest, DeterministicAcrossRuns) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.03);
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  LoomPartitioner a(test_util::OptionsFor(ds, 4, 512), ds.workload,
                    ds.registry.size());
  LoomPartitioner b(test_util::OptionsFor(ds, 4, 512), ds.workload,
                    ds.registry.size());
  for (const auto& e : es) {
    a.Ingest(e);
    b.Ingest(e);
  }
  a.Finalize();
  b.Finalize();
  for (graph::VertexId v = 0; v < ds.NumVertices(); ++v) {
    ASSERT_EQ(a.partitioning().PartitionOf(v), b.partitioning().PartitionOf(v));
  }
}

TEST(LoomPartitionerTest, MotifClustersColocated) {
  // The provgen E-A-E triples that Loom matches should be co-located far
  // more often than chance (1/k).
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  LoomPartitioner loom(test_util::OptionsFor(ds, 8, 2000), ds.workload,
                       ds.registry.size());
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();

  const graph::LabelId ent = ds.registry.Find("Entity");
  const graph::LabelId act = ds.registry.Find("Activity");
  size_t triples = 0, colocated = 0;
  const auto& part = loom.partitioning();
  for (graph::VertexId v = 0; v < ds.NumVertices(); ++v) {
    if (ds.graph.label(v) != act) continue;
    std::vector<graph::VertexId> ents;
    for (graph::VertexId w : ds.graph.Neighbors(v)) {
      if (ds.graph.label(w) == ent) ents.push_back(w);
    }
    if (ents.size() < 2) continue;
    ++triples;
    bool all = true;
    for (graph::VertexId w : ents) {
      if (part.PartitionOf(w) != part.PartitionOf(v)) all = false;
    }
    if (all) ++colocated;
  }
  ASSERT_GT(triples, 100u);
  EXPECT_GT(static_cast<double>(colocated) / static_cast<double>(triples), 0.4)
      << "motif co-location should far exceed the 1/k = 12.5% chance level";
}

}  // namespace
}  // namespace core
}  // namespace loom
