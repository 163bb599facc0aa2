#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <tuple>

#include "datasets/dataset_registry.h"
#include "engine/engine.h"
#include "partition/fennel_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"
#include "partition/partition_metrics.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace partition {
namespace {

using test_util::OptionsFor;
using test_util::RunAll;

// ---------------------------------------------------------------- hash

TEST(HashPartitionerTest, DeterministicPlacement) {
  auto ds = datasets::MakeFigure1Dataset();
  HashPartitioner a(OptionsFor(ds, 4)), b(OptionsFor(ds, 4));
  for (graph::VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(a.HashPlace(v), b.HashPlace(v));
    EXPECT_LT(a.HashPlace(v), 4u);
  }
}

TEST(HashPartitionerTest, RoughlyBalancedOnLargeInput) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  HashPartitioner p(OptionsFor(ds, 8));
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  RunAll(&p, es);
  EXPECT_TRUE(FullyAssigned(ds.graph, p.partitioning()));
  EXPECT_LT(Imbalance(p.partitioning()), 0.10);
}

// ----------------------------------------------------------------- ldg

TEST(LdgPartitionerTest, NearPerfectBalance) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  LdgPartitioner p(OptionsFor(ds, 8));
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  RunAll(&p, es);
  EXPECT_TRUE(FullyAssigned(ds.graph, p.partitioning()));
  // Strict C = n/k keeps LDG within a few percent (paper: 1-3%).
  EXPECT_LT(Imbalance(p.partitioning()), 0.05);
}

TEST(LdgPartitionerTest, BeatsHashOnEdgeCut) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  LdgPartitioner ldg(OptionsFor(ds, 8));
  HashPartitioner hash(OptionsFor(ds, 8));
  RunAll(&ldg, es);
  RunAll(&hash, es);
  EXPECT_LT(EdgeCut(ds.graph, ldg.partitioning()),
            EdgeCut(ds.graph, hash.partitioning()));
}

TEST(LdgHeuristicTest, FollowsNeighbourMajority) {
  graph::DynamicGraph seen;
  Partitioning part(2, 10);
  for (graph::VertexId v = 0; v < 5; ++v) seen.TouchVertex(v, 0);
  // Vertices 1, 2 in partition 1; vertex 0 connects to them.
  seen.AddEdge(0, 1);
  seen.AddEdge(0, 2);
  part.Assign(1, 1);
  part.Assign(2, 1);
  EXPECT_EQ(LdgHeuristic::ChooseForVertex(0, seen, part), 1u);
}

TEST(LdgHeuristicTest, ZeroSignalGoesLeastLoaded) {
  graph::DynamicGraph seen;
  Partitioning part(3, 30);
  seen.TouchVertex(0, 0);
  part.Assign(10, 0);  // make partition 0 bigger
  bool had_signal = true;
  stream::StreamEdge e;
  e.u = 0;
  e.v = 0;
  e.label_u = e.label_v = 0;
  graph::PartitionId chosen = LdgHeuristic::Choose(e, seen, part, &had_signal);
  EXPECT_FALSE(had_signal);
  EXPECT_NE(chosen, 0u);  // least-loaded is 1 or 2
}

TEST(LdgHeuristicTest, ResidualCapacityDiscountsFullPartitions) {
  graph::DynamicGraph seen;
  Partitioning part(2, 8, 1.0);  // capacity 4
  for (graph::VertexId v = 0; v < 8; ++v) seen.TouchVertex(v, 0);
  // Partition 0 nearly full with 3 of vertex 0's neighbours; partition 1 has
  // 2 neighbours but lots of room.
  seen.AddEdge(0, 1);
  seen.AddEdge(0, 2);
  seen.AddEdge(0, 3);
  seen.AddEdge(0, 4);
  seen.AddEdge(0, 5);
  part.Assign(1, 0);
  part.Assign(2, 0);
  part.Assign(3, 0);
  part.Assign(6, 0);  // filler -> partition 0 at capacity 4
  part.Assign(4, 1);
  part.Assign(5, 1);
  // Partition 0 is AtCapacity -> excluded; partition 1 wins.
  EXPECT_EQ(LdgHeuristic::ChooseForVertex(0, seen, part), 1u);
}

// -------------------------------------------------------------- fennel

TEST(FennelPartitionerTest, AlphaMatchesFormula) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  FennelPartitioner p(OptionsFor(ds, 8));
  const double n = static_cast<double>(ds.NumVertices());
  const double m = static_cast<double>(ds.NumEdges());
  EXPECT_NEAR(p.alpha(), std::sqrt(8.0) * m / std::pow(n, 1.5), 1e-9);
  EXPECT_DOUBLE_EQ(p.gamma(), 1.5);
}

TEST(FennelPartitionerTest, FullyAssignsAndRespectsImbalance) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  FennelPartitioner p(OptionsFor(ds, 8));
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  RunAll(&p, es);
  EXPECT_TRUE(FullyAssigned(ds.graph, p.partitioning()));
  EXPECT_LT(Imbalance(p.partitioning()), 0.11);
}

TEST(FennelPartitionerTest, BeatsLdgOnEdgeCut) {
  // The paper (citing [31]): Fennel cuts fewer edges than LDG at k = 8.
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.15);
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  FennelPartitioner fennel(OptionsFor(ds, 8));
  LdgPartitioner ldg(OptionsFor(ds, 8));
  RunAll(&fennel, es);
  RunAll(&ldg, es);
  EXPECT_LT(EdgeCut(ds.graph, fennel.partitioning()),
            EdgeCut(ds.graph, ldg.partitioning()));
}

// ------------------------------------- cross-system parameterised sweep

using SweepParam =
    std::tuple<datasets::DatasetId, stream::StreamOrder, uint32_t /*k*/>;

class PartitionerSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PartitionerSweepTest, AllSystemsFullyAssignWithinBalance) {
  auto [dataset, order, k] = GetParam();
  auto ds = datasets::MakeDataset(dataset, 0.05);
  auto es = test_util::Drain(ds.graph, order, 0x5eed);
  const engine::EngineOptions options = OptionsFor(ds, k);

  HashPartitioner hash(options);
  LdgPartitioner ldg(options);
  FennelPartitioner fennel(options);
  for (Partitioner* p :
       std::initializer_list<Partitioner*>{&hash, &ldg, &fennel}) {
    RunAll(p, es);
    EXPECT_TRUE(FullyAssigned(ds.graph, p->partitioning()))
        << p->name() << " on " << datasets::ToString(dataset);
    if (p->name() != "hash") {
      EXPECT_LT(Imbalance(p->partitioning()), 0.12) << p->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionerSweepTest,
    ::testing::Combine(
        ::testing::Values(datasets::DatasetId::kDblp,
                          datasets::DatasetId::kProvGen,
                          datasets::DatasetId::kLubm100),
        ::testing::Values(stream::StreamOrder::kBreadthFirst,
                          stream::StreamOrder::kDepthFirst,
                          stream::StreamOrder::kRandom),
        ::testing::Values(2u, 8u, 32u)));

// ------------------------------------------- Finalize contract (all backends)
//
// Pins the partitioner.h contract: Finalize is idempotent, and Ingest after
// Finalize resumes the stream (a later Finalize covers the new vertices).

class PartitionerContractTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PartitionerContractTest, DoubleFinalizeIsIdempotent) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);

  // The small OptionsFor window forces a real drain at Finalize.
  auto p = test_util::MakeBackend(GetParam(), test_util::OptionsFor(ds), ds);
  ASSERT_NE(p, nullptr);

  for (const stream::StreamEdge& e : es) p->Ingest(e);
  p->Finalize();
  const uint64_t first =
      partition::AssignmentHash(p->partitioning(), ds.NumVertices());
  const size_t assigned = p->partitioning().NumAssigned();
  p->Finalize();
  p->Finalize();
  EXPECT_EQ(partition::AssignmentHash(p->partitioning(), ds.NumVertices()),
            first);
  EXPECT_EQ(p->partitioning().NumAssigned(), assigned);
}

TEST_P(PartitionerContractTest, IngestAfterFinalizeResumesTheStream) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  ASSERT_GT(es.size(), 100u);

  auto p = test_util::MakeBackend(GetParam(), test_util::OptionsFor(ds), ds);
  ASSERT_NE(p, nullptr);

  // Finalize mid-stream (a checkpoint), then keep streaming.
  const size_t half = es.size() / 2;
  for (size_t i = 0; i < half; ++i) p->Ingest(es[i]);
  p->Finalize();
  for (size_t i = half; i < es.size(); ++i) p->Ingest(es[i]);
  p->Finalize();
  EXPECT_TRUE(FullyAssigned(ds.graph, p->partitioning())) << p->name();
}

TEST_P(PartitionerContractTest, IngestBatchMatchesPerEdgeIngest) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);

  const engine::EngineOptions options = test_util::OptionsFor(ds);
  auto per_edge = test_util::MakeBackend(GetParam(), options, ds);
  auto batched = test_util::MakeBackend(GetParam(), options, ds);
  ASSERT_NE(per_edge, nullptr);
  ASSERT_NE(batched, nullptr);

  for (const stream::StreamEdge& e : es) per_edge->Ingest(e);
  per_edge->Finalize();

  std::vector<stream::StreamEdge> all(es.begin(), es.end());
  const size_t kBatch = 61;  // awkward on purpose
  for (size_t i = 0; i < all.size(); i += kBatch) {
    batched->IngestBatch(std::span<const stream::StreamEdge>(
        all.data() + i, std::min(kBatch, all.size() - i)));
  }
  batched->Finalize();

  EXPECT_EQ(
      partition::AssignmentHash(per_edge->partitioning(), ds.NumVertices()),
      partition::AssignmentHash(batched->partitioning(), ds.NumVertices()))
      << GetParam();
}

TEST_P(PartitionerContractTest, SeededCheckpointScheduleIsDeterministic) {
  // Randomized schedule property: random batch sizes interleaved with
  // mid-stream Finalize checkpoints. Two runs of the same seeded schedule
  // must agree bit-for-bit, end fully assigned, and re-Finalize stably.
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kRandom, 0x7ab);
  const std::vector<stream::StreamEdge> all(es.begin(), es.end());
  const engine::EngineOptions options = test_util::OptionsFor(ds);

  auto run = [&](uint64_t seed) -> test_util::Quality {
    std::mt19937_64 rng(seed);
    auto p = test_util::MakeBackend(GetParam(), options, ds);
    if (p == nullptr) return {};
    size_t i = 0;
    while (i < all.size()) {
      const size_t n = std::min<size_t>(1 + rng() % 200, all.size() - i);
      p->IngestBatch(std::span<const stream::StreamEdge>(all.data() + i, n));
      i += n;
      if (rng() % 8 == 0) p->Finalize();  // checkpoint, then resume
    }
    p->Finalize();
    EXPECT_TRUE(FullyAssigned(ds.graph, p->partitioning())) << p->name();
    const test_util::Quality q = test_util::QualityOf(*p, ds);
    p->Finalize();
    EXPECT_EQ(test_util::QualityOf(*p, ds), q) << p->name();
    return q;
  };

  for (const uint64_t seed : {uint64_t{42}, uint64_t{0xfeed}}) {
    EXPECT_EQ(run(seed), run(seed)) << GetParam() << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PartitionerContractTest,
                         ::testing::Values("hash", "ldg", "fennel", "loom",
                                           "hdrf:lambda=1.1", "dbh",
                                           "hep:threshold_factor=4"));

}  // namespace
}  // namespace partition
}  // namespace loom
