// End-to-end checks of the headline claims: Loom's partitionings beat the
// naive and workload-agnostic baselines on workload ipt, across datasets and
// stream orders, while staying balanced. These run at reduced scale so the
// full suite stays fast; the bench binaries reproduce the paper-scale
// figures.

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "eval/experiment.h"
#include "partition/partition_metrics.h"
#include "test_util.h"

namespace loom {
namespace eval {
namespace {

ExperimentConfig FastConfig(stream::StreamOrder order, uint32_t k = 8) {
  ExperimentConfig cfg;
  cfg.order = order;
  cfg.options.k = k;
  cfg.options.window_size = 1000;
  cfg.executor.max_seeds = 1000;
  return cfg;
}

class OrderSweepTest : public ::testing::TestWithParam<stream::StreamOrder> {};

TEST_P(OrderSweepTest, LoomBeatsHashAndLdgOnProvGen) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.2);
  ComparisonResult cmp = RunComparison(ds, FastConfig(GetParam()));
  const double hash = cmp.Find("hash")->weighted_ipt;
  const double ldg = cmp.Find("ldg")->weighted_ipt;
  const double loom = cmp.Find("loom")->weighted_ipt;
  EXPECT_LT(loom, hash * 0.8) << stream::ToString(GetParam());
  EXPECT_LT(loom, ldg) << stream::ToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Orders, OrderSweepTest,
                         ::testing::Values(stream::StreamOrder::kBreadthFirst,
                                           stream::StreamOrder::kDepthFirst,
                                           stream::StreamOrder::kRandom),
                         [](const auto& info) {
                           return stream::ToString(info.param);
                         });

TEST(IntegrationTest, LoomBeatsFennelOnOrderedProvGen) {
  // The paper's headline: 15-40%+ fewer ipt than Fennel on ordered streams.
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.2);
  ComparisonResult cmp =
      RunComparison(ds, FastConfig(stream::StreamOrder::kBreadthFirst));
  const double fennel = cmp.Find("fennel")->weighted_ipt;
  const double loom = cmp.Find("loom")->weighted_ipt;
  EXPECT_LT(loom, fennel * 0.9);
}

TEST(IntegrationTest, LoomBeatsFennelOnMusicBrainz) {
  // MusicBrainz is the most heterogeneous dataset; the paper reports Loom's
  // largest margin there.
  auto ds = datasets::MakeDataset(datasets::DatasetId::kMusicBrainz, 0.15);
  ExperimentConfig cfg = FastConfig(stream::StreamOrder::kBreadthFirst);
  cfg.options.window_size = 2000;
  ComparisonResult cmp = RunComparison(ds, cfg);
  const double fennel = cmp.Find("fennel")->weighted_ipt;
  const double loom = cmp.Find("loom")->weighted_ipt;
  EXPECT_LT(loom, fennel);
}

class KSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KSweepTest, RelativeStandingsStableAcrossK) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.15);
  ComparisonResult cmp =
      RunComparison(ds, FastConfig(stream::StreamOrder::kBreadthFirst,
                                   GetParam()));
  const double hash = cmp.Find("hash")->weighted_ipt;
  const double loom = cmp.Find("loom")->weighted_ipt;
  if (GetParam() > 1) {
    EXPECT_LT(loom, hash);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KSweepTest, ::testing::Values(2u, 8u, 32u));

TEST(IntegrationTest, AllSystemsProduceValidPartitionings) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kLubm100, 0.1);
  auto es = test_util::Drain(ds.graph, stream::StreamOrder::kDepthFirst);
  for (std::string_view spec : kPaperSystems) {
    auto p = test_util::MakeBackend(spec, test_util::OptionsFor(ds, 8, 1000),
                                    ds);
    ASSERT_NE(p, nullptr);
    test_util::RunAll(p.get(), es);
    EXPECT_TRUE(partition::FullyAssigned(ds.graph, p->partitioning()))
        << spec;
  }
}

TEST(IntegrationTest, LoomWindowSizeImprovesQualityUpToAPoint) {
  // Fig. 9's shape: growing the window from tiny to moderate reduces ipt.
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.2);
  auto source = engine::MakeEdgeSource(ds, stream::StreamOrder::kRandom, 7);
  double tiny_ipt = 0, large_ipt = 0;
  for (size_t window : {16u, 4096u}) {
    ExperimentConfig cfg = FastConfig(stream::StreamOrder::kRandom);
    cfg.options.window_size = window;
    SystemResult r = RunSystem("loom", ds, *source, cfg);
    if (window == 16u) {
      tiny_ipt = r.weighted_ipt;
    } else {
      large_ipt = r.weighted_ipt;
    }
  }
  EXPECT_LT(large_ipt, tiny_ipt);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kDblp, 0.05);
  ExperimentConfig cfg = FastConfig(stream::StreamOrder::kRandom);
  ComparisonResult a = RunComparison(ds, cfg);
  ComparisonResult b = RunComparison(ds, cfg);
  for (size_t i = 0; i < a.systems.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.systems[i].weighted_ipt, b.systems[i].weighted_ipt);
    EXPECT_EQ(a.systems[i].edge_cut, b.systems[i].edge_cut);
  }
}

}  // namespace
}  // namespace eval
}  // namespace loom
