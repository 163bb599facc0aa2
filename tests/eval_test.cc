#include "eval/experiment.h"

#include <gtest/gtest.h>

#include <sstream>

#include "datasets/dataset_registry.h"
#include "eval/report.h"

namespace loom {
namespace eval {
namespace {

ExperimentConfig FastConfig() {
  ExperimentConfig cfg;
  cfg.window_size = 256;
  cfg.executor.max_seeds = 300;
  return cfg;
}

TEST(ExperimentTest, SystemNames) {
  EXPECT_EQ(ToString(System::kHash), "hash");
  EXPECT_EQ(ToString(System::kLdg), "ldg");
  EXPECT_EQ(ToString(System::kFennel), "fennel");
  EXPECT_EQ(ToString(System::kLoom), "loom");
  EXPECT_EQ(AllSystems().size(), 4u);
}

TEST(ExperimentTest, MakePartitionerProducesEverySystem) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  for (System s : AllSystems()) {
    auto p = MakePartitioner(s, ds, FastConfig());
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), ToString(s));
    EXPECT_EQ(p->partitioning().k(), 8u);
  }
}

TEST(ExperimentTest, RunSystemProducesCompleteResult) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  auto source = engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  SystemResult r = RunSystem(System::kLdg, ds, *source, FastConfig());
  EXPECT_EQ(r.system, System::kLdg);
  EXPECT_GT(r.weighted_ipt, 0.0);
  EXPECT_GT(r.edge_cut, 0u);
  EXPECT_GE(r.partition_ms, 0.0);
  EXPECT_GT(r.ms_per_10k_edges, 0.0);
}

TEST(ExperimentTest, TimingOnlySkipsQueries) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  auto source = engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  SystemResult r =
      RunSystemTimingOnly(System::kHash, ds, *source, FastConfig());
  EXPECT_EQ(r.weighted_ipt, 0.0);
  EXPECT_EQ(r.matches, 0u);
  EXPECT_GT(r.ms_per_10k_edges, 0.0);
}

TEST(ExperimentTest, ComparisonNormalisesAgainstHash) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.03);
  ComparisonResult cmp = RunComparison(ds, FastConfig());
  EXPECT_EQ(cmp.systems.size(), 4u);
  EXPECT_EQ(cmp.stream_edges, ds.NumEdges());
  const SystemResult* hash = cmp.Find(System::kHash);
  ASSERT_NE(hash, nullptr);
  EXPECT_DOUBLE_EQ(hash->ipt_vs_hash, 1.0);
  for (const SystemResult& r : cmp.systems) {
    EXPECT_GT(r.weighted_ipt, 0.0) << ToString(r.system);
    EXPECT_NEAR(r.ipt_vs_hash, r.weighted_ipt / hash->weighted_ipt, 1e-9);
  }
  EXPECT_EQ(cmp.Find(System::kLoom)->system, System::kLoom);
}

TEST(ReportTest, RelativeIptTableRenders) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  ComparisonResult cmp = RunComparison(ds, FastConfig());
  std::ostringstream os;
  PrintRelativeIptTable({cmp}, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("provgen"), std::string::npos);
  EXPECT_NE(out.find("loom"), std::string::npos);
  EXPECT_NE(out.find("100.0%"), std::string::npos);  // hash baseline
}

TEST(ReportTest, TimingTableRenders) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  ComparisonResult cmp = RunComparison(ds, FastConfig());
  std::ostringstream os;
  PrintTimingTable({cmp}, os);
  EXPECT_NE(os.str().find("loom (ms)"), std::string::npos);
}

TEST(ReportTest, ImbalanceTableRenders) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  ComparisonResult cmp = RunComparison(ds, FastConfig());
  std::ostringstream os;
  PrintImbalanceTable({cmp}, os);
  EXPECT_NE(os.str().find("provgen"), std::string::npos);
}

}  // namespace
}  // namespace eval
}  // namespace loom
