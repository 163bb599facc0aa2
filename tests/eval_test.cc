#include "eval/experiment.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "datasets/dataset_registry.h"
#include "eval/report.h"

namespace loom {
namespace eval {
namespace {

ExperimentConfig FastConfig() {
  ExperimentConfig cfg;
  cfg.options.window_size = 256;
  cfg.executor.max_seeds = 300;
  return cfg;
}

TEST(ExperimentTest, RunSystemProducesCompleteResult) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  auto source = engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  SystemResult r = RunSystem("ldg", ds, *source, FastConfig());
  EXPECT_EQ(r.label, "ldg");
  EXPECT_GT(r.weighted_ipt, 0.0);
  EXPECT_GT(r.edge_cut, 0u);
  EXPECT_GE(r.partition_ms, 0.0);
  EXPECT_GT(r.ms_per_10k_edges, 0.0);
}

TEST(ExperimentTest, TimingOnlySkipsQueries) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  auto source = engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  SystemResult r =
      RunSystem("hash", ds, *source, FastConfig(), /*run_queries=*/false);
  EXPECT_EQ(r.weighted_ipt, 0.0);
  EXPECT_EQ(r.matches, 0u);
  EXPECT_GT(r.ms_per_10k_edges, 0.0);
}

// Table 2's edge-partitioner cells: the label is the spec as given, and the
// edge quality pair comes from the backend's final-stats counters.
TEST(ExperimentTest, EdgeBackendReportsEdgeQuality) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  auto source = engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  SystemResult r = RunSystem("hdrf:lambda=1.1", ds, *source, FastConfig(),
                             /*run_queries=*/false);
  EXPECT_EQ(r.label, "hdrf:lambda=1.1");
  EXPECT_GT(r.replication_factor, 0.0);
  EXPECT_GT(r.edge_balance, 0.0);
  EXPECT_NE(r.edge_assignment_hash, 0u);
}

TEST(ExperimentTest, BadSpecThrowsWithRegisteredBackends) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  auto source = engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  try {
    RunSystem("no-such-backend", ds, *source, FastConfig());
    FAIL() << "an unknown backend must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos) << what;
    for (const std::string& name :
         engine::PartitionerRegistry::Global().Names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
  EXPECT_THROW(RunSystem("loom:no_such_key=1", ds, *source, FastConfig()),
               std::invalid_argument);
}

TEST(ExperimentTest, ComparisonNormalisesAgainstHash) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.03);
  ComparisonResult cmp = RunComparison(ds, FastConfig());
  ASSERT_EQ(cmp.systems.size(), kPaperSystems.size());
  EXPECT_EQ(cmp.stream_edges, ds.NumEdges());
  const SystemResult* hash = cmp.Find("hash");
  ASSERT_NE(hash, nullptr);
  EXPECT_DOUBLE_EQ(hash->ipt_vs_hash, 1.0);
  for (size_t i = 0; i < cmp.systems.size(); ++i) {
    const SystemResult& r = cmp.systems[i];
    EXPECT_EQ(r.label, kPaperSystems[i]);
    EXPECT_GT(r.weighted_ipt, 0.0) << r.label;
    EXPECT_NEAR(r.ipt_vs_hash, r.weighted_ipt / hash->weighted_ipt, 1e-9);
  }
  EXPECT_EQ(cmp.Find("hdrf"), nullptr);
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
