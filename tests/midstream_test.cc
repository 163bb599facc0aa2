#include "eval/midstream.h"

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "stream/stream_order.h"

namespace loom {
namespace eval {
namespace {

engine::EngineOptions OptionsFor(const datasets::Dataset& ds, size_t window) {
  engine::EngineOptions options;
  options.k = 4;
  options.expected_vertices = ds.NumVertices();
  options.expected_edges = ds.NumEdges();
  options.window_size = window;
  return options;
}

TEST(MidstreamTest, ProducesRequestedCheckpoints) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const std::vector<graph::EdgeId> order =
      stream::EdgeOrderFor(ds.graph, stream::StreamOrder::kBreadthFirst);
  MidstreamConfig cfg;
  cfg.num_checkpoints = 3;
  MidstreamResult r = RunLoomMidstream(ds, order, OptionsFor(ds, 256), cfg);
  ASSERT_GE(r.checkpoints.size(), 3u);
  // Checkpoints are ordered and the final one covers the whole stream.
  for (size_t i = 1; i < r.checkpoints.size(); ++i) {
    EXPECT_GT(r.checkpoints[i].edges_streamed,
              r.checkpoints[i - 1].edges_streamed);
  }
  EXPECT_EQ(r.checkpoints.back().edges_streamed, order.size());
}

TEST(MidstreamTest, PtempShareGrowsWithWindow) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const std::vector<graph::EdgeId> order =
      stream::EdgeOrderFor(ds.graph, stream::StreamOrder::kBreadthFirst);
  auto share = [&](size_t window) {
    MidstreamResult r = RunLoomMidstream(ds, order, OptionsFor(ds, window));
    double total = 0;
    for (const auto& cp : r.checkpoints) total += cp.ptemp_share;
    return total / static_cast<double>(r.checkpoints.size());
  };
  EXPECT_LT(share(64), share(100000));
}

TEST(MidstreamTest, FinalCheckpointHasNoPtempAfterSmallWindow) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const std::vector<graph::EdgeId> order =
      stream::EdgeOrderFor(ds.graph, stream::StreamOrder::kBreadthFirst);
  MidstreamConfig cfg;
  cfg.num_checkpoints = 2;
  MidstreamResult r = RunLoomMidstream(ds, order, OptionsFor(ds, 32), cfg);
  // With a 32-edge window, at most a sliver of vertices sit in Ptemp at any
  // checkpoint.
  for (const auto& cp : r.checkpoints) {
    EXPECT_LT(cp.ptemp_share, 0.10);
  }
}

TEST(MidstreamTest, MeanMatchesCheckpoints) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const std::vector<graph::EdgeId> order =
      stream::EdgeOrderFor(ds.graph, stream::StreamOrder::kBreadthFirst);
  MidstreamResult r = RunLoomMidstream(ds, order, OptionsFor(ds, 256));
  double total = 0;
  for (const auto& cp : r.checkpoints) total += cp.weighted_ipt;
  EXPECT_NEAR(r.mean_weighted_ipt,
              total / static_cast<double>(r.checkpoints.size()), 1e-9);
}

TEST(MidstreamTest, EmptyStreamYieldsEmptyResult) {
  auto ds = datasets::MakeFigure1Dataset();
  const std::vector<graph::EdgeId> empty;
  MidstreamResult r = RunLoomMidstream(ds, empty, OptionsFor(ds, 8));
  EXPECT_TRUE(r.checkpoints.empty());
  EXPECT_EQ(r.mean_weighted_ipt, 0.0);
}

}  // namespace
}  // namespace eval
}  // namespace loom
