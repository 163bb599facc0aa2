// Differential proof obligations for the paged-adjacency arena and the hub
// tally cache (ROADMAP item 5): both are SPEED/LAYOUT knobs, so for every
// backend, every page capacity and every hub threshold must produce a
// partitioning bit-identical to the defaults. A page-boundary walk bug or a
// stale hub row does not crash — it silently moves vertices — so these
// differentials are the features' real acceptance gate, alongside the
// page=4 ctest leg that re-runs the core suites with LOOM_ADJ_PAGE=4.
//
// The suite also pins the self-loop policy end to end: backends ingesting a
// self-loop through the DIRECT API (below the io layer, which rejects them)
// must stay deterministic on a stream containing self-loops, and every knob
// remains behaviour-neutral on such a stream.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datasets/dataset_registry.h"
#include "engine/engine.h"
#include "graph/types.h"
#include "partition/partitioner.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace core {
namespace {

engine::EngineOptions WithKnobs(const engine::EngineOptions& base,
                                const std::string& adj_page,
                                const std::string& hub_threshold) {
  engine::EngineOptions o = base;
  std::string error;
  EXPECT_TRUE(o.Set("adj_page", adj_page, &error)) << error;
  EXPECT_TRUE(o.Set("hub_threshold", hub_threshold, &error)) << error;
  return o;
}

constexpr const char* kAllBackends[] = {"hash", "ldg", "fennel", "loom"};

TEST(AdjacencyEquivalenceTest, PageCapacityIsLayoutOnlyForEveryBackend) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const engine::EngineOptions base = test_util::OptionsFor(ds);
  for (const char* spec : kAllBackends) {
    // Explicit hub_threshold so the reference/variant pair differs ONLY in
    // page capacity (and stays immune to the CI leg's env overrides).
    const test_util::Quality reference = test_util::DriveSpec(
        spec, ds, WithKnobs(base, "64", "128"),
        stream::StreamOrder::kBreadthFirst, 0x5eed, 97);
    for (const char* page : {"1", "3", "4", "1024"}) {
      EXPECT_EQ(test_util::DriveSpec(spec, ds, WithKnobs(base, page, "128"),
                                     stream::StreamOrder::kBreadthFirst,
                                     0x5eed, 97),
                reference)
          << spec << " adj_page=" << page;
    }
  }
}

TEST(AdjacencyEquivalenceTest, HubThresholdIsSpeedOnlyForEveryBackend) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kMusicBrainz, 0.05);
  const engine::EngineOptions base = test_util::OptionsFor(ds);
  for (const char* spec : kAllBackends) {
    // Reference: hub cache disabled outright (threshold UINT32_MAX — no
    // vertex ever qualifies), i.e. the plain tally-every-decision path.
    const test_util::Quality reference = test_util::DriveSpec(
        spec, ds, WithKnobs(base, "64", "4294967295"),
        stream::StreamOrder::kRandom, 0xabc, 256);
    // threshold 1 makes EVERY touched vertex a hub (maximum cache traffic),
    // 8 mixes hub and walked tallies, 128 is the production default.
    for (const char* thr : {"1", "8", "128"}) {
      EXPECT_EQ(test_util::DriveSpec(spec, ds, WithKnobs(base, "64", thr),
                                     stream::StreamOrder::kRandom, 0xabc, 256),
                reference)
          << spec << " hub_threshold=" << thr;
    }
  }
}

// The knobs compose: tiny pages force chunked hub materialisation while
// every decision alternates between hub rows and chain walks.
TEST(AdjacencyEquivalenceTest, TinyPagesAndAggressiveHubCompose) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kDblp, 0.04);
  const engine::EngineOptions base = test_util::OptionsFor(ds);
  for (const char* spec : {"ldg", "loom"}) {
    const test_util::Quality reference = test_util::DriveSpec(
        spec, ds, WithKnobs(base, "64", "4294967295"),
        stream::StreamOrder::kDepthFirst, 0x5eed, 512);
    EXPECT_EQ(test_util::DriveSpec(spec, ds, WithKnobs(base, "1", "1"),
                                   stream::StreamOrder::kDepthFirst, 0x5eed,
                                   512),
              reference)
        << spec;
  }
}

// --------------------------------------------------------------- self-loops

/// A real dataset stream with a self-loop injected every `stride` edges
/// (endpoint and label copied from the preceding edge, ids renumbered to
/// stay dense stream positions).
std::vector<stream::StreamEdge> StreamWithSelfLoops(
    const datasets::Dataset& ds, size_t stride) {
  const std::vector<stream::StreamEdge> es =
      test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  std::vector<stream::StreamEdge> edges;
  edges.reserve(es.size() + es.size() / stride + 1);
  for (size_t i = 0; i < es.size(); ++i) {
    edges.push_back(es[i]);
    if (i % stride == stride - 1) {
      stream::StreamEdge loop = es[i];
      loop.v = loop.u;
      loop.label_v = loop.label_u;
      edges.push_back(loop);
    }
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    edges[i].id = static_cast<graph::EdgeId>(i);
  }
  return edges;
}

std::vector<graph::PartitionId> IngestAndCollect(
    partition::Partitioner* p, const std::vector<stream::StreamEdge>& edges,
    size_t num_vertices) {
  for (const stream::StreamEdge& e : edges) p->Ingest(e);
  p->Finalize();
  std::vector<graph::PartitionId> out(num_vertices);
  for (graph::VertexId v = 0; v < num_vertices; ++v) {
    out[v] = p->partitioning().PartitionOf(v);
  }
  return out;
}

// Every vertex backend must digest a self-loop-bearing stream without
// divergence: deterministic (two runs bit-equal), layout-independent
// (page 1 == page 64) and hub-cache-independent.
TEST(SelfLoopPolicyTest, AllBackendsAgreeOnSelfLoopStreams) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const engine::EngineOptions base = test_util::OptionsFor(ds);
  const std::vector<stream::StreamEdge> edges = StreamWithSelfLoops(ds, 37);
  const size_t n = ds.graph.NumVertices();

  for (const char* spec : kAllBackends) {
    auto first = test_util::MakeBackend(spec, WithKnobs(base, "64", "128"), ds);
    auto again = test_util::MakeBackend(spec, WithKnobs(base, "64", "128"), ds);
    auto page1 = test_util::MakeBackend(spec, WithKnobs(base, "1", "128"), ds);
    auto nohub =
        test_util::MakeBackend(spec, WithKnobs(base, "64", "4294967295"), ds);
    ASSERT_NE(first, nullptr) << spec;
    ASSERT_NE(again, nullptr) << spec;
    ASSERT_NE(page1, nullptr) << spec;
    ASSERT_NE(nohub, nullptr) << spec;

    const auto reference = IngestAndCollect(first.get(), edges, n);
    EXPECT_EQ(IngestAndCollect(again.get(), edges, n), reference)
        << spec << ": nondeterministic on a self-loop stream";
    EXPECT_EQ(IngestAndCollect(page1.get(), edges, n), reference)
        << spec << ": page capacity changed self-loop handling";
    EXPECT_EQ(IngestAndCollect(nohub.get(), edges, n), reference)
        << spec << ": hub cache changed self-loop handling";
  }
}

}  // namespace
}  // namespace core
}  // namespace loom
