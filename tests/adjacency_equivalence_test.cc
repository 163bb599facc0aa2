// Proof obligations for the paged-adjacency arena and the hub tally cache.
// Both are SPEED/LAYOUT machinery: neighbour order, every tally and every
// decision must be the ones a plain vector-of-vectors graph gives. A
// page-boundary walk bug or a stale hub row does not crash — it silently
// moves vertices — so this suite checks them two ways:
//
//   * a direct oracle: a stream with self-loops is fed into graphs with
//     tiny and default page capacities and aggressive hub thresholds, and
//     at every edge the chunked tally, every hub row and LDG's choice are
//     compared against brute force over a vector<vector<VertexId>> copy;
//   * end-to-end differentials: every backend's partitioning is
//     bit-identical with the hub cache on, off, or at another threshold.
//
// The suite also pins the self-loop policy end to end: backends ingesting a
// self-loop through the DIRECT API (below the io layer, which rejects them)
// must stay deterministic on a stream containing self-loops, and the hub
// cache remains behaviour-neutral on such a stream.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datasets/dataset_registry.h"
#include "engine/engine.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "partition/hub_tally.h"
#include "partition/ldg_partitioner.h"
#include "partition/partitioner.h"
#include "partition/partitioning.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace core {
namespace {

engine::EngineOptions WithHubThreshold(const engine::EngineOptions& base,
                                       const std::string& hub_threshold) {
  engine::EngineOptions o = base;
  std::string error;
  EXPECT_TRUE(o.Set("hub_threshold", hub_threshold, &error)) << error;
  return o;
}

constexpr const char* kAllBackends[] = {"hash", "ldg", "fennel", "loom"};

TEST(AdjacencyEquivalenceTest, HubThresholdIsSpeedOnlyForEveryBackend) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kMusicBrainz, 0.05);
  const engine::EngineOptions base = test_util::OptionsFor(ds);
  for (const char* spec : kAllBackends) {
    // Reference: hub cache disabled outright (threshold UINT32_MAX — no
    // vertex ever qualifies), i.e. the plain tally-every-decision path.
    const test_util::Quality reference = test_util::DriveSpec(
        spec, ds, WithHubThreshold(base, "4294967295"),
        stream::StreamOrder::kRandom, 0xabc, 256);
    // threshold 1 makes EVERY touched vertex a hub (maximum cache traffic),
    // 8 mixes hub and walked tallies, 128 is the production default.
    for (const char* thr : {"1", "8", "128"}) {
      EXPECT_EQ(test_util::DriveSpec(spec, ds, WithHubThreshold(base, thr),
                                     stream::StreamOrder::kRandom, 0xabc, 256),
                reference)
          << spec << " hub_threshold=" << thr;
    }
  }
}

// Every touched vertex a hub, on a depth-first stream: every decision reads
// hub rows only.
TEST(AdjacencyEquivalenceTest, EveryVertexAHubMatchesNoHubOnDfs) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kDblp, 0.04);
  const engine::EngineOptions base = test_util::OptionsFor(ds);
  for (const char* spec : {"ldg", "loom"}) {
    const test_util::Quality reference = test_util::DriveSpec(
        spec, ds, WithHubThreshold(base, "4294967295"),
        stream::StreamOrder::kDepthFirst, 0x5eed, 512);
    EXPECT_EQ(test_util::DriveSpec(spec, ds, WithHubThreshold(base, "1"),
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
// divergence: deterministic (two runs bit-equal) and hub-cache-independent.
// The direct oracle above covers page capacities on the same kind of
// stream.
TEST(SelfLoopPolicyTest, AllBackendsAgreeOnSelfLoopStreams) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const engine::EngineOptions base = test_util::OptionsFor(ds);
  const std::vector<stream::StreamEdge> edges = StreamWithSelfLoops(ds, 37);
  const size_t n = ds.graph.NumVertices();

  for (const char* spec : kAllBackends) {
    auto first = test_util::MakeBackend(spec, WithHubThreshold(base, "128"), ds);
    auto again = test_util::MakeBackend(spec, WithHubThreshold(base, "128"), ds);
    auto nohub =
        test_util::MakeBackend(spec, WithHubThreshold(base, "4294967295"), ds);
    ASSERT_NE(first, nullptr) << spec;
    ASSERT_NE(again, nullptr) << spec;
    ASSERT_NE(nohub, nullptr) << spec;

    const auto reference = IngestAndCollect(first.get(), edges, n);
    EXPECT_EQ(IngestAndCollect(again.get(), edges, n), reference)
        << spec << ": nondeterministic on a self-loop stream";
    EXPECT_EQ(IngestAndCollect(nohub.get(), edges, n), reference)
        << spec << ": hub cache changed self-loop handling";
  }
}

// ------------------------------------------------------------ direct oracle

/// Per-partition counts of the assigned entries of `nbrs` (plain copy).
std::vector<uint32_t> BruteTally(const std::vector<graph::VertexId>& nbrs,
                                 const partition::Partitioning& part) {
  std::vector<uint32_t> counts(part.k(), 0);
  for (const graph::VertexId w : nbrs) {
    if (part.IsAssigned(w)) ++counts[part.PartitionOf(w)];
  }
  return counts;
}

/// LDG's rule restated over plain counts: argmax count * (1 - |Si|/C) over
/// partitions with room, ties to the smaller partition; the least-loaded
/// partition when no partition scores above zero.
graph::PartitionId BruteChoose(const std::vector<uint32_t>& counts,
                               const partition::Partitioning& part) {
  const double capacity = static_cast<double>(part.Capacity());
  graph::PartitionId best = graph::kNoPartition;
  double best_score = -1.0;
  for (graph::PartitionId p = 0; p < part.k(); ++p) {
    if (part.AtCapacity(p)) continue;
    const double score =
        counts[p] * (1.0 - static_cast<double>(part.Size(p)) / capacity);
    if (score > best_score ||
        (score == best_score && best != graph::kNoPartition &&
         part.Size(p) < part.Size(best))) {
      best = p;
      best_score = score;
    }
  }
  if (best == graph::kNoPartition || best_score == 0.0) {
    return part.LeastLoaded();
  }
  return best;
}

// Page capacity 1 makes every entry its own page, 3 leaves ragged tails, 64
// is the production value; hub threshold 1 makes every touched vertex a hub
// and 8 mixes hub rows with chain walks. Every fourth edge leaves its
// endpoints unassigned, so hub rows also collect entries at assignment time
// (OnAssign), not only at visibility time.
TEST(AdjacencyOracleTest, TalliesHubRowsAndLdgChoicesMatchBruteForce) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kMusicBrainz, 0.02);
  const std::vector<stream::StreamEdge> edges = StreamWithSelfLoops(ds, 37);
  const size_t n = ds.graph.NumVertices();
  constexpr uint32_t kK = 4;
  for (const uint32_t page : {1u, 3u, 64u}) {
    for (const uint32_t threshold : {1u, 8u}) {
      SCOPED_TRACE("page=" + std::to_string(page) +
                   " hub_threshold=" + std::to_string(threshold));
      graph::DynamicGraph g(n, page);
      partition::HubTallyCache hub(kK, threshold);
      partition::Partitioning part(kK, n, /*nu=*/1.0);
      std::vector<std::vector<graph::VertexId>> ref(n);
      uint64_t rows_checked = 0;
      for (size_t i = 0; i < edges.size(); ++i) {
        const stream::StreamEdge& e = edges[i];
        g.TouchVertex(e.u, e.label_u);
        g.TouchVertex(e.v, e.label_v);
        g.AddEdge(e.u, e.v);
        hub.OnEdgeVisible(e.u, e.v, g, part);
        ref[e.u].push_back(e.v);
        if (e.u != e.v) ref[e.v].push_back(e.u);

        std::vector<uint32_t> edge_counts(kK, 0);
        for (const graph::VertexId x : {e.u, e.v}) {
          ASSERT_EQ(g.Neighbors(x).ToVector(), ref[x]) << "edge " << i;
          const std::vector<uint32_t> expect = BruteTally(ref[x], part);
          std::vector<uint32_t> tally(kK, 0);
          part.TallyNeighbors(g.Neighbors(x), tally.data());
          ASSERT_EQ(tally, expect) << "edge " << i << " vertex " << x;
          if (threshold == 1) {
            ASSERT_NE(hub.Counts(x), nullptr) << "vertex " << x;
          }
          for (uint32_t p = 0; p < kK; ++p) edge_counts[p] += expect[p];
        }
        for (graph::VertexId x = 0; x < n; ++x) {
          const uint32_t* row = hub.Counts(x);
          if (row == nullptr) continue;
          ++rows_checked;
          ASSERT_EQ(std::vector<uint32_t>(row, row + kK),
                    BruteTally(ref[x], part))
              << "edge " << i << " hub " << x;
        }
        ASSERT_EQ(partition::LdgHeuristic::Choose(e, g, part, nullptr, &hub),
                  BruteChoose(edge_counts, part))
            << "edge " << i;

        if (i % 4 == 3) continue;
        for (const graph::VertexId x : {e.u, e.v}) {
          if (part.IsAssigned(x)) continue;
          const graph::PartitionId target =
              partition::LdgHeuristic::ChooseForVertex(x, g, part, &hub);
          ASSERT_EQ(target, BruteChoose(BruteTally(ref[x], part), part))
              << "edge " << i << " vertex " << x;
          hub.OnAssign(x, part.Assign(x, target), g);
        }
      }
      EXPECT_GT(rows_checked, 0u);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace loom
