#include "engine/edge_source.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace loom {
namespace engine {

GraphEdgeSource::GraphEdgeSource(const graph::LabeledGraph& graph,
                                 std::vector<graph::EdgeId> edge_order)
    : graph_(graph), order_(std::move(edge_order)) {
  // A malformed permutation silently streams the wrong graph (skipped or
  // doubled edges), which corrupts every downstream quality number — so
  // it is a real error in Release builds too, not a debug assert.
  if (order_.size() != graph_.NumEdges()) {
    throw std::invalid_argument(
        "GraphEdgeSource: edge_order has " + std::to_string(order_.size()) +
        " entries but the graph has " + std::to_string(graph_.NumEdges()) +
        " edges (expected a permutation of its edge ids)");
  }
  std::vector<bool> seen(order_.size(), false);
  for (size_t i = 0; i < order_.size(); ++i) {
    const graph::EdgeId e = order_[i];
    if (e >= order_.size()) {
      throw std::invalid_argument(
          "GraphEdgeSource: edge_order[" + std::to_string(i) + "] = " +
          std::to_string(e) + " is out of range (graph has " +
          std::to_string(order_.size()) +
          " edges; expected a permutation of [0, m))");
    }
    if (seen[e]) {
      throw std::invalid_argument(
          "GraphEdgeSource: edge_order repeats edge id " + std::to_string(e) +
          " (position " + std::to_string(i) +
          "); expected a permutation of [0, m)");
    }
    seen[e] = true;
  }
}

size_t GraphEdgeSource::NextBatch(std::span<stream::StreamEdge> out) {
  size_t produced = 0;
  while (produced < out.size() && pos_ < order_.size()) {
    const graph::Edge& e = graph_.edge(order_[pos_]);
    stream::StreamEdge& se = out[produced++];
    se.id = static_cast<graph::EdgeId>(pos_++);
    se.u = e.u;
    se.v = e.v;
    se.label_u = graph_.label(e.u);
    se.label_v = graph_.label(e.v);
  }
  return produced;
}

size_t SpanEdgeSource::NextBatch(std::span<stream::StreamEdge> out) {
  const size_t n = std::min(out.size(), edges_.size() - pos_);
  std::copy_n(edges_.begin() + static_cast<ptrdiff_t>(pos_), n, out.begin());
  pos_ += n;
  return n;
}

std::unique_ptr<EdgeSource> MakeEdgeSource(const graph::LabeledGraph& graph,
                                           stream::StreamOrder order,
                                           uint64_t seed) {
  return std::make_unique<GraphEdgeSource>(
      graph, stream::EdgeOrderFor(graph, order, seed));
}

std::unique_ptr<EdgeSource> MakeEdgeSource(const datasets::Dataset& ds,
                                           stream::StreamOrder order,
                                           uint64_t seed) {
  return MakeEdgeSource(ds.graph, order, seed);
}

}  // namespace engine
}  // namespace loom
