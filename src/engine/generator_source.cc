#include "engine/generator_source.h"

#include <numeric>
#include <stdexcept>
#include <utility>

#include "graph/labeled_graph.h"
#include "util/rng.h"

namespace loom {
namespace engine {

namespace {

/// GraphSink that records labels and raw edges — nothing else.
class CollectorSink : public datasets::GraphSink {
 public:
  graph::VertexId AddVertex(graph::LabelId label) override {
    labels_.push_back(label);
    return static_cast<graph::VertexId>(labels_.size() - 1);
  }

  void AddEdge(graph::VertexId u, graph::VertexId v) override {
    edges_.emplace_back(u, v);
  }

  std::vector<graph::LabelId>& labels() { return labels_; }
  std::vector<graph::Edge>& edges() { return edges_; }

 private:
  std::vector<graph::LabelId> labels_;
  std::vector<graph::Edge> edges_;
};

}  // namespace

GeneratorEdgeSource::GeneratorEdgeSource(datasets::DatasetId id, double scale,
                                         stream::StreamOrder order,
                                         uint64_t seed) {
  if (order == stream::StreamOrder::kBreadthFirst ||
      order == stream::StreamOrder::kDepthFirst) {
    throw std::invalid_argument(
        "GeneratorEdgeSource: order '" + stream::ToString(order) +
        "' needs the materialised graph's adjacency; use "
        "engine::MakeEdgeSource(MakeDataset(...), order) for bfs/dfs, or "
        "stream canonical/random lazily");
  }

  CollectorSink sink;
  datasets::EmitDatasetEdges(id, scale, &registry_, &sink);

  // LabeledGraph::Builder::Build's edge numbering, so the surviving
  // sequence matches the built graph's edge-id order exactly.
  const std::vector<graph::Edge> uniq =
      graph::CanonicalEdges(std::move(sink.edges()));

  // Replicate MakeDataset's DropIsolatedVertices: compact away vertices no
  // surviving edge touches, preserving id order (the remap is monotone, so
  // both the (min,max) orientation and the sort order carry over).
  const std::vector<graph::LabelId>& raw_labels = sink.labels();
  std::vector<graph::VertexId> remap(raw_labels.size(), graph::kInvalidVertex);
  for (const graph::Edge& e : uniq) {
    remap[e.u] = 0;
    remap[e.v] = 0;
  }
  labels_.reserve(raw_labels.size());
  graph::VertexId next = 0;
  for (graph::VertexId v = 0; v < remap.size(); ++v) {
    if (remap[v] == graph::kInvalidVertex) continue;
    remap[v] = next++;
    labels_.push_back(raw_labels[v]);
  }
  edges_.reserve(uniq.size());
  for (const graph::Edge& e : uniq) {
    edges_.emplace_back(remap[e.u], remap[e.v]);
  }

  if (order == stream::StreamOrder::kRandom) {
    // Same permutation construction as EdgeOrderFor(kRandom): iota over
    // edge ids, Fisher-Yates under Rng(seed).
    std::vector<graph::EdgeId> perm(edges_.size());
    std::iota(perm.begin(), perm.end(), 0);
    util::Rng rng(seed);
    rng.Shuffle(&perm);
    std::vector<graph::Edge> shuffled;
    shuffled.reserve(edges_.size());
    for (graph::EdgeId eid : perm) shuffled.push_back(edges_[eid]);
    edges_ = std::move(shuffled);
  }
}

size_t GeneratorEdgeSource::NextBatch(std::span<stream::StreamEdge> out) {
  size_t produced = 0;
  while (produced < out.size() && pos_ < edges_.size()) {
    const graph::Edge& e = edges_[pos_];
    stream::StreamEdge& se = out[produced++];
    se.id = static_cast<graph::EdgeId>(pos_++);
    se.u = e.u;
    se.v = e.v;
    se.label_u = labels_[e.u];
    se.label_v = labels_[e.v];
  }
  return produced;
}

}  // namespace engine
}  // namespace loom
