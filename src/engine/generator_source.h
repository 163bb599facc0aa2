// Lazy dataset-generator edge source: stream a Table 1 dataset without
// building the graph.
//
// MakeDataset materialises a full CSR LabeledGraph (edges + two adjacency
// mirrors + offsets, ~24 bytes/edge) plus the workload before a single
// edge is streamed. GeneratorEdgeSource runs the same generator walk
// through the datasets::GraphSink seam but keeps only what streaming
// needs: the normalised edge list (8 bytes/edge) and one label per vertex
// — about a third of the footprint, and no adjacency structure at all.
// That is what lets LUBM stream at full paper scale on hardware that
// cannot hold its CSR form.
//
// Fidelity: the source replicates LabeledGraph::Builder::Build's
// normalisation (self-loop drop, (min,max) orientation, sort, dedupe) and
// MakeDataset's DropIsolatedVertices compaction, so its edge sequence is
// bit-identical to streaming MakeDataset(id, scale).graph with the same
// StreamOrder — pinned by the edge-source contract suite. Orders that are
// computable without adjacency are supported (kCanonical, kRandom);
// kBreadthFirst/kDepthFirst need the materialised graph and throw an
// actionable std::invalid_argument.

#ifndef LOOM_ENGINE_GENERATOR_SOURCE_H_
#define LOOM_ENGINE_GENERATOR_SOURCE_H_

#include <vector>

#include "datasets/dataset_registry.h"
#include "engine/edge_source.h"
#include "graph/label_registry.h"
#include "stream/stream_order.h"

namespace loom {
namespace engine {

class GeneratorEdgeSource : public EdgeSource {
 public:
  /// Runs the `id` generator at `scale` once (labels + edge list only; no
  /// CSR). `seed` matters only for StreamOrder::kRandom, where it matches
  /// MakeEdgeSource's. Throws std::invalid_argument for orders that need
  /// adjacency (bfs/dfs).
  GeneratorEdgeSource(datasets::DatasetId id, double scale,
                      stream::StreamOrder order = stream::StreamOrder::kCanonical,
                      uint64_t seed = stream::kDefaultStreamSeed);

  size_t NextBatch(std::span<stream::StreamEdge> out) override;
  size_t SizeHint() const override { return edges_.size(); }
  void Reset() override { pos_ = 0; }

  /// Post-compaction totals, for sizing EngineOptions.
  size_t NumVertices() const { return labels_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  /// The generator's label table (what an EdgeStreamWriter should persist).
  const graph::LabelRegistry& registry() const { return registry_; }

 private:
  graph::LabelRegistry registry_;
  std::vector<graph::LabelId> labels_;  // per (compacted) vertex
  std::vector<graph::Edge> edges_;      // normalised, ordered per `order`
  size_t pos_ = 0;
};

}  // namespace engine
}  // namespace loom

#endif  // LOOM_ENGINE_GENERATOR_SOURCE_H_
