// Pull-based edge sources: the engine's ingest abstraction.
//
// The paper views an online graph as a possibly-infinite sequence of edge
// additions (Sec. 1.3); materialising that sequence as a std::vector caps
// every experiment at streams that fit in RAM and bakes "replay a vector"
// into every caller. EdgeSource inverts the dependency: the engine *pulls*
// batches of StreamEdges from a source, so a source can synthesise edges
// lazily (generator-backed datasets), walk an in-memory graph in a chosen
// arrival order without copying it, or read from a file.
//
// Adapters provided here:
//   * GraphEdgeSource      — lazily streams a LabeledGraph in a given edge
//                            order (BFS/DFS/random shuffles included); only
//                            the order permutation is materialised, not the
//                            labelled StreamEdge records.
//   * SpanEdgeSource       — replays StreamEdges already in memory (serve's
//                            decision thread, test fixtures) verbatim.
//   * MakeEdgeSource       — convenience: dataset or graph + StreamOrder.
//
// Elsewhere: io::FileEdgeSource (stream files) and
// engine::GeneratorEdgeSource (lazy dataset generators).
//
// Sources are replayable via Reset() so one source can feed every compared
// system identical streams.

#ifndef LOOM_ENGINE_EDGE_SOURCE_H_
#define LOOM_ENGINE_EDGE_SOURCE_H_

#include <memory>
#include <span>
#include <vector>

#include "datasets/schema.h"
#include "graph/labeled_graph.h"
#include "stream/stream_edge.h"
#include "stream/stream_order.h"

namespace loom {
namespace engine {

class EdgeSource {
 public:
  virtual ~EdgeSource() = default;

  /// Fills up to out.size() consecutive stream elements; returns how many
  /// were written. 0 means the source is exhausted (it stays exhausted
  /// until Reset). StreamEdge ids are stream positions: unique, dense per
  /// source, monotonically increasing.
  virtual size_t NextBatch(std::span<stream::StreamEdge> out) = 0;

  /// Total elements this source will produce, if known (0 = unknown); used
  /// to size expected_edges and progress reporting.
  virtual size_t SizeHint() const = 0;

  /// Rewinds to the first element.
  virtual void Reset() = 0;
};

/// Lazily streams the edges of a LabeledGraph in the order given by a
/// permutation of its edge ids. Only the permutation (4 bytes/edge) is
/// held; labels are attached per batch from the graph.
class GraphEdgeSource : public EdgeSource {
 public:
  /// `graph` must outlive the source. `edge_order` must be a permutation of
  /// the graph's edge ids; wrong length, out-of-range ids and duplicates
  /// throw std::invalid_argument (in Release builds too — a bad permutation
  /// silently streams the wrong graph).
  GraphEdgeSource(const graph::LabeledGraph& graph,
                  std::vector<graph::EdgeId> edge_order);

  size_t NextBatch(std::span<stream::StreamEdge> out) override;
  size_t SizeHint() const override { return order_.size(); }
  void Reset() override { pos_ = 0; }

 private:
  const graph::LabeledGraph& graph_;
  std::vector<graph::EdgeId> order_;
  size_t pos_ = 0;
};

/// Replays StreamEdges already held in memory, verbatim: ids and labels
/// are whatever the span holds (serve's decision thread stamps stream ids
/// before handing edges over). The span's storage must outlive the source.
class SpanEdgeSource : public EdgeSource {
 public:
  explicit SpanEdgeSource(std::span<const stream::StreamEdge> edges)
      : edges_(edges) {}

  size_t NextBatch(std::span<stream::StreamEdge> out) override;
  size_t SizeHint() const override { return edges_.size(); }
  void Reset() override { pos_ = 0; }

 private:
  std::span<const stream::StreamEdge> edges_;
  size_t pos_ = 0;
};

/// Stream-order shuffler adapter: builds the BFS/DFS/random arrival
/// permutation for `graph` and wraps it in a GraphEdgeSource. `seed` only
/// matters for StreamOrder::kRandom.
std::unique_ptr<EdgeSource> MakeEdgeSource(const graph::LabeledGraph& graph,
                                           stream::StreamOrder order,
                                           uint64_t seed = stream::kDefaultStreamSeed);

/// Dataset-generator adapter: streams `ds.graph` (the four Table 1
/// generators all produce Datasets) under `order`. The dataset must outlive
/// the source.
std::unique_ptr<EdgeSource> MakeEdgeSource(const datasets::Dataset& ds,
                                           stream::StreamOrder order,
                                           uint64_t seed = stream::kDefaultStreamSeed);

}  // namespace engine
}  // namespace loom

#endif  // LOOM_ENGINE_EDGE_SOURCE_H_
