// HEP — a hybrid edge partitioner in the style of Mayer et al.'s
// "Hybrid Edge Partitioner" (the headline in-memory/streaming hybrid of
// the split-merge-partitioner zoo; see ROADMAP item 2 and SNIPPETS.md
// Snippet 1): split the vertex set at a degree threshold, keep the
// low-degree CORE's adjacency in memory and place its edges by
// neighborhood expansion, and stream every edge touching a high-degree
// vertex through the classic HDRF scoring rule.
//
// Streaming adaptation (the source algorithm makes two passes; a stream
// gets one):
//
//   * The split is ONLINE and monotone: a vertex is promoted to
//     high-degree the first time its partial degree exceeds
//     threshold_factor x the running mean partial degree
//     (2·edges / distinct vertices, this edge included). Promotion frees
//     the vertex's in-memory adjacency and is permanent, so core memory is
//     bounded by n x threshold even on the larger-than-RAM
//     io::FileEdgeSource path — exactly the property HEP exists for.
//   * Core edges (both endpoints low-degree) score each part by
//     neighborhood expansion: the HDRF replica term for the endpoints
//     plus kNeighborWeight per in-memory neighbor already replicated in
//     the part — placing an edge where its neighborhood already lives is
//     what beats degree-blind HDRF on replication factor. A hard
//     capacity of max_imbalance x (edges+1)/k filters the candidates
//     (the min-loaded part always qualifies for max_imbalance > 1, so
//     the filter can never empty); ties break like HDRF (smaller load,
//     then lower id).
//   * Edges with a high-degree endpoint fall back to the shared
//     EdgePartitioner::HdrfGreedyPick — bit-identical to the "hdrf"
//     backend's rule — under the same hard capacity.
//
// Determinism contract: same as every edge backend (placements depend only
// on the edge sequence), pinned by tests/edge_partition_test.cc and the
// crash-recovery kill-point matrix. All hybrid state (promotion bitset,
// core adjacency, distinct-vertex and split counters) rides the checkpoint
// through SaveExtra/RestoreExtra.

#ifndef LOOM_PARTITION_EDGE_HEP_PARTITIONER_H_
#define LOOM_PARTITION_EDGE_HEP_PARTITIONER_H_

#include <vector>

#include "partition/edge/edge_partitioner.h"
#include "util/dense_bitset.h"

namespace loom {
namespace partition {
namespace edge {

class HepPartitioner final : public EdgePartitioner {
 public:
  /// Reads k, expected_vertices, max_imbalance (the hard edge-balance
  /// cap), `threshold_factor` (> 0, scales the high/low-degree split point)
  /// and `lambda`/`epsilon` (the HDRF fallback, exactly as in
  /// HdrfPartitioner); throws std::invalid_argument on a non-finite or
  /// out-of-range value. (Engine spec: "hep:threshold_factor=4,lambda=1.1".)
  explicit HepPartitioner(const engine::EngineOptions& options);

  std::string name() const override { return "hep"; }

  /// Vertices promoted to the high-degree (streamed) side so far.
  uint64_t HighDegreeCount() const { return high_degree_.Count(); }

  /// Adds hep's split counters (high_degree_vertices, core_edges,
  /// fallback_edges) to the shared edge counters.
  void FillFinalStats(engine::StatCounters* stats) const override;

 protected:
  graph::PartitionId PlaceEdge(const stream::StreamEdge& e) override;

  void SaveExtra(io::CheckpointWriter* w) const override;
  void RestoreExtra(io::CheckpointReader* r) override;

 private:
  /// Promotes v when its partial degree crosses `threshold`, freeing its
  /// core adjacency. Monotone: a promoted vertex never returns to the core.
  void MaybePromote(graph::VertexId v, double threshold);

  /// Records n as an in-memory neighbor of the (low-degree) vertex v.
  void AppendCoreAdjacency(graph::VertexId v, graph::VertexId n);

  /// Neighborhood-expansion pick for a core edge, under `capacity`.
  graph::PartitionId ExpandCore(const stream::StreamEdge& e, double capacity);

  const double threshold_factor_;
  const double lambda_;    // HDRF fallback balance weight
  const double epsilon_;   // HDRF fallback denominator guard
  const double capacity_factor_;  // hard edge-balance cap (max_imbalance)

  util::DenseBitset high_degree_;  // monotone promotion flags
  /// In-memory adjacency of the low-degree core; entry v is freed (and
  /// stays empty) once v is promoted.
  std::vector<std::vector<graph::VertexId>> core_adj_;
  uint64_t touched_ = 0;         // distinct vertices seen (mean's divisor)
  uint64_t core_edges_ = 0;      // edges placed by neighborhood expansion
  uint64_t fallback_edges_ = 0;  // edges placed by the HDRF fallback

  std::vector<uint32_t> nbr_scratch_;  // per-part neighbor counts (size k)
};

}  // namespace edge
}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_EDGE_HEP_PARTITIONER_H_
