// Linear Deterministic Greedy (Stanton & Kliot [30]), edge-stream variant.
//
// LDG places a vertex in the partition holding the most of its neighbours,
// discounted by how full that partition is:
//   argmax_Si  |N(v) ∩ Si| · (1 - |V(Si)|/C)
// with C the strict capacity n/k (hence the 1-3% imbalance the paper
// reports). In the edge-stream variant each arriving edge places its
// still-unassigned endpoints one at a time, each seeing the other through
// the edge itself. Loom reuses this heuristic for edges that can never
// match a motif (Sec. 4).

#ifndef LOOM_PARTITION_LDG_PARTITIONER_H_
#define LOOM_PARTITION_LDG_PARTITIONER_H_

#include "graph/dynamic_graph.h"
#include "partition/hub_tally.h"
#include "partition/partitioner.h"

namespace loom {
namespace partition {

/// Stateless scoring core, shared between the standalone LDG partitioner
/// and Loom's immediate-assignment and fallback paths.
///
/// When the caller maintains a HubTallyCache it passes it as `hub`: vertices
/// with a materialised counter row skip the adjacency walk entirely (the row
/// holds the same integers the walk would tally, so the choice is
/// bit-identical either way — pinned by the hub differential tests).
class LdgHeuristic {
 public:
  /// Picks the partition for a single vertex `v` given the streamed-so-far
  /// adjacency. Ties break toward the smaller partition, then the lower id;
  /// when every score is zero the least-loaded partition wins (keeps growth
  /// balanced on cold starts).
  static graph::PartitionId ChooseForVertex(graph::VertexId v,
                                            const graph::DynamicGraph& neighborhood,
                                            const Partitioning& partitioning,
                                            const HubTallyCache* hub = nullptr);

  /// Edge-level convenience used by Loom's immediate path: scores the union
  /// of both endpoints' neighbourhoods (the edge is placed as one unit).
  /// If `had_signal` is non-null it is set to false when every partition
  /// scored zero (the choice degenerated to least-loaded).
  static graph::PartitionId Choose(const stream::StreamEdge& e,
                                   const graph::DynamicGraph& neighborhood,
                                   const Partitioning& partitioning,
                                   bool* had_signal = nullptr,
                                   const HubTallyCache* hub = nullptr);
};

class LdgPartitioner : public Partitioner {
 public:
  /// Reads k, expected_vertices/edges and hub_threshold (LDG fixes its own
  /// strict capacity n/k, so max_imbalance is unread).
  explicit LdgPartitioner(const engine::EngineOptions& options);

  void IngestBatch(std::span<const stream::StreamEdge> batch) override;
  const Partitioning& partitioning() const override { return partitioning_; }
  std::string name() const override { return "ldg"; }

  /// Table + streamed-so-far adjacency: LDG's score reads the seen-graph,
  /// so a table-only snapshot would not resume bit-identically.
  void SaveState(io::CheckpointWriter* w) const override;
  void RestoreState(io::CheckpointReader* r) override;

 private:
  void AssignVertex(graph::VertexId v, graph::PartitionId target);

  Partitioning partitioning_;
  graph::DynamicGraph seen_;  // streamed-so-far adjacency
  HubTallyCache hub_;         // derived from seen_; refills after restore
};

}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_LDG_PARTITIONER_H_
