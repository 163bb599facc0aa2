// Fennel (Tsourakakis et al. [31]), edge-stream variant.
//
// Fennel assigns each unassigned vertex v to
//   argmax_Si  |N(v) ∩ Si| - α·γ·|V(Si)|^(γ-1)
// subject to |V(Si)| < ν·n/k, with γ = 1.5 (as the paper's evaluation uses),
// α = √k · m / n^1.5, ν = 1.1. The first term rewards locality, the second
// is the marginal cost of the interpolated objective α·Σ|Si|^γ.

#ifndef LOOM_PARTITION_FENNEL_PARTITIONER_H_
#define LOOM_PARTITION_FENNEL_PARTITIONER_H_

#include "graph/dynamic_graph.h"
#include "partition/partitioner.h"

namespace loom {
namespace partition {

class FennelPartitioner : public Partitioner {
 public:
  /// Reads k, expected_vertices/edges, max_imbalance and fennel_gamma (the
  /// paper's 1.5 by default).
  explicit FennelPartitioner(const engine::EngineOptions& options);

  void IngestBatch(std::span<const stream::StreamEdge> batch) override;
  const Partitioning& partitioning() const override { return partitioning_; }
  std::string name() const override { return "fennel"; }

  double alpha() const { return alpha_; }
  double gamma() const { return gamma_; }

  /// Table + seen-graph, as for LDG (gamma/alpha are ctor-derived constants
  /// and need no serialisation).
  void SaveState(io::CheckpointWriter* w) const override;
  void RestoreState(io::CheckpointReader* r) override;

 private:
  /// Greedy placement of a single vertex.
  graph::PartitionId ChooseFor(graph::VertexId v) const;

  Partitioning partitioning_;
  graph::DynamicGraph seen_;
  double gamma_;
  double alpha_;
};

}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_FENNEL_PARTITIONER_H_
