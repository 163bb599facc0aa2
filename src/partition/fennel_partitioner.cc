#include "partition/fennel_partitioner.h"

#include <cmath>
#include <vector>

namespace loom {
namespace partition {

FennelPartitioner::FennelPartitioner(const engine::EngineOptions& options)
    : partitioning_(options.k, options.expected_vertices,
                    options.max_imbalance),
      seen_(options.expected_vertices, /*page_entries=*/0,
            /*expected_entries=*/2 * options.expected_edges),
      gamma_(options.fennel_gamma) {
  const double n = static_cast<double>(
      options.expected_vertices > 0 ? options.expected_vertices : 1);
  const double m = static_cast<double>(
      options.expected_edges > 0 ? options.expected_edges : 1);
  // α = m · k^(γ-1) / n^γ  (for γ=1.5 this is the paper's √k·m/n^1.5).
  alpha_ = m * std::pow(static_cast<double>(options.k), gamma_ - 1.0) /
           std::pow(n, gamma_);
}

graph::PartitionId FennelPartitioner::ChooseFor(graph::VertexId v) const {
  const uint32_t k = partitioning_.k();
  std::vector<uint32_t> counts(k, 0);
  for (graph::VertexId w : seen_.Neighbors(v)) {
    graph::PartitionId p = partitioning_.PartitionOf(w);
    if (p != graph::kNoPartition) ++counts[p];
  }
  graph::PartitionId best = graph::kNoPartition;
  double best_score = 0.0;
  for (graph::PartitionId p = 0; p < k; ++p) {
    if (partitioning_.AtCapacity(p)) continue;
    const double load = static_cast<double>(partitioning_.Size(p));
    const double score = static_cast<double>(counts[p]) -
                         alpha_ * gamma_ * std::pow(load, gamma_ - 1.0);
    if (best == graph::kNoPartition || score > best_score ||
        (score == best_score &&
         partitioning_.Size(p) < partitioning_.Size(best))) {
      best = p;
      best_score = score;
    }
  }
  return best == graph::kNoPartition ? partitioning_.LeastLoaded() : best;
}

void FennelPartitioner::IngestBatch(
    std::span<const stream::StreamEdge> batch) {
  for (const stream::StreamEdge& e : batch) {
    seen_.TouchVertex(e.u, e.label_u);
    seen_.TouchVertex(e.v, e.label_v);
    // Let u "see" v through this edge when v is already placed, then place
    // endpoints one at a time so the second sees the first (interpolated
    // greedy handles both-new edges by clustering them together).
    seen_.AddEdge(e.u, e.v);
    if (!partitioning_.IsAssigned(e.u)) {
      AssignAndNotify(&partitioning_, e.u, ChooseFor(e.u));
    }
    if (!partitioning_.IsAssigned(e.v)) {
      AssignAndNotify(&partitioning_, e.v, ChooseFor(e.v));
    }
  }
}

void FennelPartitioner::SaveState(io::CheckpointWriter* w) const {
  partitioning_.SaveTo(w);
  seen_.SaveTo(w, "seen_graph");
}

void FennelPartitioner::RestoreState(io::CheckpointReader* r) {
  partitioning_.LoadFrom(r);
  seen_.LoadFrom(r, "seen_graph");
}

}  // namespace partition
}  // namespace loom
