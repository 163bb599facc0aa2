// Workload-agnostic partitioning quality measures: edge-cut and balance.
// (The workload-*sensitive* measure, ipt, lives in query/ because it needs
// the query executor.)

#ifndef LOOM_PARTITION_PARTITION_METRICS_H_
#define LOOM_PARTITION_PARTITION_METRICS_H_

#include "graph/labeled_graph.h"
#include "partition/partitioning.h"

namespace loom {
namespace partition {

/// Number of edges whose endpoints lie in different partitions.
size_t EdgeCut(const graph::LabeledGraph& g, const Partitioning& p);

/// EdgeCut / |E| in [0, 1].
double EdgeCutRatio(const graph::LabeledGraph& g, const Partitioning& p);

/// Relative imbalance: max_i |V(Si)| / (n/k) - 1. 0 means perfectly even;
/// the paper reports 1-3% for LDG and 7-10% for Fennel/Loom.
double Imbalance(const Partitioning& p);

/// True if every vertex of `g` has been assigned.
bool FullyAssigned(const graph::LabeledGraph& g, const Partitioning& p);

/// FNV-1a over the first `num_vertices` assignments — the "assignment hash"
/// leg of the quality triple every differential suite and bench baseline
/// compares (eval's SystemResult::assignment_hash; loom_serve's
/// SNAPSHOT-QUALITY reports the same function so socket-fed runs can be
/// diffed bit-for-bit against offline ones).
uint64_t AssignmentHash(const Partitioning& p, size_t num_vertices);

}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_PARTITION_METRICS_H_
