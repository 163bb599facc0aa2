// k-way vertex-centric partition state (Sec. 1.3).
//
// Every vertex lives in exactly one partition (no replication, per the
// paper). Streaming partitioners assign vertices when the first edge
// containing them is placed; the capacity constraint C = ν·n/k (ν = 1.1,
// emulating Fennel's max imbalance) is enforced here so no heuristic can
// overfill a partition.

#ifndef LOOM_PARTITION_PARTITIONING_H_
#define LOOM_PARTITION_PARTITIONING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/adjacency_arena.h"
#include "graph/types.h"
#include "io/checkpoint.h"
#include "util/prefetch.h"

namespace loom {
namespace partition {

class Partitioning {
 public:
  /// `k` partitions for an expected `expected_vertices` total, allowing
  /// each partition to grow to ceil(nu * n / k).
  Partitioning(uint32_t k, size_t expected_vertices, double nu = 1.1);

  uint32_t k() const { return k_; }

  /// Hard per-partition vertex capacity C.
  size_t Capacity() const { return capacity_; }

  /// Partition of v, or kNoPartition.
  graph::PartitionId PartitionOf(graph::VertexId v) const {
    return v < assignment_.size() ? assignment_[v] : graph::kNoPartition;
  }

  /// Look-ahead hint: prefetches v's assignment entry. A no-op for v
  /// beyond the table, which it never grows.
  void PrefetchVertex(graph::VertexId v) const {
    if (v < assignment_.size()) util::PrefetchRead(&assignment_[v]);
  }

  bool IsAssigned(graph::VertexId v) const {
    return PartitionOf(v) != graph::kNoPartition;
  }

  /// The raw per-vertex assignment table (indexed by VertexId; entries are
  /// kNoPartition until assigned, vertices beyond the table are implicitly
  /// unassigned).
  std::span<const graph::PartitionId> assignments() const {
    return assignment_;
  }

  /// The neighbour tally |N(v) ∩ Si| of LDG, the hub rows and Eq. 1's
  /// neighbour bids: counts[p] += #entries of `nbrs` assigned to p.
  /// Unassigned entries are skipped; `counts` holds k() entries and is
  /// accumulated into, not cleared.
  void TallyNeighbors(const graph::NeighborRange& nbrs,
                      uint32_t* counts) const {
    nbrs.ForEachChunk([&](const graph::VertexId* ids, size_t n) {
      for (size_t i = 0; i < n; ++i) {
        const graph::PartitionId p = PartitionOf(ids[i]);
        if (p != graph::kNoPartition) ++counts[p];
      }
    });
  }

  /// Assigns v to `p` if there is room, otherwise to the least-loaded
  /// partition (which always has room given capacity >= n/k). Re-assigning
  /// an already-assigned vertex is a no-op returning its current partition.
  /// Returns the partition actually used.
  graph::PartitionId Assign(graph::VertexId v, graph::PartitionId p);

  /// True if partition p has reached capacity.
  bool AtCapacity(graph::PartitionId p) const { return sizes_[p] >= capacity_; }

  /// |V(Si)| — vertices currently in partition p.
  size_t Size(graph::PartitionId p) const { return sizes_[p]; }

  /// Sizes of all partitions.
  const std::vector<size_t>& sizes() const { return sizes_; }

  /// Smallest / largest partition size (paper's Smin for Eq. 2).
  size_t MinSize() const;
  size_t MaxSize() const;

  /// Partition with the fewest vertices (lowest id on ties).
  graph::PartitionId LeastLoaded() const;

  /// Vertices assigned so far.
  size_t NumAssigned() const { return num_assigned_; }

  /// Writes the full table state as checkpoint section "partition".
  void SaveTo(io::CheckpointWriter* w) const;

  /// Restores a SaveTo snapshot into this instance. k and capacity must
  /// match how this instance was constructed (a k/ν/n drift would silently
  /// change every later capacity decision); mismatches throw via r->Fail.
  void LoadFrom(io::CheckpointReader* r);

 private:
  uint32_t k_;
  size_t capacity_;
  std::vector<graph::PartitionId> assignment_;  // indexed by VertexId
  std::vector<size_t> sizes_;
  size_t num_assigned_ = 0;
};

}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_PARTITIONING_H_
