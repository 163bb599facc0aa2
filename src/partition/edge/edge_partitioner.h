// Streaming EDGE partitioning (ROADMAP item 2: the HDRF/DBH family).
//
// Loom and its paper baselines partition *vertices*: every vertex lives in
// exactly one part and quality is edge-cut. The competing family from the
// related work (HDRF, DBH, HEP, split-merge) partitions *edges*: every edge
// lives in exactly one part, a vertex is REPLICATED into every part that
// holds one of its edges, and quality is the replication factor
// RF = (Σ_v |R(v)|) / |V| together with edge balance
// max_p load(p) / (m / k).
//
// EdgePartitioner is the shared base: it owns the per-vertex replica sets
// (bitmask words), the online partial-degree counters both scoring rules
// read, the per-part edge loads, a running FNV-1a hash over the per-edge
// placements (the edge-stream analogue of partition::AssignmentHash), and a
// "primary" vertex Partitioning — each vertex's FIRST replica part — routed
// through AssignAndNotify so vertex assignment sinks, eval's
// edge-cut/imbalance readouts and the bench quality triple keep working
// unchanged for edge backends. Subclasses implement one virtual,
// PlaceEdge(), and inherit ingest bookkeeping, deterministic final stats
// and checkpoint Save/RestoreState.
//
// Determinism contract (pinned by tests/edge_partition_test.cc and the
// crash-recovery kill-point matrix): placements depend only on the edge
// sequence — identical across batch splits, EdgeSource kinds and
// checkpoint/resume.

#ifndef LOOM_PARTITION_EDGE_EDGE_PARTITIONER_H_
#define LOOM_PARTITION_EDGE_EDGE_PARTITIONER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "partition/partitioner.h"

namespace loom {
namespace partition {
namespace edge {

class EdgePartitioner : public Partitioner {
 public:
  /// Reads k and expected_vertices.
  explicit EdgePartitioner(const engine::EngineOptions& options);

  /// Per edge: updates partial degrees, asks the subclass for a placement,
  /// then commits: replica sets, part load, edge hash, primary vertex
  /// placement (AssignAndNotify) and the edge sinks (NotifyEdge).
  void IngestBatch(std::span<const stream::StreamEdge> batch) final;

  /// Edge partitioners buffer nothing; Finalize is a no-op (trivially
  /// idempotent and non-terminal, per the Partitioner contract).
  void Finalize() override {}

  const Partitioning& partitioning() const override { return partitioning_; }

  /// Deterministic end-of-run counters: edge_assignments, vertices_seen,
  /// replica_total, max/min_part_edges and edge_assignment_hash — the raw
  /// integers eval derives the (replication factor, edge balance, edge
  /// hash) quality triple from.
  void FillFinalStats(engine::StatCounters* stats) const override;

  /// One "edge_state" section (tables, counters and the subclass's
  /// SaveExtra payload), then the primary vertex table. Restore rejects a
  /// used instance, a k or replica-mask width other than this instance's,
  /// mis-sized tables and counters that disagree with them.
  void SaveState(io::CheckpointWriter* w) const override;
  void RestoreState(io::CheckpointReader* r) override;

  // ------------------------------------------------------ quality readouts

  /// Σ_v |R(v)| / |{v : R(v) ≠ ∅}|; 1.0 is perfect (no replication), k is
  /// the worst case. 0 before any edge arrives.
  double ReplicationFactor() const;

  /// max_p load(p) · k / m; 1.0 is perfectly even. 0 before any edge.
  double EdgeBalance() const;

  /// FNV-1a over the per-edge partition choices in stream order.
  uint64_t EdgeAssignmentHash() const { return edge_hash_; }

  uint64_t EdgesAssigned() const { return edges_assigned_; }

  /// Edges placed in part p; 0 for out-of-range p (these readouts are the
  /// public quality surface — serve handlers and tools pass through ids
  /// straight from clients, so none of them may index unchecked).
  uint64_t EdgeLoad(graph::PartitionId p) const {
    return p < loads_.size() ? loads_[p] : 0;
  }

  /// True if some edge incident to v was placed in p; false for a
  /// never-seen vertex or an out-of-range part.
  bool IsReplicaOf(graph::VertexId v, graph::PartitionId p) const;

  /// |R(v)| — parts holding at least one of v's edges.
  uint32_t ReplicaCount(graph::VertexId v) const;

 protected:
  /// The one scoring decision. Called with BOTH endpoints' partial degrees
  /// already incremented for this edge (the NuCut/Adwise HDRF convention);
  /// must return a partition in [0, k) from the current state only —
  /// nothing downstream of the return has been committed yet.
  virtual graph::PartitionId PlaceEdge(const stream::StreamEdge& e) = 0;

  /// Subclass state carried inside the "edge_state" section (hep's split).
  /// Restore rejects an inconsistent payload through `r->Fail`.
  virtual void SaveExtra(io::CheckpointWriter*) const {}
  virtual void RestoreExtra(io::CheckpointReader*) {}

  uint32_t k() const { return partitioning_.k(); }

  /// Streamed-so-far degree of v (0 for never-seen vertices).
  uint32_t PartialDegree(graph::VertexId v) const {
    return v < degrees_.size() ? degrees_[v] : 0;
  }

  const std::vector<uint64_t>& loads() const { return loads_; }

  /// The canonical HDRF greedy pick for edge e (Petroni et al.; see
  /// hdrf_partitioner.h for the scoring formula) — shared by the "hdrf"
  /// backend and hep's high-degree fallback so the two stay bit-identical
  /// where they overlap. Parts whose load would exceed `capacity` are
  /// skipped (the default +inf capacity never skips; finite callers must
  /// guarantee at least one part qualifies — the min-loaded part always
  /// does for capacity > (edges+1)/k). Tie-breaking is pinned: strictly
  /// greater score wins, equal score -> smaller load, equal load -> lower
  /// id.
  graph::PartitionId HdrfGreedyPick(
      const stream::StreamEdge& e, double lambda, double epsilon,
      double capacity = std::numeric_limits<double>::infinity()) const;

 private:
  /// Grows the per-vertex tables to cover id v.
  void EnsureVertex(graph::VertexId v);

  /// Sets bit p in R(v), maintaining replica_total_/vertices_seen_.
  void AddReplica(graph::VertexId v, graph::PartitionId p);

  Partitioning partitioning_;  // primary (first-replica) vertex placement
  const uint32_t words_;       // replica mask words per vertex: ceil(k/64)
  std::vector<uint32_t> degrees_;    // partial degree per vertex slot
  std::vector<uint64_t> replicas_;   // slots × words_ bitmask words
  std::vector<uint64_t> loads_;      // edges per part
  uint64_t edges_assigned_ = 0;
  uint64_t replica_total_ = 0;       // Σ_v |R(v)|
  uint64_t vertices_seen_ = 0;       // |{v : R(v) ≠ ∅}|
  uint64_t edge_hash_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

}  // namespace edge
}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_EDGE_EDGE_PARTITIONER_H_
