// Loom: the query-aware streaming partitioner (the paper's primary
// contribution, Secs. 2-4 composed).
//
// Pipeline per arriving edge e:
//   1. Admission (Sec. 3): if e matches no single-edge motif it can never be
//      part of a motif match — assign it immediately with the LDG heuristic
//      and do not buffer it.
//   2. Otherwise push e into the sliding window Ptemp and run the Alg. 2
//      matcher to register every new motif match e creates.
//   3. While the window exceeds its capacity t, evict the oldest edge: fetch
//      the cluster of matches containing it, let equal opportunism pick the
//      winning partition and the support-ordered prefix of matches it takes,
//      assign all of those matches' edges (and their endpoints) there, and
//      retire every match that lost a constituent edge.
// Finalize() drains the window the same way.

#ifndef LOOM_CORE_LOOM_PARTITIONER_H_
#define LOOM_CORE_LOOM_PARTITIONER_H_

#include <memory>
#include <string>

#include "core/equal_opportunism.h"
#include "graph/dynamic_graph.h"
#include "graph/label_registry.h"
#include "motif/match_list.h"
#include "motif/motif_matcher.h"
#include "partition/ldg_partitioner.h"
#include "partition/partitioner.h"
#include "query/query.h"
#include "signature/label_values.h"
#include "signature/signature_calculator.h"
#include "stream/sliding_window.h"
#include "tpstry/tpstry.h"

namespace loom {
namespace core {

/// Counters exposed for reports and tests. The last four are reported as
/// final stats under the same names.
struct LoomStats {
  uint64_t edges_bypassed = 0;  // failed the admission test
  /// Edges that aged out of the window (not claimed early by another
  /// edge's cluster).
  uint64_t evictions = 0;
  uint64_t clusters_allocated = 0;  // equal-opportunism decisions
  /// Decisions where every bid was zero and LDG picked the partition.
  uint64_t fallback_clusters = 0;
  uint64_t cluster_edges_assigned = 0;  // window edges placed by clusters
};

class LoomPartitioner : public partition::Partitioner {
 public:
  /// Builds the TPSTry++ from `workload` (frequencies are normalised
  /// internally) over a label space of `num_labels`. Reads the shared keys
  /// (k, expected totals, max_imbalance, hub_threshold) and every Loom
  /// knob: window t, support threshold T, prime p, signature seed, the
  /// equal-opportunism α/b/neighbour weight/rationing switch and the
  /// matcher cap.
  LoomPartitioner(const engine::EngineOptions& options,
                  const query::Workload& workload, size_t num_labels);

  /// Hoists the admission-mask probe (memoised per label pair) for the
  /// whole batch before running the per-edge pipeline, so the admission
  /// memo is walked in one tight pass, and prefetches each edge's
  /// per-vertex table slots a few edges ahead of its turn. Results are
  /// bit-identical for every batch split.
  void IngestBatch(std::span<const stream::StreamEdge> batch) override;
  void Finalize() override;
  void FillProgress(engine::ProgressEvent* progress) const override;
  /// Match-pool fresh/reused, matcher totals and the eviction/cluster
  /// counters of LoomStats — deterministic counters only, keyed
  /// "match_allocs_*", "matcher_*" and by LoomStats field name.
  void FillFinalStats(engine::StatCounters* stats) const override;

  /// Workload drift (paper Sec. 6): decays the existing trie supports to
  /// `decay` of their mass and mixes in `workload` (normalised) with weight
  /// 1-decay. Motif status, the admission mask and allocation supports all
  /// shift accordingly; matches already in flight are unaffected. Call
  /// between IngestBatch()es at any time.
  void UpdateWorkload(const query::Workload& workload, double decay = 0.5);
  const partition::Partitioning& partitioning() const override {
    return partitioning_;
  }
  std::string name() const override { return "loom"; }

  /// Full pipeline snapshot (label space, TPSTry++ fingerprint, stats,
  /// partition table, window, matchList, seen-graph; codec in
  /// core/loom_checkpoint.cc); restore + tail is bit-identical to the
  /// uninterrupted run.
  void SaveState(io::CheckpointWriter* w) const override;
  void RestoreState(io::CheckpointReader* r) override;

  const tpstry::Tpstry& trie() const { return *trie_; }
  const LoomStats& stats() const { return stats_; }
  const motif::MatcherStats& matcher_stats() const { return matcher_->stats(); }

  /// Pool behind the matchList, for allocation-reuse stats in reports.
  const motif::MatchPool& match_pool() const { return match_list_.pool(); }

  /// Live slot span of the sliding window's ring buffer (for stats).
  size_t WindowSlots() const { return window_.NumSlots(); }

  /// Live window occupancy (the Ptemp size), for tests/monitoring.
  size_t WindowSize() const { return window_.size(); }

 private:
  /// Per-edge pipeline with the admission test hoisted out (IngestBatch
  /// precomputes it).
  void IngestWithAdmission(const stream::StreamEdge& e, bool admitted);

  /// Look-ahead hint: prefetches v's slot in every per-vertex table the
  /// per-edge pipeline reads (labels and chains, assignment, hub row
  /// index, matchList posting list).
  void PrefetchVertexSlots(graph::VertexId v) const;

  /// Open-alphabet support: grows the label-value table (chunked, values of
  /// existing labels untouched) and re-fits the admission memo + motif-label
  /// mask when the stream reveals a label beyond the current space. Must run
  /// before any admission probe of the offending edge.
  void EnsureLabelSpace(graph::LabelId max_label);

  /// True if v's placement is being withheld pending a motif cluster:
  /// unassigned and motif-labelled, or in live matches.
  bool IsDeferred(graph::VertexId v, graph::LabelId label);

  /// Assigns v to p.
  void AssignVertex(graph::VertexId v, graph::PartitionId p);

  /// Immediate LDG assignment for edges outside the motif machinery.
  void AssignImmediately(const stream::StreamEdge& e);

  /// Evicts the oldest window edge, allocating its match cluster.
  void EvictOldest();

  size_t ctor_num_labels_;  // label space at construction (checkpoint id)
  partition::Partitioning partitioning_;
  graph::DynamicGraph seen_;  // streamed-so-far adjacency (for LDG scoring)
  // Derived from seen_ and read by LDG and the allocator's neighbour bids;
  // refills after restore.
  partition::HubTallyCache hub_;

  std::unique_ptr<signature::LabelValues> label_values_;
  std::unique_ptr<signature::SignatureCalculator> calc_;
  std::unique_ptr<tpstry::Tpstry> trie_;
  std::unique_ptr<motif::MotifMatcher> matcher_;
  std::unique_ptr<EqualOpportunism> allocator_;

  stream::SlidingWindow window_;
  motif::MatchList match_list_;
  std::vector<uint8_t> motif_label_;  // labels that occur in some motif (byte,
                                      // not vector<bool>: probed per edge)
  LoomStats stats_;

  // Eviction-path scratch, reused so allocation stays off the hot path.
  std::vector<motif::MatchHandle> me_scratch_;
  std::vector<graph::EdgeId> assign_scratch_;
  std::vector<uint8_t> admit_scratch_;  // per-batch admission bits
};

}  // namespace core
}  // namespace loom

#endif  // LOOM_CORE_LOOM_PARTITIONER_H_
