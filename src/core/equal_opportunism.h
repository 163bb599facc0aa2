// The equal opportunism allocation heuristic (Sec. 4, Eq. 1-3).
//
// When an edge e is evicted from the window, its cluster of motif matches
// Me = {⟨E1,m1⟩...⟨En,mn⟩} is allocated to the single partition with the
// highest *rationed* total bid:
//
//   bid(Si, ⟨Ek,mk⟩) = N(Si, Ek) · (1 - |V(Si)|/C) · supp(mk)       (Eq. 1)
//   l(Si)            = (Smin / |V(Si)|) · α_eff                      (Eq. 2)
//   winner           = argmax_Si  l(Si) · Σ_{k < ⌈l(Si)·|Me|⌉} bid   (Eq. 3)
//
// where matches are sorted by support descending and α_eff follows the
// paper's piecewise rule: 1 when |V(Si)| equals the smallest partition,
// 0 when it exceeds b·Smin, the user α (default 2/3) otherwise.
//
// NOTE on Eq. 2: the paper's displayed formula reads |V(Si)|/Smin · α, but
// its prose ("inversely correlated with Si's size") and worked example
// (l = 1/1.33 · 1/1.5 = 1/2) both require the reciprocal; we implement the
// reciprocal and treat Smin = 0 (empty partitions exist) as Smin = 1 to keep
// the ratio defined.

#ifndef LOOM_CORE_EQUAL_OPPORTUNISM_H_
#define LOOM_CORE_EQUAL_OPPORTUNISM_H_

#include <vector>

#include "graph/dynamic_graph.h"
#include "motif/match_list.h"
#include "partition/hub_tally.h"
#include "partition/partitioning.h"
#include "tpstry/tpstry.h"

namespace loom {
namespace core {

struct EqualOpportunismConfig {
  /// Rationing aggression α in (0, 1]; the paper's empirical default is 2/3.
  double alpha = 2.0 / 3.0;
  /// Imbalance bound b: partitions larger than b·Smin get ration 0 (their
  /// bids are muted entirely). Paper default 1.1, emulating Fennel.
  double balance_b = 1.1;
  /// Weight of the assigned-neighbour term in the bid: Eq. 1's N counts
  /// match vertices resident in Si; we additionally count (at this weight)
  /// the match vertices' already-assigned neighbours in Si, so clusters land
  /// near their satellite structure too. The paper presents N as "a
  /// generalisation of LDG's [neighbour count] N"; 0 recovers the literal
  /// Eq. 1 (ablated in bench/ablation_alpha).
  double neighbor_bid_weight = 0.25;
  /// Escape hatch for the ablation bench: disables rationing entirely
  /// (every partition considers and receives the full match cluster).
  bool disable_rationing = false;
};

/// What to do with the evictee's match cluster.
struct AllocationDecision {
  graph::PartitionId partition = graph::kNoPartition;
  /// Length of the support-ordered prefix of Me the winner bid on
  /// (DecideBids sorts the caller's cluster in place); exactly those
  /// matches' edges are assigned to `partition`. Remaining matches are
  /// implicitly dropped (their shared edge e is leaving the window).
  size_t take = 0;
};

class EqualOpportunism {
 public:
  /// `trie` supplies match supports, `neighborhood` the streamed-so-far
  /// adjacency for the neighbour-bid term (may be nullptr to disable it).
  /// `hub`, when given, holds exact per-partition neighbour tallies for
  /// high-degree vertices of `neighborhood`: the neighbour bid copies a
  /// vertex's row instead of walking its adjacency. Its rows must track
  /// `neighborhood` and the Partitioning passed to DecideBids (the owner
  /// fires OnEdgeVisible/OnAssign before any eviction reads them). All
  /// three must outlive the allocator.
  EqualOpportunism(const tpstry::Tpstry* trie,
                   const graph::DynamicGraph* neighborhood,
                   EqualOpportunismConfig config,
                   const partition::HubTallyCache* hub = nullptr);

  /// The rationing function l(Si) in [0, 1].
  double Ration(graph::PartitionId si, const partition::Partitioning& p) const;

  /// Decides the winning partition and the prefix of matches it takes. `me`
  /// is the (unordered) set of live match handles (resolved through `ml`)
  /// containing the evicted edge; it is sorted support-descending IN PLACE
  /// (no copy — eviction is the partitioner's second-hottest path). The
  /// partition stays kNoPartition when no positive bid exists (cold start,
  /// or none of the cluster's vertices are resident anywhere yet), so the
  /// caller can compute its (expensive, adjacency-scanning) fallback lazily.
  AllocationDecision DecideBids(const motif::MatchList& ml,
                                std::vector<motif::MatchHandle>& me,
                                const partition::Partitioning& p) const;

 private:
  /// Ration with Smin and the b-cutoff's average hoisted out (DecideBids
  /// computes them once per eviction instead of once per partition).
  double RationWith(double size, double smin, double avg) const;

  const tpstry::Tpstry* trie_;
  const graph::DynamicGraph* neighborhood_;
  EqualOpportunismConfig config_;
  const partition::HubTallyCache* hub_;

  /// Per-eviction scratch (DecideBids is on the eviction hot path).
  struct SortKey {
    double support;
    size_t num_edges;
    uint64_t key;
    motif::MatchHandle handle;
  };
  mutable std::vector<SortKey> sort_scratch_;
  mutable std::vector<double> overlap_scratch_;  // me.size() x k tallies
  // Per-vertex neighbour tallies, cached across the cluster's matches (they
  // share hub vertices; each vertex's tally is taken at most once per
  // eviction instead of once per containing match).
  mutable std::vector<graph::VertexId> nbr_cached_vertices_;
  mutable std::vector<uint32_t> nbr_rows_;  // k counts per cached vertex
  mutable std::vector<uint32_t> nbr_match_tally_;  // per-match accumulator
};

}  // namespace core
}  // namespace loom

#endif  // LOOM_CORE_EQUAL_OPPORTUNISM_H_
