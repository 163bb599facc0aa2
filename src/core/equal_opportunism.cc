#include "core/equal_opportunism.h"

#include <algorithm>
#include <cmath>

namespace loom {
namespace core {

EqualOpportunism::EqualOpportunism(const tpstry::Tpstry* trie,
                                   const graph::DynamicGraph* neighborhood,
                                   EqualOpportunismConfig config)
    : trie_(trie), neighborhood_(neighborhood), config_(config) {}

double EqualOpportunism::RationWith(double size, double smin,
                                    double avg) const {
  if (config_.disable_rationing) return 1.0;
  if (size > config_.balance_b * avg) return 0.0;  // α_eff = 0
  if (size <= smin) return 1.0;                    // α_eff = 1, ratio >= 1
  return (smin / size) * config_.alpha;            // α_eff = α
}

double EqualOpportunism::Ration(graph::PartitionId si,
                                const partition::Partitioning& p) const {
  const double size = static_cast<double>(p.Size(si));
  // Smin = 0 while partitions are still empty; clamp to 1 so the ratio stays
  // meaningful during cold start.
  const double smin = static_cast<double>(std::max<size_t>(p.MinSize(), 1));
  // The b cutoff "emulates Fennel" (Sec. 4), whose ν bound is relative to
  // the *average* partition size — a Smin-relative bound would mute almost
  // every partition whenever one partition briefly lags. (The paper's own
  // worked example exceeds b·Smin yet still bids, so the strict reading of
  // Eq. 2's piecewise α is inconsistent with its use; see DESIGN.md.)
  const double avg = std::max(
      static_cast<double>(p.NumAssigned()) / static_cast<double>(p.k()), 1.0);
  return RationWith(size, smin, avg);
}

double EqualOpportunism::Bid(graph::PartitionId si, const motif::Match& match,
                             const partition::Partitioning& p) const {
  // N(Si, Ek): match vertices already resident in Si...
  double overlap = 0.0;
  for (graph::VertexId v : match.vertices) {
    if (p.PartitionOf(v) == si) overlap += 1.0;
  }
  // ...generalised (as the paper notes of LDG's N) with a discounted count
  // of the match vertices' already-assigned neighbours in Si, so a cluster
  // is also drawn toward its satellite structure (recordings, venues, ...).
  if (neighborhood_ != nullptr && config_.neighbor_bid_weight > 0.0) {
    uint32_t nbrs = 0;
    for (graph::VertexId v : match.vertices) {
      for (graph::VertexId w : neighborhood_->Neighbors(v)) {
        if (p.PartitionOf(w) == si) ++nbrs;
      }
    }
    overlap += config_.neighbor_bid_weight * static_cast<double>(nbrs);
  }
  if (overlap <= 0.0) return 0.0;
  const double residual =
      1.0 - static_cast<double>(p.Size(si)) / static_cast<double>(p.Capacity());
  const double support = trie_->NormalizedSupport(match.node_id);
  return overlap * residual * support;
}

AllocationDecision EqualOpportunism::Decide(const motif::MatchList& ml,
                                            std::vector<motif::MatchHandle>& me,
                                            const partition::Partitioning& p,
                                            graph::PartitionId fallback) const {
  AllocationDecision decision = DecideBids(ml, me, p);
  if (decision.partition == graph::kNoPartition) {
    // Cold start / no overlap anywhere: seed the cluster where the caller's
    // neighbourhood heuristic points (falling back to least-loaded if that
    // partition is full). The whole cluster is seeded together — rationing
    // exists to stop *bid-winning* partitions hoarding matches, not to break
    // up a cluster that nobody bid on (doing so would orphan the evictee's
    // match partners and void their co-location).
    decision.partition =
        p.AtCapacity(fallback) ? p.LeastLoaded() : fallback;
    decision.take = me.size();
  }
  return decision;
}

AllocationDecision EqualOpportunism::DecideBids(
    const motif::MatchList& ml, std::vector<motif::MatchHandle>& me,
    const partition::Partitioning& p) const {
  AllocationDecision decision;
  if (me.empty()) return decision;

  // Support-descending order; smaller matches first on ties (the paper
  // prioritises "smaller, higher support" matches), then content key so the
  // order is fully deterministic. Keys are precomputed once per match — the
  // comparator would otherwise recompute supports/content hashes O(n log n)
  // times on the eviction hot path.
  sort_scratch_.clear();
  for (motif::MatchHandle h : me) {
    const motif::Match& m = ml.match(h);
    sort_scratch_.push_back(
        {trie_->NormalizedSupport(m.node_id), m.edges.size(), m.Key(), h});
  }
  std::sort(sort_scratch_.begin(), sort_scratch_.end(),
            [](const SortKey& a, const SortKey& b) {
              if (a.support != b.support) return a.support > b.support;
              if (a.num_edges != b.num_edges) return a.num_edges < b.num_edges;
              return a.key < b.key;
            });
  for (size_t i = 0; i < me.size(); ++i) me[i] = sort_scratch_[i].handle;

  // Eq. 1's N(Si, Ek) for every (match, partition) pair in a single
  // adjacency pass per match: tally resident match vertices and (discounted)
  // their assigned neighbours into a me.size() x k table. Bit-identical to
  // calling Bid() per pair, k times cheaper.
  const uint32_t k = p.k();
  overlap_scratch_.assign(me.size() * k, 0.0);
  const bool use_nbrs =
      neighborhood_ != nullptr && config_.neighbor_bid_weight > 0.0;
  if (use_nbrs) {
    // The cluster's matches share (hub) vertices; scan each distinct
    // vertex's adjacency once per eviction, not once per containing match.
    nbr_cached_vertices_.clear();
    for (motif::MatchHandle h : me) {
      const motif::Match& m = ml.match(h);
      nbr_cached_vertices_.insert(nbr_cached_vertices_.end(),
                                  m.vertices.begin(), m.vertices.end());
    }
    std::sort(nbr_cached_vertices_.begin(), nbr_cached_vertices_.end());
    nbr_cached_vertices_.erase(
        std::unique(nbr_cached_vertices_.begin(), nbr_cached_vertices_.end()),
        nbr_cached_vertices_.end());
    nbr_rows_.assign(nbr_cached_vertices_.size() * k, 0);
    for (size_t ci = 0; ci < nbr_cached_vertices_.size(); ++ci) {
      p.TallyNeighbors(neighborhood_->Neighbors(nbr_cached_vertices_[ci]),
                       &nbr_rows_[ci * k]);
    }
  }
  for (size_t i = 0; i < me.size(); ++i) {
    double* row = &overlap_scratch_[i * k];
    const motif::Match& m = ml.match(me[i]);
    for (graph::VertexId v : m.vertices) {
      const graph::PartitionId si = p.PartitionOf(v);
      if (si != graph::kNoPartition) row[si] += 1.0;
    }
    if (use_nbrs) {
      nbr_match_tally_.assign(k, 0);
      for (graph::VertexId v : m.vertices) {
        const size_t ci = static_cast<size_t>(
            std::lower_bound(nbr_cached_vertices_.begin(),
                             nbr_cached_vertices_.end(), v) -
            nbr_cached_vertices_.begin());
        const uint32_t* counts = &nbr_rows_[ci * k];
        for (uint32_t si = 0; si < k; ++si) nbr_match_tally_[si] += counts[si];
      }
      for (uint32_t si = 0; si < k; ++si) {
        row[si] += config_.neighbor_bid_weight *
                   static_cast<double>(nbr_match_tally_[si]);
      }
    }
  }

  const double smin = static_cast<double>(std::max<size_t>(p.MinSize(), 1));
  const double avg = std::max(
      static_cast<double>(p.NumAssigned()) / static_cast<double>(k), 1.0);

  graph::PartitionId best = graph::kNoPartition;
  double best_total = 0.0;
  size_t best_count = 0;
  for (graph::PartitionId si = 0; si < k; ++si) {
    if (p.AtCapacity(si)) continue;
    const double l = RationWith(static_cast<double>(p.Size(si)), smin, avg);
    if (l <= 0.0) continue;
    const size_t count = static_cast<size_t>(
        std::min<double>(std::ceil(l * static_cast<double>(me.size())),
                         static_cast<double>(me.size())));
    const double residual = 1.0 - static_cast<double>(p.Size(si)) /
                                      static_cast<double>(p.Capacity());
    double total = 0.0;
    for (size_t i = 0; i < count; ++i) {
      const double overlap = overlap_scratch_[i * k + si];
      if (overlap <= 0.0) continue;  // Bid() returns exactly 0 here
      total += overlap * residual * sort_scratch_[i].support;
    }
    total *= l;  // Eq. 3 leading l(Si) -- see sweep note in EXPERIMENTS.md
    if (total > best_total ||
        (total == best_total && total > 0.0 && best != graph::kNoPartition &&
         p.Size(si) < p.Size(best))) {
      best = si;
      best_total = total;
      best_count = count;
    }
  }

  if (best == graph::kNoPartition || best_total <= 0.0) {
    return decision;  // no positive bid: caller applies its fallback
  }

  decision.partition = best;
  decision.take = best_count;
  return decision;
}

}  // namespace core
}  // namespace loom
