// Incremental per-partition neighbour counters for high-degree vertices.
//
// LDG's score for a vertex v is argmax over partitions of
// |N(v) ∩ Si| · residual(Si); the tally |N(v) ∩ Si| is recomputed from
// scratch — a full adjacency walk — every time v is scored. For hubs that
// walk is long and happens repeatedly (every bypassed edge touching the
// hub re-scores it until it is finally placed), which is HEP's observation
// about high-degree vertices applied to scoring (ROADMAP item 5, second
// rung). This cache keeps the tally INCREMENTALLY for every vertex whose
// visible degree has crossed a threshold:
//
//   invariant: counts[h][p] == #{ entries w in visible-adj(h) :
//                                 partition(w) == p }
//
// maintained by two hooks, each O(1)-amortised against work the stream
// already does:
//   * OnEdgeVisible(u, v) — an adjacency entry became readable (right
//     after DynamicGraph::AddEdge). If the entry's owner is a materialised
//     hub and the other endpoint is already assigned, bump one counter; if
//     the owner just crossed the threshold, materialise it with one full
//     Partitioning::TallyNeighbors.
//   * OnAssign(v, actual) — v was placed (first-writer-wins, post
//     capacity-diversion partition). Walk v's visible adjacency once and
//     bump counts[h][actual] for every materialised hub entry h. Summed
//     over the stream this is one extra adjacency pass total (O(m)),
//     traded against O(deg(hub)) per re-score.
//
// Exactness: every entry w in a hub's adjacency is counted exactly once —
// at visibility time if w was already assigned, at w's assignment
// otherwise (adjacency entries are symmetric: h appears in adj(w) as many
// times as w appears in adj(h), and a canonical self-loop is a single
// entry walked once). The counters therefore equal the from-scratch
// tally integers at every stream position, for ANY threshold — so
// the partitioning is bit-identical whether the cache is on, off, or set
// to a different threshold (pinned by the hub differential tests).
//
// The cache is derived state and never checkpointed. A restored
// partitioner starts with an empty cache, which is exact as well: a
// vertex without a row falls back to the full tally, and NoteEntry
// materialises a hub again on its next edge, before any decision for that
// edge reads it.

#ifndef LOOM_PARTITION_HUB_TALLY_H_
#define LOOM_PARTITION_HUB_TALLY_H_

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "partition/partitioning.h"
#include "util/prefetch.h"

namespace loom {
namespace partition {

class HubTallyCache {
 public:
  static constexpr uint32_t kDefaultThreshold = 128;
  /// Threshold value meaning "never materialise" (for measuring the cache:
  /// `--opt hub_threshold=4294967295`).
  static constexpr uint32_t kDisabled = UINT32_MAX;

  /// `degree_threshold` 0 means kDefaultThreshold.
  HubTallyCache(uint32_t k, uint32_t degree_threshold)
      : k_(k),
        threshold_(degree_threshold == 0 ? kDefaultThreshold
                                         : degree_threshold) {}

  bool enabled() const { return threshold_ != kDisabled; }

  /// The k per-partition counters for v, or nullptr when v is not a
  /// materialised hub (caller falls back to a full tally). The row holds
  /// exactly the integers a fresh tally of v's visible adjacency would
  /// produce.
  const uint32_t* Counts(graph::VertexId v) const {
    if (v >= hub_row_.size()) return nullptr;
    const uint32_t row = hub_row_[v];
    if (row == kNoRow) return nullptr;
    return &rows_[static_cast<size_t>(row) * k_];
  }

  /// Look-ahead hint: prefetches v's row index. A no-op for v beyond the
  /// index, which it never grows.
  void PrefetchVertex(graph::VertexId v) const {
    if (v < hub_row_.size()) util::PrefetchRead(&hub_row_[v]);
  }

  /// Hook: edge (u,v)'s adjacency entries were just added to `g`. Call
  /// AFTER AddEdge and BEFORE any decision for this edge. Handles u == v
  /// (single entry). Inline: this runs twice per ingested edge.
  void OnEdgeVisible(graph::VertexId u, graph::VertexId v,
                     const graph::DynamicGraph& g, const Partitioning& p) {
    if (!enabled()) return;
    NoteEntry(u, v, g, p);
    // A canonical self-loop is a single entry in u's own chain.
    if (u != v) NoteEntry(v, u, g, p);
  }

  /// Hook: v was just assigned to `actual` (the post-diversion partition,
  /// first assignment only). Call after the partition table is updated.
  void OnAssign(graph::VertexId v, graph::PartitionId actual,
                const graph::DynamicGraph& g) {
    // Cheap even when enabled: until a hub materialises this is one branch.
    if (num_hubs_ == 0) return;
    // v occurs in adj(w) exactly as many times as w occurs in adj(v), so
    // bumping once per occurrence here keeps hub rows multiplicity-exact
    // for duplicate edges; a self-loop is one entry, walked once.
    const size_t known = hub_row_.size();
    g.Neighbors(v).ForEachChunk([&](const graph::VertexId* ids, size_t n) {
      for (size_t i = 0; i < n; ++i) {
        const graph::VertexId w = ids[i];
        if (w < known && hub_row_[w] != kNoRow) {
          rows_[static_cast<size_t>(hub_row_[w]) * k_ + actual] += 1;
        }
      }
    });
  }

 private:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// One new entry `w` appended to `h`'s visible adjacency.
  void NoteEntry(graph::VertexId h, graph::VertexId w,
                 const graph::DynamicGraph& g, const Partitioning& p) {
    if (h < hub_row_.size() && hub_row_[h] != kNoRow) {
      const graph::PartitionId pw = p.PartitionOf(w);
      if (pw < k_) rows_[static_cast<size_t>(hub_row_[h]) * k_ + pw] += 1;
      return;
    }
    // The tally in Materialize already covers the entry that triggered the
    // crossing, so no separate bump on this path.
    if (g.Degree(h) >= threshold_) Materialize(h, g, p);
  }

  void Materialize(graph::VertexId h, const graph::DynamicGraph& g,
                   const Partitioning& p);

  uint32_t k_;
  uint32_t threshold_;
  /// Per-vertex row index into rows_, kNoRow when not materialised.
  std::vector<uint32_t> hub_row_;
  /// Row-major [num_hubs_ x k_] counters.
  std::vector<uint32_t> rows_;
  size_t num_hubs_ = 0;
};

}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_HUB_TALLY_H_
