// The matchList map of Sec. 3: vertex -> motif-matching sub-graphs in the
// window that contain that vertex, plus an edge index so matches can be
// retired when their edges are assigned.
//
// Representation: matches live in a MatchPool (32-bit generational handles);
// the per-vertex index is a flat array of posting lists indexed by vertex id
// (vertex ids are dense), and the per-edge index is a util::MonotoneRing of
// posting lists keyed by edge id — edge ids are monotonically increasing and
// an edge's list can only be appended to while the edge is in the sliding
// window, so the ring's live key span tracks the window's and slots are
// recycled as edges are assigned (the ring mechanics — capped x4 growth,
// overflow-map spill, head-chasing — are shared with stream::SlidingWindow).
// Posting lists hold 4-byte handles (not 16-byte shared_ptrs) and handles of
// dead matches are skipped via the pool's generation check.
//
// Dead handles are pruned opportunistically: each posting list counts its
// dead entries and compacts itself in place the next time it is iterated
// past a 50% dead ratio, so memory stays bounded between the matcher's
// periodic full Compact() calls. Duplicate (same edges, same motif) matches
// are rejected at Commit via a content-hash set.

#ifndef LOOM_MOTIF_MATCH_LIST_H_
#define LOOM_MOTIF_MATCH_LIST_H_

#include <cstdint>
#include <vector>

#include "motif/match.h"
#include "motif/match_pool.h"
#include "util/flat_set64.h"
#include "util/monotone_ring.h"
#include "util/prefetch.h"

namespace loom {
namespace motif {

class MatchList {
 public:
  MatchList() = default;

  // ----------------------------------------------------------- match access

  Match& match(MatchHandle h) { return pool_.Get(h); }
  const Match& match(MatchHandle h) const { return pool_.Get(h); }
  bool IsLive(MatchHandle h) const { return pool_.IsLive(h); }
  const MatchPool& pool() const { return pool_; }

  // ----------------------------------------------------- building matches

  /// Allocates a blank pooled record for the caller to fill via match(h).
  MatchHandle Acquire() { return pool_.Allocate(); }

  /// Registers a filled record. Returns false — and recycles the record,
  /// invalidating `h` — if an identical live match already exists.
  bool Commit(MatchHandle h);

  /// Discards a record acquired but not committed.
  void Abort(MatchHandle h) { pool_.Release(h); }

  // ------------------------------------------------------------- iteration

  /// Calls `fn(h)` for each live match containing vertex `v`, in insertion
  /// order, until `fn` returns false. Prunes the posting list first when it
  /// is at least half dead; dead handles are skipped, never passed to `fn`.
  /// `fn` must not mutate this MatchList.
  template <typename Fn>
  void ForEachLiveAt(graph::VertexId v, Fn&& fn);

  /// Appends the first `limit` live matches containing vertex `v` to `out`
  /// (insertion order preserved; `out` is not cleared; dead handles do not
  /// count towards `limit`). Safe to Commit/Remove while walking the
  /// collected handles.
  void CollectLiveAt(graph::VertexId v, std::vector<MatchHandle>* out,
                     size_t limit = SIZE_MAX);

  /// Same for matches containing window edge `e`.
  void CollectLiveWithEdge(graph::EdgeId e, std::vector<MatchHandle>* out);

  /// Convenience snapshot (allocates; tests and cold paths only).
  std::vector<MatchHandle> LiveAt(graph::VertexId v) const;
  std::vector<MatchHandle> LiveWithEdge(graph::EdgeId e) const;

  /// True if any live match contains vertex v (cheaper than LiveAt). The
  /// non-const overload prunes a mostly-dead list before scanning — hub
  /// vertices are probed per bypassed edge and would otherwise rescan their
  /// dead handles until the next Compact.
  bool HasLiveAt(graph::VertexId v) const;
  bool HasLiveAt(graph::VertexId v);

  /// Look-ahead hint: prefetches v's posting-list entry. A no-op for v
  /// beyond the index, which it never grows.
  void PrefetchVertex(graph::VertexId v) const {
    if (v < by_vertex_.size()) util::PrefetchRead(&by_vertex_[v]);
  }

  /// Kills every match containing edge `e` (called when `e` is assigned to a
  /// permanent partition and leaves Ptemp). The edge's ring slot is freed:
  /// `e` can never re-enter the window.
  void RemoveMatchesWithEdge(graph::EdgeId e);

  /// Pre-sizes the edge ring for an expected live id span (e.g. the sliding
  /// window's capacity) to skip early growth re-placements, and raises the
  /// ring's growth cap to ~16x that span (lingering keys beyond the cap
  /// spill into an ordered overflow map, mirroring SlidingWindow).
  void ReserveEdgeSpan(size_t span);

  /// Number of currently live matches.
  size_t NumLive() const { return live_count_; }

  /// Total matches ever committed (monotone; for stats).
  size_t TotalAdded() const { return total_added_; }

  /// Drops dead handles from every posting list. Called periodically by the
  /// matcher to bound memory (opportunistic pruning covers hot lists in
  /// between).
  void Compact();

  /// Total (live + not-yet-pruned dead) entries in v's posting list; for
  /// tests asserting the opportunistic-pruning memory bound.
  size_t IndexEntriesAt(graph::VertexId v) const {
    return v < by_vertex_.size() ? by_vertex_[v].items.size() : 0;
  }

  /// Writes the pool + both indexes as checkpoint section "matches". Dead
  /// posting entries are dropped (the restored state looks freshly pruned —
  /// observationally identical, since every read path filters dead handles),
  /// but the pool itself (free-list order, generations) travels verbatim so
  /// future handles and fresh/reused counters match the uninterrupted run.
  void SaveTo(io::CheckpointWriter* w) const;

  /// Restores a SaveTo snapshot; requires a fresh MatchList.
  void LoadFrom(io::CheckpointReader* r);

 private:
  struct PostingList {
    std::vector<MatchHandle> items;
    uint32_t dead = 0;  // dead handles still in `items`
  };

  /// Compacts `pl` in place when at least half its entries are dead.
  void PruneIfStale(PostingList* pl);
  void Prune(PostingList* pl);

  /// Kills a live match: erases its dedup key, bumps the dead counters of
  /// every posting list that holds it, and releases the pooled record.
  void Kill(MatchHandle h);

  /// Extends the edge ring to cover edge id `e` (growing / recycling slots,
  /// spilling keys that fall behind the capped coverage) and returns its
  /// (activated) posting list.
  PostingList* EnsureEdgeSlot(graph::EdgeId e);

  MatchPool pool_;
  std::vector<PostingList> by_vertex_;  // flat, indexed by vertex id
  /// Vertices/edges whose posting list gained its first dead handle since
  /// the last Compact — so Compact visits only dirty lists instead of
  /// sweeping the whole vertex space / edge ring.
  std::vector<graph::VertexId> dirty_vertices_;
  std::vector<graph::EdgeId> dirty_edges_;
  /// Per-edge posting lists, keyed by edge id (capped ring + overflow spill;
  /// mechanics shared with the sliding window via util::MonotoneRing).
  util::MonotoneRing<PostingList, graph::EdgeId> by_edge_;
  util::FlatSet64 live_keys_;
  size_t live_count_ = 0;
  size_t total_added_ = 0;
};

template <typename Fn>
void MatchList::ForEachLiveAt(graph::VertexId v, Fn&& fn) {
  if (v >= by_vertex_.size()) return;
  PostingList& pl = by_vertex_[v];
  PruneIfStale(&pl);
  const size_t bound = pl.items.size();  // appends during iteration excluded
  for (size_t i = 0; i < bound; ++i) {
    const MatchHandle h = pl.items[i];
    if (pool_.IsLive(h) && !fn(h)) return;
  }
}

}  // namespace motif
}  // namespace loom

#endif  // LOOM_MOTIF_MATCH_LIST_H_
