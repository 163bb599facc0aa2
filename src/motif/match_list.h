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
// Dead handles are pruned when a match is killed: each vertex posting list
// counts its dead entries and compacts itself in place once at least half
// of it is dead, so a list holding any live match has fewer than 2x as many
// entries as live matches, and a list with none is empty. Edge posting
// lists keep their dead handles until their edge leaves the window, which
// empties them. Reads never prune. Duplicate (same edges, same motif)
// matches are rejected at Commit via a content-hash set.

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
  /// order, until `fn` returns false. Dead handles are skipped, never passed
  /// to `fn`. `fn` must not mutate this MatchList.
  template <typename Fn>
  void ForEachLiveAt(graph::VertexId v, Fn&& fn) const;

  /// Appends the first `limit` live matches containing vertex `v` to `out`
  /// (insertion order preserved; `out` is not cleared; dead handles do not
  /// count towards `limit`). Safe to Commit/Remove while walking the
  /// collected handles.
  void CollectLiveAt(graph::VertexId v, std::vector<MatchHandle>* out,
                     size_t limit = SIZE_MAX) const;

  /// Same for matches containing window edge `e`.
  void CollectLiveWithEdge(graph::EdgeId e,
                           std::vector<MatchHandle>* out) const;

  /// Convenience snapshot (allocates; tests and cold paths only).
  std::vector<MatchHandle> LiveAt(graph::VertexId v) const;
  std::vector<MatchHandle> LiveWithEdge(graph::EdgeId e) const;

  /// True if any live match contains vertex v (cheaper than LiveAt).
  bool HasLiveAt(graph::VertexId v) const;

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

  /// Live records in the pool: every committed match that is still live,
  /// plus a record acquired and not yet committed or aborted.
  size_t NumLive() const { return pool_.NumLive(); }

  /// Does nothing (posting lists prune themselves when a match is killed):
  /// bench/e2e/trace.cc's replica still calls it.
  void Compact() {}

  /// Total (live + not-yet-pruned dead) entries in v's posting list; for
  /// tests asserting the posting-list bound.
  size_t IndexEntriesAt(graph::VertexId v) const {
    return v < by_vertex_.size() ? by_vertex_[v].items.size() : 0;
  }

  /// Writes the pool + both indexes as checkpoint section "matches". Dead
  /// posting entries are dropped (the restored state looks freshly pruned —
  /// observationally identical, since every read path filters dead handles),
  /// but the pool itself (free-list order, generations) travels verbatim so
  /// future handles and fresh/reused counters match the uninterrupted run.
  void SaveTo(io::CheckpointWriter* w) const;

  /// Restores a SaveTo snapshot; requires a fresh MatchList. Rejects (via
  /// the reader's Fail) a vertex index larger than the section could hold,
  /// a posting entry that is not a live match at that vertex, and a live
  /// match naming a vertex outside the restored index.
  void LoadFrom(io::CheckpointReader* r);

 private:
  struct VertexPostings {
    std::vector<MatchHandle> items;
    uint32_t dead = 0;  // dead handles still in `items`
  };
  using EdgePostings = std::vector<MatchHandle>;

  /// Kills a live match: erases its dedup key, releases the pooled record,
  /// then counts the dead handle in each of its vertex lists, pruning a list
  /// once half of it is dead.
  void Kill(MatchHandle h);

  /// Extends the edge ring to cover edge id `e` (growing / recycling slots,
  /// spilling keys that fall behind the capped coverage) and returns its
  /// (activated) posting list.
  EdgePostings* EnsureEdgeSlot(graph::EdgeId e);

  MatchPool pool_;
  std::vector<VertexPostings> by_vertex_;  // flat, indexed by vertex id
  /// Per-edge posting lists, keyed by edge id (capped ring + overflow spill;
  /// mechanics shared with the sliding window via util::MonotoneRing).
  util::MonotoneRing<EdgePostings, graph::EdgeId> by_edge_;
  util::FlatSet64 live_keys_;
};

template <typename Fn>
void MatchList::ForEachLiveAt(graph::VertexId v, Fn&& fn) const {
  if (v >= by_vertex_.size()) return;
  const std::vector<MatchHandle>& items = by_vertex_[v].items;
  const size_t bound = items.size();  // appends during iteration excluded
  for (size_t i = 0; i < bound; ++i) {
    const MatchHandle h = items[i];
    if (pool_.IsLive(h) && !fn(h)) return;
  }
}

}  // namespace motif
}  // namespace loom

#endif  // LOOM_MOTIF_MATCH_LIST_H_
