// The matchList map of Sec. 3: vertex -> motif-matching sub-graphs in the
// window that contain that vertex, plus an edge index so matches can be
// retired when their edges are assigned.
//
// Representation: matches live in a MatchPool (32-bit generational handles)
// and both indexes hold posting lists of 4-byte handles; handles of dead
// matches are skipped via the pool's generation check. The lists are pooled:
//   * the vertex index is one 4-byte slot per vertex id, naming the
//     vertex's list in a pool of vertex lists, or kNoList when the vertex
//     has no live match;
//   * the edge index is a util::MonotoneRing keyed by edge id whose 4-byte
//     payload names the edge's list in a second pool. Edge ids increase and
//     an edge's list only grows while the edge is in the sliding window, so
//     the ring's live key span tracks the window's (the ring mechanics —
//     capped x4 growth, overflow-map spill, head-chasing — are shared with
//     stream::SlidingWindow).
// A list whose vertex loses its last live match, or whose edge leaves the
// window, goes back to its pool's free list for the next vertex or edge
// that needs one. A returned list keeps its buffer only up to
// kRetainedCapacity handles.
//
// Dead handles are pruned when a match is killed: each vertex posting list
// counts its dead entries and compacts itself in place once at least half
// of it is dead, so a list holding any live match has fewer than 2x as many
// entries as live matches, and a list with none is empty and returned.
// Edge posting lists keep their dead handles until their edge leaves the
// window. Reads never prune. Duplicate (same edges, same motif) matches are
// rejected at Commit via a content-hash set.
//
// Memory bound: every edge of a live match is in the window, so with a
// window of t edges at most 2t+1 vertex lists and t+1 edge lists are in use
// at once (the +1 is the edge admitted before the window evicts), and a
// pool never holds more lists than its peak in use. The match index thus
// costs 4 bytes per vertex id plus O(t), however long the stream runs.

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

  /// Look-ahead hint: prefetches v's vertex-index slot. A no-op for v
  /// beyond the index, which it never grows.
  void PrefetchVertex(graph::VertexId v) const {
    if (v < vertex_list_.size()) util::PrefetchRead(&vertex_list_[v]);
  }

  /// Kills every match containing edge `e` (called when `e` is assigned to a
  /// permanent partition and leaves Ptemp). The edge's ring slot and posting
  /// list are freed: `e` can never re-enter the window.
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
    const uint32_t list = ListOf(v);
    return list == kNoList ? 0 : vertex_lists_[list].items.size();
  }

  /// A list returned to its pool keeps a buffer of at most this many
  /// handles; a larger one is freed.
  static constexpr size_t kRetainedCapacity = 16;

  /// Pool occupancy, for tests asserting the window bound.
  struct Footprint {
    size_t vertex_lists = 0;       // pooled vertex lists, in use + free
    size_t edge_lists = 0;         // pooled edge lists, in use + free
    size_t max_free_capacity = 0;  // largest buffer a free list keeps
  };
  Footprint footprint() const;

  /// Writes the pool + both indexes as checkpoint section "matches": one
  /// posting list per vertex-index slot (empty for a vertex without one),
  /// then every claimed edge key with its list. Dead posting entries are
  /// dropped (the restored state looks freshly pruned — observationally
  /// identical, since every read path filters dead handles), but the pool
  /// itself (free-list order, generations) travels verbatim so future
  /// handles and fresh/reused counters match the uninterrupted run. Which
  /// pooled list backs which vertex or edge is not saved.
  void SaveTo(io::CheckpointWriter* w) const;

  /// Restores a SaveTo snapshot; requires a fresh MatchList. Rejects (via
  /// the reader's Fail) a vertex index larger than the section could hold,
  /// a posting entry that is not a live match at that vertex, and a live
  /// match naming a vertex outside the restored index or without a list.
  void LoadFrom(io::CheckpointReader* r);

 private:
  static constexpr uint32_t kNoList = UINT32_MAX;

  struct Postings {
    std::vector<MatchHandle> items;
    uint32_t dead = 0;  // dead handles still in `items` (vertex lists only)
  };

  /// Posting lists recycled through a free list. An index names the same
  /// list until it is released.
  class PostingPool {
   public:
    uint32_t Acquire();
    /// Empties list `i` (freeing a buffer above kRetainedCapacity) and
    /// files it for reuse.
    void Release(uint32_t i);
    Postings& operator[](uint32_t i) { return lists_[i]; }
    const Postings& operator[](uint32_t i) const { return lists_[i]; }
    size_t size() const { return lists_.size(); }
    size_t MaxFreeCapacity() const;

   private:
    std::vector<Postings> lists_;
    std::vector<uint32_t> free_;  // released indexes, reused last-in first
  };

  /// Edge-ring payload: the edge's list in edge_lists_ (kNoList while the
  /// ring slot is free).
  struct EdgeSlot {
    uint32_t list = kNoList;
  };

  /// v's list in vertex_lists_, or kNoList.
  uint32_t ListOf(graph::VertexId v) const {
    return v < vertex_list_.size() ? vertex_list_[v] : kNoList;
  }

  /// Kills a live match: erases its dedup key, releases the pooled record,
  /// then counts the dead handle in each of its vertex lists, pruning a list
  /// once half of it is dead and returning it to the pool once empty.
  void Kill(MatchHandle h);

  /// Extends the edge ring to cover edge id `e` (growing / recycling slots,
  /// spilling keys that fall behind the capped coverage) and returns the
  /// index of its posting list, taking one from the pool for a new key.
  uint32_t EnsureEdgeList(graph::EdgeId e);

  MatchPool pool_;
  std::vector<uint32_t> vertex_list_;  // vertex id -> list, or kNoList
  PostingPool vertex_lists_;
  /// Edge id -> list (capped ring + overflow spill; mechanics shared with
  /// the sliding window via util::MonotoneRing).
  util::MonotoneRing<EdgeSlot, graph::EdgeId> by_edge_;
  PostingPool edge_lists_;
  util::FlatSet64 live_keys_;
};

template <typename Fn>
void MatchList::ForEachLiveAt(graph::VertexId v, Fn&& fn) const {
  const uint32_t list = ListOf(v);
  if (list == kNoList) return;
  const std::vector<MatchHandle>& items = vertex_lists_[list].items;
  const size_t bound = items.size();  // appends during iteration excluded
  for (size_t i = 0; i < bound; ++i) {
    const MatchHandle h = items[i];
    if (pool_.IsLive(h) && !fn(h)) return;
  }
}

}  // namespace motif
}  // namespace loom

#endif  // LOOM_MOTIF_MATCH_LIST_H_
