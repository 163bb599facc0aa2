#include "motif/match_list.h"

#include <algorithm>
#include <cassert>

namespace loom {
namespace motif {

// ----------------------------------------------------------- edge ring

void MatchList::ReserveEdgeSpan(size_t span) {
  by_edge_.SetGrowthCap(
      std::max(by_edge_.GrowthCap(), util::RingGrowthCap(span)));
  by_edge_.Presize(span);
}

MatchList::PostingList* MatchList::EnsureEdgeSlot(graph::EdgeId e) {
  bool created = false;
  PostingList* pl = by_edge_.GetOrCreate(e, &created);
  if (created) {
    // Recycled slot (a freed key from a full ring-length ago, or a
    // never-activated one): the items vector keeps its capacity.
    pl->items.clear();
    pl->dead = 0;
  }
  return pl;
}

// -------------------------------------------------------------- pruning

void MatchList::Prune(PostingList* pl) {
  auto& items = pl->items;
  items.erase(std::remove_if(items.begin(), items.end(),
                             [this](MatchHandle h) { return !pool_.IsLive(h); }),
              items.end());
  pl->dead = 0;
}

void MatchList::PruneIfStale(PostingList* pl) {
  if (pl->dead > 0 && static_cast<size_t>(pl->dead) * 2 >= pl->items.size()) {
    Prune(pl);
  }
}

// ------------------------------------------------------------- mutation

bool MatchList::Commit(MatchHandle h) {
  Match& m = pool_.Get(h);
  assert(std::is_sorted(m.edges.begin(), m.edges.end()));
  assert(std::is_sorted(m.vertices.begin(), m.vertices.end()));
  const uint64_t key = m.Key();
  if (!live_keys_.Insert(key)) {
    pool_.Release(h);
    return false;
  }
  for (graph::VertexId v : m.vertices) {
    if (v >= by_vertex_.size()) by_vertex_.resize(v + 1);
    by_vertex_[v].items.push_back(h);
  }
  for (graph::EdgeId e : m.edges) {
    EnsureEdgeSlot(e)->items.push_back(h);
  }
  ++live_count_;
  ++total_added_;
  return true;
}

void MatchList::Kill(MatchHandle h) {
  const Match& m = pool_.Get(h);
  live_keys_.Erase(m.Key());
  --live_count_;
  for (graph::VertexId v : m.vertices) {
    if (++by_vertex_[v].dead == 1) dirty_vertices_.push_back(v);
  }
  for (graph::EdgeId e : m.edges) {
    PostingList* pl = by_edge_.Find(e);
    if (pl != nullptr && ++pl->dead == 1) dirty_edges_.push_back(e);
  }
  pool_.Release(h);
}

void MatchList::RemoveMatchesWithEdge(graph::EdgeId e) {
  PostingList* pl = by_edge_.Find(e);
  if (pl == nullptr) return;
  for (MatchHandle h : pl->items) {
    if (pool_.IsLive(h)) Kill(h);
  }
  pl->items.clear();
  pl->dead = 0;
  // Frees the key (ring slots keep the cleared vector's capacity for the
  // next tenant; overflow entries are destroyed outright).
  by_edge_.Erase(e);
}

// -------------------------------------------------------------- queries

void MatchList::CollectLiveAt(graph::VertexId v, std::vector<MatchHandle>* out,
                              size_t limit) {
  if (limit == 0) return;
  size_t taken = 0;
  ForEachLiveAt(v, [&](MatchHandle h) {
    out->push_back(h);
    return ++taken < limit;
  });
}

void MatchList::CollectLiveWithEdge(graph::EdgeId e,
                                    std::vector<MatchHandle>* out) {
  PostingList* pl = by_edge_.Find(e);
  if (pl == nullptr) return;
  PruneIfStale(pl);
  const size_t bound = pl->items.size();
  for (size_t i = 0; i < bound; ++i) {
    if (pool_.IsLive(pl->items[i])) out->push_back(pl->items[i]);
  }
}

std::vector<MatchHandle> MatchList::LiveAt(graph::VertexId v) const {
  std::vector<MatchHandle> out;
  if (v >= by_vertex_.size()) return out;
  for (MatchHandle h : by_vertex_[v].items) {
    if (pool_.IsLive(h)) out.push_back(h);
  }
  return out;
}

std::vector<MatchHandle> MatchList::LiveWithEdge(graph::EdgeId e) const {
  std::vector<MatchHandle> out;
  const PostingList* pl = by_edge_.Find(e);
  if (pl == nullptr) return out;
  for (MatchHandle h : pl->items) {
    if (pool_.IsLive(h)) out.push_back(h);
  }
  return out;
}

bool MatchList::HasLiveAt(graph::VertexId v) const {
  if (v >= by_vertex_.size()) return false;
  for (MatchHandle h : by_vertex_[v].items) {
    if (pool_.IsLive(h)) return true;
  }
  return false;
}

bool MatchList::HasLiveAt(graph::VertexId v) {
  if (v >= by_vertex_.size()) return false;
  PostingList& pl = by_vertex_[v];
  PruneIfStale(&pl);
  for (MatchHandle h : pl.items) {
    if (pool_.IsLive(h)) return true;
  }
  return false;
}

void MatchList::SaveTo(io::CheckpointWriter* w) const {
  w->BeginSection("matches");
  pool_.SaveTo(w);
  w->U64(live_count_);
  w->U64(total_added_);
  std::vector<MatchHandle> live;
  auto live_items = [&](const PostingList& pl) -> const std::vector<MatchHandle>& {
    live.clear();
    for (MatchHandle h : pl.items) {
      if (pool_.IsLive(h)) live.push_back(h);
    }
    return live;
  };
  w->U64(by_vertex_.size());
  for (const PostingList& pl : by_vertex_) w->PodVec(live_items(pl));
  // Every claimed edge-ring key is saved, even when its list is all-dead:
  // the claimed-key set is state (EnsureEdgeSlot blanks re-created keys), so
  // preserving it keeps the restored run's slot recycling exactly in step.
  uint64_t num_edge_keys = 0;
  by_edge_.ForEach(
      [&num_edge_keys](graph::EdgeId, const PostingList&) { ++num_edge_keys; });
  w->U64(num_edge_keys);
  by_edge_.ForEach([&](graph::EdgeId e, const PostingList& pl) {
    w->U32(e);
    w->PodVec(live_items(pl));
  });
  w->EndSection();
}

void MatchList::LoadFrom(io::CheckpointReader* r) {
  assert(total_added_ == 0 && by_vertex_.empty() && "restore into fresh list");
  r->Open("matches");
  pool_.LoadFrom(r);
  live_count_ = r->U64();
  total_added_ = r->U64();
  by_vertex_.assign(r->U64(), {});
  for (PostingList& pl : by_vertex_) r->PodVec(&pl.items);
  const uint64_t num_edge_keys = r->U64();  // saved ascending (ring ForEach)
  for (uint64_t i = 0; i < num_edge_keys; ++i) {
    const graph::EdgeId e = r->U32();
    r->PodVec(&EnsureEdgeSlot(e)->items);
  }
  r->Close();
  // The dedup key set is derived state: rebuild it from the live matches.
  pool_.ForEachLive(
      [this](MatchHandle, const Match& m) { live_keys_.Insert(m.Key()); });
}

void MatchList::Compact() {
  // Dirty list instead of a full sweep; opportunistic pruning may have
  // already cleaned an entry (Prune is idempotent) and a vertex may appear
  // twice (re-dirtied after a prune) — both are harmless.
  for (graph::VertexId v : dirty_vertices_) {
    PostingList& pl = by_vertex_[v];
    if (pl.dead > 0) Prune(&pl);
  }
  dirty_vertices_.clear();
  for (graph::EdgeId e : dirty_edges_) {
    PostingList* pl = by_edge_.Find(e);
    if (pl != nullptr && pl->dead > 0) Prune(pl);
  }
  dirty_edges_.clear();
}

}  // namespace motif
}  // namespace loom
