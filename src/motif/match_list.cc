#include "motif/match_list.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace loom {
namespace motif {

// --------------------------------------------------------- list pools

uint32_t MatchList::PostingPool::Acquire() {
  if (free_.empty()) {
    lists_.emplace_back();
    return static_cast<uint32_t>(lists_.size() - 1);
  }
  const uint32_t i = free_.back();
  free_.pop_back();
  return i;
}

void MatchList::PostingPool::Release(uint32_t i) {
  Postings& pl = lists_[i];
  if (pl.items.capacity() > kRetainedCapacity) {
    std::vector<MatchHandle>().swap(pl.items);
  } else {
    pl.items.clear();
  }
  pl.dead = 0;
  free_.push_back(i);
}

size_t MatchList::PostingPool::MaxFreeCapacity() const {
  size_t most = 0;
  for (const uint32_t i : free_) {
    most = std::max(most, lists_[i].items.capacity());
  }
  return most;
}

MatchList::Footprint MatchList::footprint() const {
  return {vertex_lists_.size(), edge_lists_.size(),
          std::max(vertex_lists_.MaxFreeCapacity(),
                   edge_lists_.MaxFreeCapacity())};
}

// ----------------------------------------------------------- edge ring

void MatchList::ReserveEdgeSpan(size_t span) {
  by_edge_.SetGrowthCap(
      std::max(by_edge_.GrowthCap(), util::RingGrowthCap(span)));
  by_edge_.Presize(span);
}

uint32_t MatchList::EnsureEdgeList(graph::EdgeId e) {
  bool created = false;
  EdgeSlot* slot = by_edge_.GetOrCreate(e, &created);
  if (created) {
    // A new key: RemoveMatchesWithEdge returned the slot's previous list.
    assert(slot->list == kNoList);
    slot->list = edge_lists_.Acquire();
  }
  return slot->list;
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
    if (v >= vertex_list_.size()) vertex_list_.resize(v + 1, kNoList);
    uint32_t& list = vertex_list_[v];
    if (list == kNoList) list = vertex_lists_.Acquire();
    vertex_lists_[list].items.push_back(h);
  }
  for (graph::EdgeId e : m.edges) {
    edge_lists_[EnsureEdgeList(e)].items.push_back(h);
  }
  return true;
}

void MatchList::Kill(MatchHandle h) {
  // Release first, so a prune below sees `h` as dead and drops it with the
  // rest; pruning before the release would keep `h` in the list with the
  // list's dead count already reset. The record's content stays readable
  // until the slot's next Allocate.
  const Match& m = pool_.Get(h);
  live_keys_.Erase(m.Key());
  pool_.Release(h);
  for (graph::VertexId v : m.vertices) {
    uint32_t& list = vertex_list_[v];
    assert(list != kNoList && "a live match is in each of its vertex lists");
    Postings& pl = vertex_lists_[list];
    if (++pl.dead * size_t{2} < pl.items.size()) continue;
    std::erase_if(pl.items, [this](MatchHandle x) { return !pool_.IsLive(x); });
    pl.dead = 0;
    if (pl.items.empty()) {
      vertex_lists_.Release(list);
      list = kNoList;
    }
  }
}

void MatchList::RemoveMatchesWithEdge(graph::EdgeId e) {
  EdgeSlot* slot = by_edge_.Find(e);
  if (slot == nullptr) return;
  // Kill touches only the vertex lists, so `items` stays put.
  for (MatchHandle h : edge_lists_[slot->list].items) {
    if (pool_.IsLive(h)) Kill(h);
  }
  edge_lists_.Release(slot->list);
  slot->list = kNoList;
  by_edge_.Erase(e);
}

// -------------------------------------------------------------- queries

void MatchList::CollectLiveAt(graph::VertexId v, std::vector<MatchHandle>* out,
                              size_t limit) const {
  if (limit == 0) return;
  size_t taken = 0;
  ForEachLiveAt(v, [&](MatchHandle h) {
    out->push_back(h);
    return ++taken < limit;
  });
}

void MatchList::CollectLiveWithEdge(graph::EdgeId e,
                                    std::vector<MatchHandle>* out) const {
  const EdgeSlot* slot = by_edge_.Find(e);
  if (slot == nullptr) return;
  for (MatchHandle h : edge_lists_[slot->list].items) {
    if (pool_.IsLive(h)) out->push_back(h);
  }
}

std::vector<MatchHandle> MatchList::LiveAt(graph::VertexId v) const {
  std::vector<MatchHandle> out;
  CollectLiveAt(v, &out);
  return out;
}

std::vector<MatchHandle> MatchList::LiveWithEdge(graph::EdgeId e) const {
  std::vector<MatchHandle> out;
  CollectLiveWithEdge(e, &out);
  return out;
}

bool MatchList::HasLiveAt(graph::VertexId v) const {
  bool found = false;
  ForEachLiveAt(v, [&found](MatchHandle) {
    found = true;
    return false;
  });
  return found;
}

// ------------------------------------------------------------ checkpoint

void MatchList::SaveTo(io::CheckpointWriter* w) const {
  w->BeginSection("matches");
  pool_.SaveTo(w);
  std::vector<MatchHandle> live;
  auto live_items = [&](const PostingPool& lists, uint32_t list)
      -> const std::vector<MatchHandle>& {
    live.clear();
    if (list == kNoList) return live;
    for (MatchHandle h : lists[list].items) {
      if (pool_.IsLive(h)) live.push_back(h);
    }
    return live;
  };
  w->U64(vertex_list_.size());
  for (const uint32_t list : vertex_list_) {
    w->PodVec(live_items(vertex_lists_, list));
  }
  // Every claimed edge-ring key is saved, even when its list is all-dead:
  // the claimed-key set is state (a re-created key gets a fresh list), so
  // preserving it keeps the restored run's slot recycling exactly in step.
  uint64_t num_edge_keys = 0;
  by_edge_.ForEach(
      [&num_edge_keys](graph::EdgeId, const EdgeSlot&) { ++num_edge_keys; });
  w->U64(num_edge_keys);
  by_edge_.ForEach([&](graph::EdgeId e, const EdgeSlot& slot) {
    w->U32(e);
    w->PodVec(live_items(edge_lists_, slot.list));
  });
  w->EndSection();
}

void MatchList::LoadFrom(io::CheckpointReader* r) {
  assert(pool_.NumLive() == 0 && vertex_list_.empty() &&
         "restore into a fresh list");
  r->Open("matches");
  pool_.LoadFrom(r);
  // Each posting list takes at least its 8-byte count: bound the index by
  // what the section still holds before allocating it.
  const uint64_t num_vertices = r->U64();
  if (num_vertices > r->Remaining() / sizeof(uint64_t)) {
    r->Fail("corrupt match index: " + std::to_string(num_vertices) +
            " vertex posting lists in a section with " +
            std::to_string(r->Remaining()) + " bytes left");
  }
  vertex_list_.assign(num_vertices, kNoList);
  std::vector<MatchHandle> items;
  for (size_t v = 0; v < vertex_list_.size(); ++v) {
    r->PodVec(&items);
    if (items.empty()) continue;
    // Saved lists hold live handles only; the dead counts start at 0.
    for (MatchHandle h : items) {
      const Match* m = pool_.Find(h);
      if (m == nullptr || !m->ContainsVertex(static_cast<graph::VertexId>(v))) {
        r->Fail("corrupt match index: vertex " + std::to_string(v) +
                " lists a handle that is not a live match at it");
      }
    }
    vertex_list_[v] = vertex_lists_.Acquire();
    vertex_lists_[vertex_list_[v]].items.swap(items);
  }
  const uint64_t num_edge_keys = r->U64();  // saved ascending (ring ForEach)
  for (uint64_t i = 0; i < num_edge_keys; ++i) {
    const graph::EdgeId e = r->U32();
    r->PodVec(&edge_lists_[EnsureEdgeList(e)].items);
  }
  r->Close();
  // Kill indexes vertex_list_ by every vertex of a live match and expects a
  // list there, and the dedup key set is derived state: check the one,
  // rebuild the other.
  pool_.ForEachLive([&](MatchHandle, const Match& m) {
    for (graph::VertexId v : m.vertices) {
      if (v >= vertex_list_.size()) {
        r->Fail("corrupt match index: a live match names vertex " +
                std::to_string(v) + ", outside the " +
                std::to_string(vertex_list_.size()) + "-vertex index");
      }
      if (vertex_list_[v] == kNoList) {
        r->Fail("corrupt match index: a live match names vertex " +
                std::to_string(v) + ", whose posting list is empty");
      }
    }
    live_keys_.Insert(m.Key());
  });
}

}  // namespace motif
}  // namespace loom
