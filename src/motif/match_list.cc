#include "motif/match_list.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace loom {
namespace motif {

// ----------------------------------------------------------- edge ring

void MatchList::ReserveEdgeSpan(size_t span) {
  by_edge_.SetGrowthCap(
      std::max(by_edge_.GrowthCap(), util::RingGrowthCap(span)));
  by_edge_.Presize(span);
}

MatchList::EdgePostings* MatchList::EnsureEdgeSlot(graph::EdgeId e) {
  bool created = false;
  EdgePostings* pl = by_edge_.GetOrCreate(e, &created);
  // Recycled slot (a freed key from a full ring-length ago, or a
  // never-activated one): the vector keeps its capacity.
  if (created) pl->clear();
  return pl;
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
  for (graph::EdgeId e : m.edges) EnsureEdgeSlot(e)->push_back(h);
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
    VertexPostings& pl = by_vertex_[v];
    if (++pl.dead * size_t{2} < pl.items.size()) continue;
    std::erase_if(pl.items, [this](MatchHandle x) { return !pool_.IsLive(x); });
    pl.dead = 0;
  }
}

void MatchList::RemoveMatchesWithEdge(graph::EdgeId e) {
  EdgePostings* pl = by_edge_.Find(e);
  if (pl == nullptr) return;
  for (MatchHandle h : *pl) {
    if (pool_.IsLive(h)) Kill(h);
  }
  pl->clear();
  // Frees the key (ring slots keep the cleared vector's capacity for the
  // next tenant; overflow entries are destroyed outright).
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
  const EdgePostings* pl = by_edge_.Find(e);
  if (pl == nullptr) return;
  for (MatchHandle h : *pl) {
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
  auto live_items = [&](const std::vector<MatchHandle>& items)
      -> const std::vector<MatchHandle>& {
    live.clear();
    for (MatchHandle h : items) {
      if (pool_.IsLive(h)) live.push_back(h);
    }
    return live;
  };
  w->U64(by_vertex_.size());
  for (const VertexPostings& pl : by_vertex_) w->PodVec(live_items(pl.items));
  // Every claimed edge-ring key is saved, even when its list is all-dead:
  // the claimed-key set is state (EnsureEdgeSlot blanks re-created keys), so
  // preserving it keeps the restored run's slot recycling exactly in step.
  uint64_t num_edge_keys = 0;
  by_edge_.ForEach(
      [&num_edge_keys](graph::EdgeId, const EdgePostings&) { ++num_edge_keys; });
  w->U64(num_edge_keys);
  by_edge_.ForEach([&](graph::EdgeId e, const EdgePostings& pl) {
    w->U32(e);
    w->PodVec(live_items(pl));
  });
  w->EndSection();
}

void MatchList::LoadFrom(io::CheckpointReader* r) {
  assert(pool_.NumLive() == 0 && by_vertex_.empty() &&
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
  by_vertex_.resize(num_vertices);
  for (size_t v = 0; v < by_vertex_.size(); ++v) {
    r->PodVec(&by_vertex_[v].items);
    // Saved lists hold live handles only; the dead counts start at 0.
    for (MatchHandle h : by_vertex_[v].items) {
      const Match* m = pool_.Find(h);
      if (m == nullptr || !m->ContainsVertex(static_cast<graph::VertexId>(v))) {
        r->Fail("corrupt match index: vertex " + std::to_string(v) +
                " lists a handle that is not a live match at it");
      }
    }
  }
  const uint64_t num_edge_keys = r->U64();  // saved ascending (ring ForEach)
  for (uint64_t i = 0; i < num_edge_keys; ++i) {
    const graph::EdgeId e = r->U32();
    r->PodVec(EnsureEdgeSlot(e));
  }
  r->Close();
  // Kill indexes by_vertex_ by every vertex of a live match, and the dedup
  // key set is derived state: check the one, rebuild the other.
  pool_.ForEachLive([&](MatchHandle, const Match& m) {
    for (graph::VertexId v : m.vertices) {
      if (v >= by_vertex_.size()) {
        r->Fail("corrupt match index: a live match names vertex " +
                std::to_string(v) + ", outside the " +
                std::to_string(by_vertex_.size()) + "-vertex index");
      }
    }
    live_keys_.Insert(m.Key());
  });
}

}  // namespace motif
}  // namespace loom
