#include "motif/motif_matcher.h"

#include <cassert>
#include <utility>

namespace loom {
namespace motif {

MotifMatcher::MotifMatcher(const tpstry::Tpstry* trie,
                           const signature::SignatureCalculator* calc,
                           MatcherConfig config)
    : trie_(trie), calc_(calc), config_(config) {
  admission_side_ = calc_->num_labels();
  admission_.assign(admission_side_ * admission_side_, nullptr);
  admission_known_.assign(admission_side_ * admission_side_, 0);
  max_motif_edges_ = trie_->MaxMotifEdges();
  RefreshExtendability();
}

void MotifMatcher::RefreshExtendability() {
  node_extendable_.assign(trie_->NumNodes(), 0);
  for (uint32_t id = 0; id < trie_->NumNodes(); ++id) {
    for (uint32_t cid : trie_->node(id).children) {
      if (trie_->IsMotif(cid)) {
        node_extendable_[id] = 1;
        break;
      }
    }
  }
}

void MotifMatcher::InvalidateMotifCache() {
  admission_side_ = calc_->num_labels();  // re-fit to a grown alphabet
  admission_.assign(admission_side_ * admission_side_, nullptr);
  admission_known_.assign(admission_side_ * admission_side_, 0);
  child_memo_.Clear();
  max_motif_edges_ = trie_->MaxMotifEdges();
  RefreshExtendability();
}

const tpstry::TpsNode* MotifMatcher::SingleEdgeMotif(
    const stream::StreamEdge& e) const {
  assert(e.label_u < admission_side_ && e.label_v < admission_side_);
  const size_t idx =
      static_cast<size_t>(e.label_u) * admission_side_ + e.label_v;
  if (!admission_known_[idx]) {
    admission_[idx] = trie_->FindSingleEdgeMotif(
        calc_->SingleEdgeSignature(e.label_u, e.label_v));
    admission_known_[idx] = 1;
  }
  return admission_[idx];
}

const tpstry::TpsNode* MotifMatcher::FindMotifChildMemo(uint32_t node_id) {
  // Canonicalise the delta (ExtendsBy treats it as a multiset) and pack it
  // with the node id into one 64-bit key.
  uint32_t f0 = delta_[0], f1 = delta_[1], f2 = delta_[2];
  if (f0 > f1) std::swap(f0, f1);
  if (f1 > f2) std::swap(f1, f2);
  if (f0 > f1) std::swap(f0, f1);
  if ((node_id | f0 | f1 | f2) >> 16 != 0) {
    return trie_->FindMotifChild(node_id, delta_);  // doesn't fit: no memo
  }
  const uint64_t key = (uint64_t{node_id} << 48) | (uint64_t{f0} << 32) |
                       (uint64_t{f1} << 16) | f2;
  if (const tpstry::TpsNode* const* hit = child_memo_.Find(key)) return *hit;
  const tpstry::TpsNode* c = trie_->FindMotifChild(node_id, delta_);
  child_memo_.Insert(key, c);
  return c;
}

MatchHandle MotifMatcher::TryExtend(MatchHandle mh, const stream::StreamEdge& e,
                                    MatchList* ml) {
  const Match& m = ml->match(mh);
  if (m.edges.size() >= max_motif_edges_) return kNullMatch;  // can't grow
  if (!node_extendable_[m.node_id]) return kNullMatch;  // no motif children
  if (m.ContainsEdge(e.id)) return kNullMatch;
  // Degrees of the new edge's endpoints inside m (tracked in the record);
  // +1 for the addition.
  const uint32_t deg_u = m.DegreeOf(e.u);
  const uint32_t deg_v = m.DegreeOf(e.v);
  calc_->FactorsForEdgeAddition(e.label_u, deg_u + 1, e.label_v, deg_v + 1,
                                &delta_);
  const tpstry::TpsNode* c = FindMotifChildMemo(m.node_id);
  if (c == nullptr) return kNullMatch;

  const MatchHandle gh = ml->Acquire();
  Match& grown = ml->match(gh);  // `m` stays valid: pool slabs never move
  grown.CopyFrom(m);
  grown.AddEdge(e.id, e.u, e.v);
  grown.node_id = c->id;
  if (!ml->Commit(gh)) return kNullMatch;  // duplicate
  ++stats_.extension_matches;
  return gh;
}

bool MotifMatcher::JoinRecurse(uint32_t node_id,
                               std::vector<graph::EdgeId>& remaining,
                               const stream::SlidingWindow& window,
                               MatchList* ml) {
  if (remaining.empty()) {
    const MatchHandle jh = ml->Acquire();
    Match& joined = ml->match(jh);
    joined.CopyFrom(cand_);
    joined.node_id = node_id;
    if (ml->Commit(jh)) ++stats_.join_matches;
    // Either way the join succeeded structurally.
    return true;
  }
  if (!node_extendable_[node_id]) return false;  // no motif children at all
  for (size_t i = 0; i < remaining.size(); ++i) {
    const graph::EdgeId eid = remaining[i];
    const stream::StreamEdge* se = window.Find(eid);
    if (se == nullptr) return false;  // constituent edge left the window
    const uint32_t deg_u = cand_.DegreeOf(se->u);
    const uint32_t deg_v = cand_.DegreeOf(se->v);
    if (deg_u == 0 && deg_v == 0) continue;  // not incident yet; defer
    calc_->FactorsForEdgeAddition(se->label_u, deg_u + 1, se->label_v,
                                  deg_v + 1, &delta_);
    const tpstry::TpsNode* c = FindMotifChildMemo(node_id);
    if (c == nullptr) continue;
    // Tentatively absorb eid, recurse, undo on failure.
    cand_.AddEdge(eid, se->u, se->v);
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(i));
    if (JoinRecurse(c->id, remaining, window, ml)) return true;
    remaining.insert(remaining.begin() + static_cast<ptrdiff_t>(i), eid);
    cand_.RemoveEdge(eid, se->u, se->v);
  }
  return false;
}

void MotifMatcher::TryJoin(MatchHandle base_h, MatchHandle small_h,
                           const stream::SlidingWindow& window, MatchList* ml) {
  const Match& base = ml->match(base_h);
  const Match& smaller = ml->match(small_h);
  remaining_.clear();
  for (graph::EdgeId eid : smaller.edges) {
    if (!base.ContainsEdge(eid)) remaining_.push_back(eid);
  }
  if (remaining_.empty()) return;  // smaller ⊆ base: nothing new
  // A successful join absorbs ALL of `remaining` via motif children, ending
  // at base+|remaining| edges; if that exceeds the largest motif, some step
  // of the chain would need an over-sized motif — impossible. Prune before
  // copying the candidate or touching signatures.
  if (base.edges.size() + remaining_.size() > max_motif_edges_) return;
  ++stats_.join_attempts;
  cand_.CopyFrom(base);
  JoinRecurse(base.node_id, remaining_, window, ml);
}

void MotifMatcher::OnEdgeAdded(const stream::StreamEdge& e,
                               const stream::SlidingWindow& window,
                               MatchList* ml) {
  const tpstry::TpsNode* single = SingleEdgeMotif(e);
  assert(single != nullptr &&
         "OnEdgeAdded requires an edge admitted by SingleEdgeMotif");
  assert(window.Contains(e.id) && "push the edge into the window first");
  (void)window;
  ++stats_.edges_admitted;

  // Step 0 — the single-edge match (Sec. 3: "we treat e as a sub-graph of a
  // single edge, then add it to the matchList entries for both v1 and v2").
  {
    const MatchHandle h = ml->Acquire();
    Match& m0 = ml->match(h);
    m0.edges.push_back(e.id);
    m0.BumpDegree(e.u);
    m0.BumpDegree(e.v);
    m0.node_id = single->id;
    if (ml->Commit(h)) ++stats_.single_edge_matches;
  }

  // Step 1 — extend existing matches connected to e (Alg. 2 lines 4-8):
  // up to 2 x max_matches_per_vertex live matches, u's list first, then v's
  // minus the matches that contain u (those are in u's list already).
  {
    const size_t cap = config_.max_matches_per_vertex * 2;
    snap_u_.clear();
    ml->CollectLiveAt(e.u, &snap_u_, cap);
    if (snap_u_.size() < cap) {
      ml->ForEachLiveAt(e.v, [&](MatchHandle h) {
        if (!ml->match(h).ContainsVertex(e.u)) snap_u_.push_back(h);
        return snap_u_.size() < cap;
      });
    }
    for (MatchHandle h : snap_u_) TryExtend(h, e, ml);
  }

  // Step 2 — pairwise joins across the two endpoints (Alg. 2 lines 9-18),
  // over the first max_matches_per_vertex live matches of each endpoint's
  // refreshed list (it now includes e's own new matches).
  {
    snap_u_.clear();
    ml->CollectLiveAt(e.u, &snap_u_, config_.max_matches_per_vertex);
    snap_v_.clear();
    ml->CollectLiveAt(e.v, &snap_v_, config_.max_matches_per_vertex);
    // Sizes are loop-invariant (registered matches are immutable and the
    // snapshots are fixed): resolve each handle once, not once per pair.
    snap_u_sizes_.resize(snap_u_.size());
    for (size_t i = 0; i < snap_u_.size(); ++i) {
      snap_u_sizes_[i] = ml->match(snap_u_[i]).edges.size();
    }
    snap_v_sizes_.resize(snap_v_.size());
    for (size_t i = 0; i < snap_v_.size(); ++i) {
      snap_v_sizes_[i] = ml->match(snap_v_[i]).edges.size();
    }
    for (size_t i1 = 0; i1 < snap_u_.size(); ++i1) {
      const MatchHandle h1 = snap_u_[i1];
      const size_t n1 = snap_u_sizes_[i1];
      for (size_t i2 = 0; i2 < snap_v_.size(); ++i2) {
        const MatchHandle h2 = snap_v_[i2];
        if (h1 == h2) continue;
        const size_t n2 = snap_v_sizes_[i2];
        // A base already at the largest motif size cannot absorb anything:
        // TryJoin would return before any side effect (either the smaller
        // match is a subset, or the size prune fires pre-attempt) — skip
        // the call entirely. Most live matches sit at maximal motifs.
        if ((n1 >= n2 ? n1 : n2) >= max_motif_edges_) continue;
        // Absorb the smaller match into the larger (Sec. 3). Matches cannot
        // die inside OnEdgeAdded, so both handles are live.
        const MatchHandle base = n1 >= n2 ? h1 : h2;
        const MatchHandle small = n1 >= n2 ? h2 : h1;
        TryJoin(base, small, window, ml);
      }
    }
  }
}

}  // namespace motif
}  // namespace loom
