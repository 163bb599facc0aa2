#include "motif/motif_matcher.h"

#include <algorithm>
#include <cassert>
#include <numeric>
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
  RefreshMotifDepth();
}

void MotifMatcher::RefreshMotifDepth() {
  // Deepest nodes first: a child has one more edge than its parent, so
  // every child's depth is final before its parents read it.
  std::vector<uint32_t> order(trie_->NumNodes());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return trie_->node(a).num_edges > trie_->node(b).num_edges;
  });
  motif_depth_.assign(trie_->NumNodes(), 0);
  for (uint32_t id : order) {
    for (uint32_t cid : trie_->node(id).children) {
      assert(trie_->node(cid).num_edges == trie_->node(id).num_edges + 1);
      if (trie_->IsMotif(cid)) {
        motif_depth_[id] = std::max(motif_depth_[id], motif_depth_[cid] + 1);
      }
    }
  }
}

void MotifMatcher::InvalidateMotifCache() {
  admission_side_ = calc_->num_labels();  // re-fit to a grown alphabet
  admission_.assign(admission_side_ * admission_side_, nullptr);
  admission_known_.assign(admission_side_ * admission_side_, 0);
  child_memo_.Clear();
  RefreshMotifDepth();
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

const tpstry::TpsNode* MotifMatcher::FindMotifChild(uint32_t node_id,
                                                   graph::LabelId lu,
                                                   uint32_t new_deg_u,
                                                   graph::LabelId lv,
                                                   uint32_t new_deg_v) {
  // The factor delta is a multiset symmetric in the two endpoints: order
  // the (label, degree) pairs and pack them with the node id into one key.
  if (lu > lv || (lu == lv && new_deg_u > new_deg_v)) {
    std::swap(lu, lv);
    std::swap(new_deg_u, new_deg_v);
  }
  const bool fits = node_id >> 16 == 0 && (new_deg_u | new_deg_v) >> 8 == 0;
  const uint64_t key = (uint64_t{node_id} << 48) | (uint64_t{lu} << 32) |
                       (uint64_t{lv} << 16) | (uint64_t{new_deg_u} << 8) |
                       new_deg_v;
  if (fits) {
    if (const tpstry::TpsNode* const* hit = child_memo_.Find(key)) return *hit;
  }
  calc_->FactorsForEdgeAddition(lu, new_deg_u, lv, new_deg_v, &delta_);
  const tpstry::TpsNode* c = trie_->FindMotifChild(node_id, delta_);
  if (fits) child_memo_.Insert(key, c);
  return c;
}

MatchHandle MotifMatcher::TryExtend(MatchHandle mh, const stream::StreamEdge& e,
                                    MatchList* ml) {
  const Match& m = ml->match(mh);
  assert(!m.ContainsEdge(e.id));
  if (motif_depth_[m.node_id] == 0) return kNullMatch;  // no motif children
  // Degrees of the new edge's endpoints inside m (tracked in the record);
  // +1 for the addition.
  const tpstry::TpsNode* c =
      FindMotifChild(m.node_id, e.label_u, m.DegreeOf(e.u) + 1, e.label_v,
                     m.DegreeOf(e.v) + 1);
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
  // Each absorption moves to a motif child: the chain must be long enough.
  if (motif_depth_[node_id] < remaining.size()) return false;
  for (size_t i = 0; i < remaining.size(); ++i) {
    const graph::EdgeId eid = remaining[i];
    const stream::StreamEdge* se = window.Find(eid);
    if (se == nullptr) return false;  // constituent edge left the window
    const uint32_t deg_u = cand_.DegreeOf(se->u);
    const uint32_t deg_v = cand_.DegreeOf(se->v);
    if (deg_u == 0 && deg_v == 0) continue;  // not incident yet; defer
    const tpstry::TpsNode* c =
        FindMotifChild(node_id, se->label_u, deg_u + 1, se->label_v, deg_v + 1);
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
  // A successful join absorbs ALL of `remaining` via a chain of motif
  // children; if the base has no chain that long, it is impossible. Prune
  // before copying the candidate or touching signatures.
  if (remaining_.size() > motif_depth_[base.node_id]) return;
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
  // e is new, so {e} is never a duplicate.
  const MatchHandle h0 = ml->Acquire();
  {
    Match& m0 = ml->match(h0);
    m0.edges.push_back(e.id);
    m0.BumpDegree(e.u);
    m0.BumpDegree(e.v);
    m0.node_id = single->id;
    const bool committed = ml->Commit(h0);
    assert(committed);
    (void)committed;
    ++stats_.single_edge_matches;
  }

  // Step 1 — extend existing matches connected to e (Alg. 2 lines 4-8):
  // up to 2 x max_matches_per_vertex live matches, u's list first, then v's
  // minus the matches that contain u (those are in u's list already). The
  // snapshot precedes every extension, so h0 is its only match holding e.
  {
    const size_t cap = config_.max_matches_per_vertex * 2;
    snap_extend_.clear();
    ml->CollectLiveAt(e.u, &snap_extend_, cap);
    if (snap_extend_.size() < cap) {
      ml->ForEachLiveAt(e.v, [&](MatchHandle h) {
        if (!ml->match(h).ContainsVertex(e.u)) snap_extend_.push_back(h);
        return snap_extend_.size() < cap;
      });
    }
    for (MatchHandle h : snap_extend_) {
      if (h != h0) TryExtend(h, e, ml);
    }
  }

  // Step 2 — pairwise joins across the two endpoints (Alg. 2 lines 9-18),
  // over the first max_matches_per_vertex live matches of each endpoint's
  // refreshed list (it now includes e's own new matches).
  {
    snap_u_.clear();
    ml->CollectLiveAt(e.u, &snap_u_, config_.max_matches_per_vertex);
    snap_v_.clear();
    ml->CollectLiveAt(e.v, &snap_v_, config_.max_matches_per_vertex);
    // Sizes and depths are loop-invariant (registered matches are
    // immutable and the snapshots are fixed): resolve each handle once, not
    // once per pair.
    auto resolve = [&](const std::vector<MatchHandle>& snap,
                       std::vector<SnapInfo>* info) {
      info->resize(snap.size());
      for (size_t i = 0; i < snap.size(); ++i) {
        const Match& m = ml->match(snap[i]);
        (*info)[i] = {m.edges.size(), motif_depth_[m.node_id]};
      }
    };
    resolve(snap_u_, &snap_u_info_);
    resolve(snap_v_, &snap_v_info_);
    for (size_t i1 = 0; i1 < snap_u_.size(); ++i1) {
      const MatchHandle h1 = snap_u_[i1];
      const SnapInfo& m1 = snap_u_info_[i1];
      for (size_t i2 = 0; i2 < snap_v_.size(); ++i2) {
        const MatchHandle h2 = snap_v_[i2];
        if (h1 == h2) continue;
        const SnapInfo& m2 = snap_v_info_[i2];
        // Absorb the smaller match into the larger (Sec. 3). Matches cannot
        // die inside OnEdgeAdded, so both handles are live.
        const bool u_base = m1.edges >= m2.edges;
        // A base with no motif child cannot absorb anything: TryJoin would
        // return before any side effect. Most live matches sit at maximal
        // motifs.
        if ((u_base ? m1.depth : m2.depth) == 0) continue;
        const MatchHandle base = u_base ? h1 : h2;
        const MatchHandle small = u_base ? h2 : h1;
        // Absorbing {e} into x computes exactly step 1's TryExtend(x, e),
        // and any commit would duplicate step 1's. Step 1 covered every
        // such x that lacks e: u's first N matches lie inside its first 2N,
        // and h0 sits among u's first N only when u had fewer than N older
        // matches, which leaves step 1 at least N slots for v's. (With h0
        // as the base the pair stays: its equality with TryExtend rests on
        // how signatures map to trie nodes, not on identical work.)
        if (small == h0) {
          assert(ml->match(base).ContainsEdge(e.id) ||
                 std::find(snap_extend_.begin(), snap_extend_.end(), base) !=
                     snap_extend_.end());
          continue;
        }
        TryJoin(base, small, window, ml);
      }
    }
  }
}

}  // namespace motif
}  // namespace loom
