// Streaming motif matching (Sec. 3, Alg. 2).
//
// For each edge admitted to the window the matcher discovers every new
// motif-matching sub-graph the edge creates:
//   1. the single-edge match itself,
//   2. extensions: existing matches at either endpoint grown by the new edge
//      (accepted when the factor-delta corresponds to a motif child in the
//      TPSTry++), and
//   3. joins: pairs of existing matches at the two endpoints merged by
//      recursively absorbing the smaller match's edges into the larger
//      (Alg. 2 lines 11-18).
// Matching is purely signature-based: isomorphic sub-graphs always match
// (no false negatives); rare non-isomorphic collisions are tolerated, as the
// paper argues, because a false positive merely co-locates a sub-graph that
// did not need it.
//
// Hot-path design: matches are pooled records addressed by 32-bit handles
// (match_pool.h); endpoint degrees are tracked inside each record, so
// factor deltas never rescan a match's edges against the window; the
// admission test is memoised per label pair and the motif-child lookup per
// (node, endpoint labels and degrees), so the trie/signature machinery runs
// once per distinct input, not once per edge; a per-node motif depth (the
// longest chain of motif children below a node) rejects every extension or
// join that cannot reach a motif before it touches a signature; step 2
// never pairs a match with the edge's own single-edge match, which would
// only repeat step 1's extension; and all per-edge working sets live in
// reusable scratch buffers — steady-state matching performs no heap
// allocation beyond growth of committed match records.

#ifndef LOOM_MOTIF_MOTIF_MATCHER_H_
#define LOOM_MOTIF_MOTIF_MATCHER_H_

#include <cstdint>
#include <vector>

#include "motif/match_list.h"
#include "util/flat_map64.h"
#include "signature/signature_calculator.h"
#include "stream/sliding_window.h"
#include "stream/stream_edge.h"
#include "tpstry/tpstry.h"

namespace loom {
namespace motif {

/// Tunables bounding worst-case work per edge.
struct MatcherConfig {
  /// Cap N on live matches considered per edge: step 1 extends at most 2N
  /// matches across both endpoints (u's list first), and step 2 pairs at
  /// most N per endpoint. Generous by default; prevents pathological
  /// quadratic blowups on hub vertices in adversarial streams.
  size_t max_matches_per_vertex = 64;
};

/// Running counters for reporting and tests.
struct MatcherStats {
  uint64_t edges_admitted = 0;
  uint64_t single_edge_matches = 0;
  uint64_t extension_matches = 0;
  uint64_t join_matches = 0;
  /// Pairs handed to the recursive absorption: only pairs that could add a
  /// match (the base's motif depth covers the edges to absorb, and the
  /// smaller side is not the edge's own single-edge match).
  uint64_t join_attempts = 0;
};

class MotifMatcher {
 public:
  /// `trie` and `calc` must outlive the matcher.
  MotifMatcher(const tpstry::Tpstry* trie,
               const signature::SignatureCalculator* calc,
               MatcherConfig config = {});

  /// The admission test (Sec. 3): the single-edge motif `e` matches, or
  /// nullptr if none — in which case `e` can never participate in any motif
  /// match and should be assigned immediately without entering the window.
  /// Memoised per (label_u, label_v); call InvalidateMotifCache after the
  /// trie's supports change.
  const tpstry::TpsNode* SingleEdgeMotif(const stream::StreamEdge& e) const;

  /// Drops the memoised admission table and re-sizes it to the calculator's
  /// CURRENT label count. Must be called whenever the trie's motif set may
  /// have changed (workload drift / threshold updates) or the label alphabet
  /// grew (open-alphabet streams; see LabelValues::EnsureLabels).
  void InvalidateMotifCache();

  /// Labels this matcher's admission memo currently covers.
  size_t num_labels() const { return admission_side_; }

  /// Overwrites the running counters (checkpoint restore only; the memo
  /// tables are pure caches and rebuild themselves, but the counters feed
  /// the backend's final stats and must survive).
  void RestoreStats(const MatcherStats& stats) { stats_ = stats; }

  /// Processes an edge that has just been pushed into `window` (it must
  /// match a single-edge motif). Registers every newly formed match in `ml`.
  void OnEdgeAdded(const stream::StreamEdge& e,
                   const stream::SlidingWindow& window, MatchList* ml);

  const MatcherStats& stats() const { return stats_; }

 private:
  /// Attempts to extend match `mh` (which must not contain `e`) by edge `e`;
  /// on success builds the grown match and registers it. Returns the new
  /// handle or kNullMatch.
  MatchHandle TryExtend(MatchHandle mh, const stream::StreamEdge& e,
                        MatchList* ml);

  /// Attempts to absorb all of `smaller`'s edges into `base` (Alg. 2 lines
  /// 11-18), registering the joined match on success.
  void TryJoin(MatchHandle base, MatchHandle smaller,
               const stream::SlidingWindow& window, MatchList* ml);

  /// Recursive work-horse of TryJoin: grows the candidate in `cand_` (node
  /// `node_id`) by any absorbable edge from `remaining`; succeeds when
  /// `remaining` empties.
  bool JoinRecurse(uint32_t node_id, std::vector<graph::EdgeId>& remaining,
                   const stream::SlidingWindow& window, MatchList* ml);

  const tpstry::Tpstry* trie_;
  const signature::SignatureCalculator* calc_;
  MatcherConfig config_;
  MatcherStats stats_;

  /// Admission memo: label-pair -> single-edge motif node (nullable), laid
  /// out as a dense num_labels x num_labels table with a known-bit per cell.
  mutable std::vector<const tpstry::TpsNode*> admission_;
  mutable std::vector<uint8_t> admission_known_;
  size_t admission_side_ = 0;

  /// Motif-child memo: (node, {(l_u, deg_u), (l_v, deg_v)}) -> child
  /// (nullable), the degrees being the endpoints' degrees after adding the
  /// edge. FindMotifChild runs several multiset comparisons plus a support
  /// check per child; the matcher asks it millions of times for a handful
  /// of distinct inputs. Keys pack the node id (16 bits), the two labels
  /// (16 each) and the two degrees (8 each), the (label, degree) pairs in
  /// ascending order since the factor delta is symmetric in the endpoints;
  /// a hit skips computing the delta. Inputs that don't fit (trie beyond
  /// 16 bits or a degree above 255 — never the paper's configurations)
  /// bypass the memo.
  const tpstry::TpsNode* FindMotifChild(uint32_t node_id, graph::LabelId lu,
                                        uint32_t new_deg_u, graph::LabelId lv,
                                        uint32_t new_deg_v);
  void RefreshMotifDepth();
  util::FlatMap64<const tpstry::TpsNode*> child_memo_;

  /// Per-trie-node motif depth: the longest chain of motif children below
  /// the node (refreshed with the motif caches). Every extension step and
  /// every join absorption moves to a motif child, so a match at a depth-0
  /// node cannot grow, and a join that must absorb more edges than the
  /// base's depth cannot succeed. Most live matches sit at leaf/maximal
  /// motifs, where this rejects before computing factor deltas.
  std::vector<uint32_t> motif_depth_;

  // Reusable per-edge scratch (see class comment).
  std::vector<MatchHandle> snap_extend_;  // step 1's snapshot
  std::vector<MatchHandle> snap_u_;       // step 2's per-endpoint snapshots
  std::vector<MatchHandle> snap_v_;
  struct SnapInfo {  // a step-2 snapshot entry, resolved once per snapshot
    size_t edges;
    uint32_t depth;  // motif_depth_ of the match's node
  };
  std::vector<SnapInfo> snap_u_info_;
  std::vector<SnapInfo> snap_v_info_;
  signature::FactorDelta delta_;
  Match cand_;  // join candidate accumulator
  std::vector<graph::EdgeId> remaining_;
};

}  // namespace motif
}  // namespace loom

#endif  // LOOM_MOTIF_MOTIF_MATCHER_H_
