// HDRF — High-Degree Replicated First streaming edge partitioner
// (Petroni et al., CIKM'15; the strongest cheap baseline in the
// split-merge/NuCut/Adwise zoo, see ROADMAP item 2 and SNIPPETS.md
// Snippet 2).
//
// For edge (u,v), each part p is scored
//
//   C(p) = C_rep(p) + λ · C_bal(p)
//   C_rep(p) = [p ∈ R(u)] · (1 + (1 − δu)) + [p ∈ R(v)] · (1 + (1 − δv))
//   C_bal(p) = (maxload − load(p)) / (ε + maxload − minload)
//
// where δu = θu / (θu + θv) is u's share of the edge's combined PARTIAL
// degree (streamed-so-far counts, this edge included). The (1 − δ) weight
// is the algorithm's one idea: when an edge must be cut, prefer replicating
// the HIGHER-degree endpoint — its replicas amortise over more future
// edges. λ trades replication against balance (λ=0 is pure greedy; large λ
// approaches round-robin); ε only guards the λ-term's denominator.
//
// Tie-breaking is pinned for bit-determinism: scan parts in id order, a
// strictly greater score wins; on equal score the part with the smaller
// load wins; on equal load the lower id is kept.

#ifndef LOOM_PARTITION_EDGE_HDRF_PARTITIONER_H_
#define LOOM_PARTITION_EDGE_HDRF_PARTITIONER_H_

#include "partition/edge/edge_partitioner.h"

namespace loom {
namespace partition {
namespace edge {

class HdrfPartitioner final : public EdgePartitioner {
 public:
  /// Reads k, expected_vertices, `lambda` (>= 0, weights the balance term)
  /// and `epsilon` (> 0, guards its denominator); throws
  /// std::invalid_argument on a non-finite or out-of-range value. (Engine
  /// spec: "hdrf:lambda=1.1,epsilon=1".)
  explicit HdrfPartitioner(const engine::EngineOptions& options);

  std::string name() const override { return "hdrf"; }

 protected:
  graph::PartitionId PlaceEdge(const stream::StreamEdge& e) override;

 private:
  const double lambda_;
  const double epsilon_;
};

}  // namespace edge
}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_EDGE_HDRF_PARTITIONER_H_
