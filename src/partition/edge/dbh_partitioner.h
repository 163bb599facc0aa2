// DBH — Degree-Based Hashing streaming edge partitioner (Xie et al.,
// NIPS'14): hash the edge to the part of its LOWER-degree endpoint.
//
// The insight mirrors HDRF's but costs nothing: cutting (replicating) the
// high-degree endpoint is cheaper per future edge, so the low-degree
// endpoint should anchor the edge's placement. With partial degrees
// (streamed-so-far, this edge included) the rule is fully streaming and
// stateless beyond the degree counters the base class already keeps —
// the cheap baseline of the family, the floor every smarter scorer must
// beat on replication factor.
//
// Determinism: the anchor is the endpoint with the strictly smaller
// partial degree, ties going to min(u,v); the hash is the same SplitMix64
// finaliser the "hash" vertex backend uses, so placements depend only on
// the edge sequence.

#ifndef LOOM_PARTITION_EDGE_DBH_PARTITIONER_H_
#define LOOM_PARTITION_EDGE_DBH_PARTITIONER_H_

#include "partition/edge/edge_partitioner.h"

namespace loom {
namespace partition {
namespace edge {

class DbhPartitioner final : public EdgePartitioner {
 public:
  /// Reads k and expected_vertices.
  explicit DbhPartitioner(const engine::EngineOptions& options)
      : EdgePartitioner(options) {}

  std::string name() const override { return "dbh"; }

 protected:
  graph::PartitionId PlaceEdge(const stream::StreamEdge& e) override;
};

}  // namespace edge
}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_EDGE_DBH_PARTITIONER_H_
