// The naive baseline (Sec. 5.1): vertices are placed by hashing their id —
// the default in several production graph databases, perfectly balanced,
// entirely locality-blind.

#ifndef LOOM_PARTITION_HASH_PARTITIONER_H_
#define LOOM_PARTITION_HASH_PARTITIONER_H_

#include "partition/partitioner.h"

namespace loom {
namespace partition {

class HashPartitioner : public Partitioner {
 public:
  /// Reads k and expected_vertices.
  explicit HashPartitioner(const engine::EngineOptions& options);

  void IngestBatch(std::span<const stream::StreamEdge> batch) override;
  const Partitioning& partitioning() const override { return partitioning_; }
  std::string name() const override { return "hash"; }

  /// The stateless placement rule, exposed for tests.
  graph::PartitionId HashPlace(graph::VertexId v) const;

  /// Table only: the placement rule reads nothing else.
  void SaveState(io::CheckpointWriter* w) const override;
  void RestoreState(io::CheckpointReader* r) override;

 private:
  Partitioning partitioning_;
};

}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_HASH_PARTITIONER_H_
