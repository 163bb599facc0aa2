#include "partition/hash_partitioner.h"

namespace loom {
namespace partition {

namespace {
// SplitMix64 finaliser: decorrelates consecutive vertex ids.
inline uint64_t MixVertex(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

HashPartitioner::HashPartitioner(const PartitionerConfig& config)
    // Hash ignores capacity (it is balanced in expectation); give it slack so
    // Assign never has to divert, matching a truly stateless hash placement.
    : partitioning_(config.k, config.expected_vertices, /*nu=*/2.0) {}

graph::PartitionId HashPartitioner::HashPlace(graph::VertexId v) const {
  return static_cast<graph::PartitionId>(MixVertex(v) % partitioning_.k());
}

void HashPartitioner::IngestBatch(std::span<const stream::StreamEdge> batch) {
  for (const stream::StreamEdge& e : batch) {
    AssignAndNotify(&partitioning_, e.u, HashPlace(e.u));
    AssignAndNotify(&partitioning_, e.v, HashPlace(e.v));
  }
}

bool HashPartitioner::SaveState(io::CheckpointWriter* w,
                                std::string* error) const {
  (void)error;
  partitioning_.SaveTo(w);
  return true;
}

bool HashPartitioner::RestoreState(io::CheckpointReader* r,
                                   std::string* error) {
  (void)error;
  partitioning_.LoadFrom(r);
  return true;
}

}  // namespace partition
}  // namespace loom
