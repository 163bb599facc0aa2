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

HashPartitioner::HashPartitioner(const engine::EngineOptions& options)
    // Hash ignores capacity (it is balanced in expectation); give it slack so
    // Assign never has to divert, matching a truly stateless hash placement.
    : partitioning_(options.k, options.expected_vertices, /*nu=*/2.0) {}

graph::PartitionId HashPartitioner::HashPlace(graph::VertexId v) const {
  return static_cast<graph::PartitionId>(MixVertex(v) % partitioning_.k());
}

void HashPartitioner::IngestBatch(std::span<const stream::StreamEdge> batch) {
  for (const stream::StreamEdge& e : batch) {
    AssignAndNotify(&partitioning_, e.u, HashPlace(e.u));
    AssignAndNotify(&partitioning_, e.v, HashPlace(e.v));
  }
}

void HashPartitioner::SaveState(io::CheckpointWriter* w) const {
  partitioning_.SaveTo(w);
}

void HashPartitioner::RestoreState(io::CheckpointReader* r) {
  partitioning_.LoadFrom(r);
}

}  // namespace partition
}  // namespace loom
