// Concurrent vertex -> partition lookup table for the serving path.
//
// The contention shape is extreme but friendly: ONE writer (the server's
// decision thread, which is also the only thread mutating the session) and
// many readers (every connection thread answering GET). Assignments are
// write-once — a streaming partitioner places each vertex exactly once per
// run — so the table is a chunked directory of write-once atomics:
//
//   * Get() is wait-free: two acquire loads (chunk pointer, then slot), no
//     lock anywhere, so lookups NEVER block ingest and ingest never blocks
//     lookups. A concurrent Publish is simply either visible or not yet.
//   * Publish() allocates 64K-slot chunks lazily on first touch, so memory
//     tracks the touched id range, not the 2^32 id space.
//
// The table doubles as an io::AssignmentSink so a Session publishes into it
// through the ordinary sink fanout — the serving layer gets its read path
// without any backend-specific hook.

#ifndef LOOM_SERVE_ASSIGNMENT_TABLE_H_
#define LOOM_SERVE_ASSIGNMENT_TABLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "graph/types.h"
#include "io/assignment_sink.h"

namespace loom {
namespace serve {

class AssignmentTable : public io::AssignmentSink {
 public:
  static constexpr size_t kChunkBits = 16;  // 64K slots per chunk
  static constexpr size_t kChunkSlots = size_t{1} << kChunkBits;
  static constexpr size_t kNumChunks = size_t{1} << (32 - kChunkBits);

  AssignmentTable() = default;
  ~AssignmentTable() override;

  AssignmentTable(const AssignmentTable&) = delete;
  AssignmentTable& operator=(const AssignmentTable&) = delete;

  /// Wait-free lookup from any thread: the vertex's partition, or
  /// graph::kNoPartition while unassigned.
  graph::PartitionId Get(graph::VertexId v) const {
    const Chunk* chunk =
        chunks_[v >> kChunkBits].load(std::memory_order_acquire);
    if (chunk == nullptr) return graph::kNoPartition;
    return (*chunk)[v & (kChunkSlots - 1)].load(std::memory_order_acquire);
  }

  /// Decision-thread publish (single writer). Release-ordered so a reader
  /// that observes the slot also observes everything the decision preceded.
  void Publish(graph::VertexId v, graph::PartitionId p);

  /// io::AssignmentSink — the session's backend appends each placement
  /// straight into the table.
  void Append(graph::VertexId v, graph::PartitionId p) override {
    Publish(v, p);
  }
  void Flush() override {}

  /// Vertices currently holding an assignment (relaxed counter, maintained
  /// by the writer; readers may lag by in-flight publishes).
  uint64_t assigned() const {
    return assigned_.load(std::memory_order_relaxed);
  }

 private:
  using Chunk = std::array<std::atomic<graph::PartitionId>, kChunkSlots>;

  std::array<std::atomic<Chunk*>, kNumChunks> chunks_{};
  std::atomic<uint64_t> assigned_{0};
};

}  // namespace serve
}  // namespace loom

#endif  // LOOM_SERVE_ASSIGNMENT_TABLE_H_
