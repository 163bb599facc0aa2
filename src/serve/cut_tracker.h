// Stream-side incremental edge cut for a live partitioning run.
//
// Offline, edge cut is a scan over the materialised graph. A service never
// holds the graph — edges arrive, get ingested, and are gone — so the cut
// must be maintained as the stream flows: an edge whose endpoints are both
// placed resolves immediately; an edge with an unplaced endpoint parks on
// that endpoint and resolves when the tracker, bound as an assignment sink,
// receives that endpoint's placement (window backends defer decisions, so
// "edge ingested" and "endpoints placed" are separated by up to a window's
// worth of stream).
//
// Layout: every vertex owns the head of a singly linked list of the edges
// parked on it. The heads live in lazily allocated 64K-slot chunks (like
// AssignmentTable), so memory follows the vertex ids actually touched,
// never the largest id; the list nodes live in one pooled vector with a
// free list, so parking neither hashes nor allocates once the pool has
// grown to the run's peak.
//
// The tracker reads placements from the server's AssignmentTable, which is
// populated by the SAME sink fanout that notifies the tracker — register
// the table BEFORE the tracker and every Append here can trust the table.
//
// All mutation happens on the decision thread; `cut()` and `edges_seen()`
// are relaxed atomics readable from any STATS connection. As a
// SessionExtension the parked state rides inside the session's LOOMCK
// checkpoint (sorted, so identical parked multisets produce identical
// bytes) — a resumed server continues the count exactly where the crashed
// one stood.

#ifndef LOOM_SERVE_CUT_TRACKER_H_
#define LOOM_SERVE_CUT_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/session.h"
#include "graph/types.h"
#include "io/assignment_sink.h"
#include "io/checkpoint.h"
#include "serve/assignment_table.h"
#include "stream/stream_edge.h"

namespace loom {
namespace serve {

class CutTracker : public io::AssignmentSink, public engine::SessionExtension {
 public:
  /// `table` must outlive the tracker and must be registered as a session
  /// sink ahead of it (sinks fan out in registration order). A nonzero
  /// `vertex_bound` is the id bound the server enforces on INGEST; Restore
  /// rejects parked ids at or above it.
  explicit CutTracker(const AssignmentTable* table, uint64_t vertex_bound = 0)
      : table_(table), vertex_bound_(vertex_bound) {}

  /// Decision thread, BEFORE the run is handed to the session: resolves
  /// each edge now if both endpoints are placed, else parks it on an
  /// unplaced one.
  void AddEdges(std::span<const stream::StreamEdge> edges);

  /// io::AssignmentSink — placement notifications from the session fanout.
  void Append(graph::VertexId v, graph::PartitionId p) override;
  void Flush() override {}

  /// Edges counted as cut so far (both endpoints placed, apart).
  uint64_t cut() const { return cut_.load(std::memory_order_relaxed); }
  /// Edges handed to AddEdges so far.
  uint64_t edges_seen() const {
    return edges_seen_.load(std::memory_order_relaxed);
  }
  /// Edges still parked on an unplaced endpoint.
  uint64_t pending() const { return pending_count_; }
  /// Heap bytes the parked state holds: the node pool plus the head chunks.
  size_t memory_bytes() const;

  /// engine::SessionExtension — the tracker's state inside the session's
  /// checkpoint (section "serve.cut"). Restore fails actionably when the
  /// checkpoint lacks the section (it was written by a non-serve run, whose
  /// cut state is unrecoverable), and bounds every count and id before it
  /// allocates.
  void Save(io::CheckpointWriter* w) const override;
  void Restore(io::CheckpointReader* r) override;

 private:
  static constexpr size_t kChunkBits = 16;  // 64K heads per chunk
  static constexpr size_t kChunkSlots = size_t{1} << kChunkBits;
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One parked edge: the endpoint it does not wait on, and the next edge
  /// parked on the same vertex (or kNil).
  struct Node {
    graph::VertexId other;
    uint32_t next;
  };

  /// v's list head slot, allocating v's chunk on first touch.
  uint32_t& HeadSlot(graph::VertexId v);
  /// Parks (waiting_on, other), reusing a free node when there is one.
  void Park(graph::VertexId waiting_on, graph::VertexId other);

  const AssignmentTable* table_;
  uint64_t vertex_bound_;
  /// heads_[v >> kChunkBits][v & (kChunkSlots - 1)]: first node parked on
  /// v, or kNil. A null chunk means nothing was ever parked there.
  std::vector<std::unique_ptr<uint32_t[]>> heads_;
  std::vector<Node> nodes_;
  /// Head of the free-node list threaded through Node::next.
  uint32_t free_ = kNil;
  uint64_t pending_count_ = 0;
  std::atomic<uint64_t> cut_{0};
  std::atomic<uint64_t> edges_seen_{0};
};

}  // namespace serve
}  // namespace loom

#endif  // LOOM_SERVE_CUT_TRACKER_H_
