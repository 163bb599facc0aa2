// Stream-side incremental edge cut for a live partitioning run.
//
// Offline, edge cut is a scan over the materialised graph. A service never
// holds the graph — edges arrive, get ingested, and are gone — so the cut
// must be maintained as the stream flows: an edge whose endpoints are both
// placed resolves immediately; an edge with an unplaced endpoint parks on
// that endpoint and resolves when its OnAssign placement arrives (window
// backends defer decisions, so "edge ingested" and "endpoints placed" are
// separated by up to a window's worth of stream).
//
// The tracker reads placements from the server's AssignmentTable, which is
// populated by the SAME sink fanout that notifies the tracker — register
// the table BEFORE the tracker and every Append here can trust the table.
//
// All mutation happens on the decision thread; `cut()` and `edges_seen()`
// are relaxed atomics readable from any STATS connection. As a
// SessionExtension the parked state rides inside the session's LOOMCK
// checkpoint (sorted, so identical prefixes produce identical bytes) — a
// resumed server continues the count exactly where the crashed one stood.

#ifndef LOOM_SERVE_CUT_TRACKER_H_
#define LOOM_SERVE_CUT_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
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
  /// sink ahead of it (sinks fan out in registration order).
  explicit CutTracker(const AssignmentTable* table) : table_(table) {}

  /// Decision thread, BEFORE the edge is handed to the session: resolves it
  /// now if both endpoints are placed, else parks it on an unplaced one.
  void AddEdge(const stream::StreamEdge& e);

  /// io::AssignmentSink — placement notifications from the session fanout.
  void Append(graph::VertexId v, graph::PartitionId p) override;
  void Flush() override {}

  /// Edges counted as cut so far (both endpoints placed, apart).
  uint64_t cut() const { return cut_.load(std::memory_order_relaxed); }
  /// Edges handed to AddEdge so far.
  uint64_t edges_seen() const {
    return edges_seen_.load(std::memory_order_relaxed);
  }
  /// Edges still parked on an unplaced endpoint.
  uint64_t pending() const { return pending_count_; }

  /// engine::SessionExtension — the tracker's state inside the session's
  /// checkpoint (section "serve.cut"). Restore fails actionably when the
  /// checkpoint lacks the section (it was written by a non-serve run, whose
  /// cut state is unrecoverable).
  void Save(io::CheckpointWriter* w) const override;
  void Restore(io::CheckpointReader* r) override;

 private:
  const AssignmentTable* table_;
  /// Parked edges, keyed by the unplaced endpoint they wait on; the value
  /// is the other endpoint.
  std::unordered_multimap<graph::VertexId, graph::VertexId> parked_;
  /// Append's drained endpoints, reused so a placement does not allocate.
  std::vector<graph::VertexId> others_scratch_;
  uint64_t pending_count_ = 0;
  std::atomic<uint64_t> cut_{0};
  std::atomic<uint64_t> edges_seen_{0};
};

}  // namespace serve
}  // namespace loom

#endif  // LOOM_SERVE_CUT_TRACKER_H_
