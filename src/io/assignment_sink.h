// Assignment sinks: where a run's vertex placements land.
//
// Partitioners report each placement exactly once through the observer
// on_assign path (partition/partitioner.h, AssignAndNotify); a sink is the
// durable end of that pipe. engine::Session forwards every AssignEvent to
// its bound sinks, so a run can persist assignments while streaming —
// nothing buffers the full vertex set unless the sink chooses to.
//
// Implementations:
//   * FileAssignmentSink   — "<vertex>\t<partition>" lines in assignment
//                            order (the format loom_partition emits and
//                            downstream tooling already consumes).
//   * MemoryAssignmentSink — in-memory record, for tests and callers that
//                            post-process placements.

#ifndef LOOM_IO_ASSIGNMENT_SINK_H_
#define LOOM_IO_ASSIGNMENT_SINK_H_

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/observer.h"
#include "graph/types.h"

namespace loom {
namespace io {

/// Receives (vertex, partition) placements in assignment order.
class AssignmentSink {
 public:
  virtual ~AssignmentSink() = default;

  /// One vertex's permanent placement. Fired once per vertex.
  virtual void Append(graph::VertexId vertex, graph::PartitionId partition) = 0;

  /// Durability point: flush buffered state. Called by Session at the end
  /// of a run; default is a no-op.
  virtual void Flush() {}
};

/// Tab-separated "<vertex>\t<partition>" lines, one per assignment, in
/// assignment (stream) order. Throws std::runtime_error if the path cannot
/// be opened or a write fails on Flush.
class FileAssignmentSink : public AssignmentSink {
 public:
  explicit FileAssignmentSink(const std::string& path);

  void Append(graph::VertexId vertex, graph::PartitionId partition) override;
  void Flush() override;

  uint64_t assignments_written() const { return written_; }

 private:
  std::string path_;
  std::ofstream out_;
  uint64_t written_ = 0;
};

/// Buffers placements in arrival order.
class MemoryAssignmentSink : public AssignmentSink {
 public:
  void Append(graph::VertexId vertex, graph::PartitionId partition) override {
    assignments_.emplace_back(vertex, partition);
  }

  const std::vector<std::pair<graph::VertexId, graph::PartitionId>>&
  assignments() const {
    return assignments_;
  }

 private:
  std::vector<std::pair<graph::VertexId, graph::PartitionId>> assignments_;
};

/// Observer adapter: forwards OnAssign events into a sink. Session feeds
/// its sinks through its own fan-out; a caller holding a bare partitioner
/// can attach one with SetObserver.
class AssignmentSinkObserver : public engine::EngineObserver {
 public:
  explicit AssignmentSinkObserver(AssignmentSink* sink) : sink_(sink) {}

  void OnAssign(const engine::AssignEvent& e) override {
    sink_->Append(e.vertex, e.partition);
  }

 private:
  AssignmentSink* sink_;
};

// ---------------------------------------------------------------- edges
// Edge-partitioning backends (partition/edge/: hdrf, dbh) place EDGES, so
// their durable output is one line per edge, not per vertex. These mirror
// the vertex sinks one-for-one; Session forwards OnEdgeAssign events the
// same way it forwards OnAssign.

/// Receives (edge, u, v, partition) placements in stream order.
class EdgeAssignmentSink {
 public:
  virtual ~EdgeAssignmentSink() = default;

  /// One edge's permanent placement. Fired once per ingested edge.
  virtual void Append(graph::EdgeId edge, graph::VertexId u, graph::VertexId v,
                      graph::PartitionId partition) = 0;

  /// Durability point, as AssignmentSink::Flush.
  virtual void Flush() {}
};

/// Tab-separated "<u>\t<v>\t<partition>" lines, one per edge, in stream
/// order (edge ids are positional, so they are not repeated in the file).
/// Throws std::runtime_error if the path cannot be opened or a write fails
/// on Flush.
class FileEdgeAssignmentSink : public EdgeAssignmentSink {
 public:
  explicit FileEdgeAssignmentSink(const std::string& path);

  void Append(graph::EdgeId edge, graph::VertexId u, graph::VertexId v,
              graph::PartitionId partition) override;
  void Flush() override;

  uint64_t edges_written() const { return written_; }

 private:
  std::string path_;
  std::ofstream out_;
  uint64_t written_ = 0;
};

/// Buffers edge placements in arrival order.
class MemoryEdgeAssignmentSink : public EdgeAssignmentSink {
 public:
  struct Record {
    graph::EdgeId edge;
    graph::VertexId u;
    graph::VertexId v;
    graph::PartitionId partition;
  };

  void Append(graph::EdgeId edge, graph::VertexId u, graph::VertexId v,
              graph::PartitionId partition) override {
    records_.push_back({edge, u, v, partition});
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
};

/// Observer adapter: forwards OnEdgeAssign events into an edge sink.
class EdgeAssignmentSinkObserver : public engine::EngineObserver {
 public:
  explicit EdgeAssignmentSinkObserver(EdgeAssignmentSink* sink)
      : sink_(sink) {}

  void OnEdgeAssign(const engine::EdgeAssignEvent& e) override {
    sink_->Append(e.edge, e.u, e.v, e.partition);
  }

 private:
  EdgeAssignmentSink* sink_;
};

}  // namespace io
}  // namespace loom

#endif  // LOOM_IO_ASSIGNMENT_SINK_H_
