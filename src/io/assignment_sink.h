// Assignment sinks: where a run's vertex placements land.
//
// A partitioner appends each vertex placement exactly once to every sink
// bound to it (partition/partitioner.h, AddSink and AssignAndNotify);
// engine::Session::AddSink binds a sink to its backend and flushes it at
// checkpoints and at Finish. A run can therefore persist assignments while
// streaming — nothing buffers the full vertex set unless the sink chooses
// to.
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

// ---------------------------------------------------------------- edges
// Edge-partitioning backends (partition/edge/: hdrf, dbh, hep) place EDGES,
// so their durable output is one line per edge, not per vertex. These
// mirror the vertex sinks one-for-one and bind the same way
// (Partitioner::AddEdgeSink, Session::AddEdgeSink).

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

}  // namespace io
}  // namespace loom

#endif  // LOOM_IO_ASSIGNMENT_SINK_H_
