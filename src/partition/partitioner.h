// The common interface every streaming partitioner implements: consume a
// stream of labelled edges in batches, finalize, expose the resulting
// vertex partitioning, append each placement to the bound assignment
// sinks, and report its progress gauges and end-of-run counters.
//
// Every backend is constructed from one resolved engine::EngineOptions
// (each reads the keys it uses), through engine::PartitionerRegistry (the
// fixed set "hash", "ldg", "fennel", "loom", "hdrf", "dbh", "hep") for
// everything outside src/ internals and unit tests; see engine/engine.h.
// Runs go through engine::Session, which pulls an EdgeSource into
// IngestBatch, builds the run's report and owns the options check of a
// resumed checkpoint.

#ifndef LOOM_PARTITION_PARTITIONER_H_
#define LOOM_PARTITION_PARTITIONER_H_

#include <span>
#include <string>
#include <vector>

#include "engine/engine_options.h"
#include "engine/run_stats.h"
#include "io/assignment_sink.h"
#include "io/checkpoint.h"
#include "partition/partitioning.h"
#include "stream/stream_edge.h"

namespace loom {
namespace partition {

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Consumes a batch of consecutive stream elements — the one ingest
  /// entry point. How a stream is cut into batches never reaches the
  /// output: any split is bit-identical to batches of one. Backends may
  /// hoist batch-wide work (Loom probes the admission mask for the whole
  /// batch up front).
  virtual void IngestBatch(std::span<const stream::StreamEdge> batch) = 0;

  /// Consumes the next stream element: a batch of one.
  void Ingest(const stream::StreamEdge& e) { IngestBatch({&e, 1}); }

  /// Flushes buffered state (e.g. Loom's window) so partitioning() covers
  /// every vertex seen so far.
  ///
  /// Contract (all backends): Finalize is IDEMPOTENT — calling it again
  /// with no intervening Ingest leaves the partitioning bit-identical and
  /// appends nothing further to the sinks. It is also not terminal: Ingest
  /// may be called after Finalize (an online stream has no real end;
  /// finalize is a checkpoint), after which the backend resumes buffering
  /// and a later Finalize drains again. Pinned by PartitionerContractTest.
  virtual void Finalize() {}

  /// The (possibly still partial, before Finalize) partitioning.
  virtual const Partitioning& partitioning() const = 0;

  /// Short name for reports (the registry name: "hash", "loom", "hdrf", ...).
  virtual std::string name() const = 0;

  /// Binds a vertex assignment sink: every placement is appended once, in
  /// assignment order. Not owned; must outlive any further ingest.
  void AddSink(io::AssignmentSink* sink) { sinks_.push_back(sink); }

  /// Binds an EDGE assignment sink: edge backends (hdrf/dbh/hep) append
  /// every edge's placement, in stream order; vertex backends never do.
  /// Not owned; must outlive any further ingest.
  void AddEdgeSink(io::EdgeAssignmentSink* sink) {
    edge_sinks_.push_back(sink);
  }

  /// Flushes every bound sink (the durability point).
  void FlushSinks() {
    for (io::AssignmentSink* sink : sinks_) sink->Flush();
    for (io::EdgeAssignmentSink* sink : edge_sinks_) sink->Flush();
  }

  /// Fills the live progress gauges (bypassed edges, window population).
  /// Baselines track nothing extra and keep the zeros.
  virtual void FillProgress(engine::ProgressEvent*) const {}

  /// Appends this backend's deterministic end-of-run counters (name ->
  /// value, stable order) to `stats`; Session::Finish reads them after
  /// Finalize. Only values that are identical across reruns on fixed seeds
  /// belong here — reports and bench baselines diff them. Baselines have
  /// nothing to report.
  virtual void FillFinalStats(engine::StatCounters*) const {}

  /// Writes everything this backend needs to resume the stream from the
  /// current position into `w` (one or more backend-owned sections).
  ///
  /// Contract: restoring the snapshot into a FRESH instance constructed
  /// with the same options/context, then ingesting the remaining stream
  /// suffix, must produce assignments, progress gauges and final stats
  /// BIT-IDENTICAL to the uninterrupted run (pinned by
  /// tests/crash_recovery_test.cc).
  virtual void SaveState(io::CheckpointWriter* w) const = 0;

  /// Restores a SaveState snapshot into a fresh instance (nothing
  /// ingested). The options it was built with are not re-checked here:
  /// engine::Session compares every EngineOptions key before any backend
  /// restores. What the session cannot see — a used instance, a label
  /// space, table shapes and counters that disagree — is rejected through
  /// `r->Fail`, like structural corruption the reader itself catches; the
  /// instance may not be used after a throw.
  virtual void RestoreState(io::CheckpointReader* r) = 0;

 protected:
  /// First-writer-wins assignment that appends the placement actually used
  /// (after capacity diversion) to every vertex sink. All backends route
  /// their vertex placements through this so each vertex reaches the sinks
  /// exactly once, uniformly.
  graph::PartitionId AssignAndNotify(Partitioning* p, graph::VertexId v,
                                     graph::PartitionId target) {
    if (p->IsAssigned(v)) return p->PartitionOf(v);
    const graph::PartitionId actual = p->Assign(v, target);
    for (io::AssignmentSink* sink : sinks_) sink->Append(v, actual);
    return actual;
  }

  /// Appends one edge's placement to every edge sink (edge backends).
  void NotifyEdge(const stream::StreamEdge& e, graph::PartitionId p) {
    for (io::EdgeAssignmentSink* sink : edge_sinks_) {
      sink->Append(e.id, e.u, e.v, p);
    }
  }

 private:
  std::vector<io::AssignmentSink*> sinks_;
  std::vector<io::EdgeAssignmentSink*> edge_sinks_;
};

}  // namespace partition
}  // namespace loom

#endif  // LOOM_PARTITION_PARTITIONER_H_
