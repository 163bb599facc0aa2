// The common interface every streaming partitioner implements: consume a
// stream of labelled edges in batches, finalize, expose the resulting
// vertex partitioning, append each placement to the bound assignment
// sinks, and report its progress gauges and end-of-run counters.
//
// Construction goes through engine::PartitionerRegistry (the fixed set
// "hash", "ldg", "fennel", "loom", "hdrf", "dbh", "hep") for everything
// outside src/ internals and unit tests; see engine/engine.h. Runs go
// through engine::Session, which pulls an EdgeSource into IngestBatch and
// builds the run's report.

#ifndef LOOM_PARTITION_PARTITIONER_H_
#define LOOM_PARTITION_PARTITIONER_H_

#include <span>
#include <string>
#include <vector>

#include "engine/run_stats.h"
#include "io/assignment_sink.h"
#include "io/checkpoint.h"
#include "partition/partitioning.h"
#include "stream/stream_edge.h"

namespace loom {
namespace partition {

/// Shared configuration. Streaming partitioners (LDG, Fennel and the paper's
/// Loom evaluation) are parameterised by the expected totals n and m — a
/// standard assumption for this family of algorithms. (Callers normally
/// express this through engine::EngineOptions, whose BaseConfig() produces
/// one of these.)
struct PartitionerConfig {
  uint32_t k = 8;                    // number of partitions
  size_t expected_vertices = 0;      // n
  size_t expected_edges = 0;         // m
  double max_imbalance = 1.1;        // ν: capacity = ν·n/k

  // Hub tally cache threshold (0 = 128; UINT32_MAX disables the cache).
  // SPEED only — assignments are bit-identical for every value (pinned by
  // differential tests).
  uint32_t hub_degree_threshold = 0;
};

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
  /// tests/crash_recovery_test.cc). Returns false + `*error` for backends
  /// that cannot snapshot.
  virtual bool SaveState(io::CheckpointWriter* w, std::string* error) const = 0;

  /// Restores a SaveState snapshot. Must be called on a fresh instance
  /// (nothing ingested); returns false + an actionable `*error` on any
  /// mismatch (backend, options fingerprint, label space) — the instance
  /// may not be used after a failed restore. Structural corruption throws
  /// from the reader before this is reached.
  virtual bool RestoreState(io::CheckpointReader* r, std::string* error) = 0;

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
