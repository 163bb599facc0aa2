// Structured event hooks for partitioner instrumentation.
//
// Before the engine facade, every consumer pulled behavioural counters
// through backend-specific getters (LoomStats here, MatcherStats there,
// match-pool counters somewhere else) — each new report meant another
// getter. EngineObserver inverts that: partitioners emit a small set of
// structured events at their decision points and any number of subscribers
// (eval harness, progress bars, tests) accumulate what they care about,
// uniformly across backends.
//
// Events are fired synchronously on the ingest path, so implementations
// must be cheap; a null observer costs one predictable branch. Vertex
// backends emit OnAssign, edge backends OnEdgeAssign; the session adds
// OnBatch, OnProgress and OnFinalStats. Loom's eviction and cluster counts
// travel as final stats (FinalStatsEvent), not as per-decision events.
//
// This header deliberately depends only on graph/types.h (plus standard
// containers) so every layer (partition, core, eval) can include it
// without cycles.

#ifndef LOOM_ENGINE_OBSERVER_H_
#define LOOM_ENGINE_OBSERVER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace loom {
namespace engine {

/// A vertex received its permanent partition. Fired once per vertex (vertex
/// assignment is first-writer-wins); `partition` is the placement actually
/// used after capacity diversion.
struct AssignEvent {
  graph::VertexId vertex = graph::kInvalidVertex;
  graph::PartitionId partition = graph::kNoPartition;
};

/// An EDGE received its permanent partition (edge-partitioning backends
/// only: hdrf/dbh place edges, not vertices — see partition/edge/). Fired
/// once per ingested edge, in stream order. Vertex-partitioning backends
/// never emit this; they fire OnAssign instead. Both endpoint ids ride
/// along so sinks can emit "<u>\t<v>\t<partition>" without a lookup.
struct EdgeAssignEvent {
  graph::EdgeId edge = graph::kInvalidEdge;
  graph::VertexId u = graph::kInvalidVertex;
  graph::VertexId v = graph::kInvalidVertex;
  graph::PartitionId partition = graph::kNoPartition;
};

/// End-of-run ingest progress, fired once by Session::Finish after
/// Finalize.
struct ProgressEvent {
  /// Stream elements ingested over the session's lifetime, edges ingested
  /// before a checkpoint/resume included. Loom stamps its own lifetime
  /// count (the same number), consistent with edges_bypassed.
  uint64_t edges_ingested = 0;
  /// Edges that failed the admission test and bypassed the window (always 0
  /// for the baseline backends, which buffer nothing).
  uint64_t edges_bypassed = 0;
  /// Current window population (Loom's |Ptemp|; 0 for baselines).
  uint64_t window_population = 0;
  bool finalizing = false;
};

/// One IngestBatch call completed. Fired by Session::IngestSome after
/// every batch handed to the backend, carrying the batch's wall time — the
/// seam the per-decision latency profiler (engine::LatencyObserver) hangs
/// off. Timing-dependent by nature, so
/// like ProgressEvent it is reporting-only: never part of partition state,
/// never diffed by benches.
struct BatchEvent {
  /// Stream elements in the batch (>= 1).
  uint64_t edges = 0;
  /// Wall time the IngestBatch call took, nanoseconds.
  uint64_t ns = 0;
};

/// End-of-drive backend counters, fired once after Finalize. This is how
/// backend-specific numbers (Loom's match-pool reuse, matcher totals)
/// reach reports without backend-specific getters: each backend fills a
/// flat name -> value map (Partitioner::FillFinalStats) and consumers read
/// the keys they know. Only deterministic counters belong here — values
/// must be identical across reruns on fixed seeds, because benches diff
/// them (timing-dependent numbers ride ProgressEvent instead).
/// The flat counter map final stats travel as (name -> value, in a
/// backend-chosen stable order).
using StatCounters = std::vector<std::pair<std::string, uint64_t>>;

/// The named counter, or `fallback` when absent. The one lookup shared by
/// FinalStatsEvent::Get, RunReport::Stat and eval's SystemResult.
inline uint64_t FindCounter(const StatCounters& counters,
                            std::string_view name, uint64_t fallback = 0) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return fallback;
}

struct FinalStatsEvent {
  /// Counters in a backend-chosen, stable order. Empty for backends with
  /// nothing to report (hash/ldg/fennel).
  StatCounters counters;

  /// The named counter, or `fallback` when the backend did not report it.
  uint64_t Get(std::string_view name, uint64_t fallback = 0) const {
    return FindCounter(counters, name, fallback);
  }
};

/// Subscriber interface. Default implementations ignore every event, so
/// observers override only what they need.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void OnAssign(const AssignEvent&) {}
  virtual void OnEdgeAssign(const EdgeAssignEvent&) {}
  virtual void OnProgress(const ProgressEvent&) {}
  virtual void OnBatch(const BatchEvent&) {}
  virtual void OnFinalStats(const FinalStatsEvent&) {}
};

/// Ready-made accumulator: counts vertex assignments and keeps the last
/// progress snapshot and final stats. What RunComparison and the examples
/// subscribe instead of reaching into backend-specific getters.
class StatsObserver : public EngineObserver {
 public:
  struct Totals {
    uint64_t vertices_assigned = 0;
    ProgressEvent last_progress;
  };

  void OnAssign(const AssignEvent&) override { ++totals_.vertices_assigned; }
  void OnProgress(const ProgressEvent& e) override {
    totals_.last_progress = e;
  }
  void OnFinalStats(const FinalStatsEvent& e) override { final_stats_ = e; }

  const Totals& totals() const { return totals_; }

  /// Overwrites the accumulated totals (checkpoint restore: the resumed
  /// session must report lifetime totals as if never interrupted).
  void RestoreTotals(const Totals& totals) { totals_ = totals; }

  /// The last final-stats event (empty until a drive finalizes).
  const FinalStatsEvent& final_stats() const { return final_stats_; }

 private:
  Totals totals_;
  FinalStatsEvent final_stats_;
};

}  // namespace engine
}  // namespace loom

#endif  // LOOM_ENGINE_OBSERVER_H_
