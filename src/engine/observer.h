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
// must be cheap; a null observer costs one predictable branch. Baseline
// backends (hash/ldg/fennel) emit only on_assign and on_progress; Loom
// additionally emits on_eviction and on_cluster_decision.
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

/// An edge left Loom's sliding window by aging out (not by being claimed
/// early as part of another edge's cluster).
struct EvictionEvent {
  graph::EdgeId edge = graph::kInvalidEdge;
  /// Live matches containing the evictee at eviction time (0 = its matches
  /// all died earlier; the edge falls back to immediate LDG placement).
  uint64_t cluster_size = 0;
};

/// Equal opportunism allocated an evictee's match cluster (Sec. 4, Eq. 3).
struct ClusterDecisionEvent {
  graph::PartitionId partition = graph::kNoPartition;
  /// |Me|: live matches containing the evicted edge.
  uint64_t cluster_size = 0;
  /// Length of the support-ordered prefix the winner took.
  uint64_t take = 0;
  /// Window edges assigned (and removed) by this decision.
  uint64_t edges_assigned = 0;
  /// True when every bid was zero and the LDG fallback picked the partition.
  bool used_fallback = false;
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
  virtual void OnEviction(const EvictionEvent&) {}
  virtual void OnClusterDecision(const ClusterDecisionEvent&) {}
  virtual void OnProgress(const ProgressEvent&) {}
  virtual void OnBatch(const BatchEvent&) {}
  virtual void OnFinalStats(const FinalStatsEvent&) {}
};

/// Ready-made accumulator: counts every event category and keeps the last
/// progress snapshot. What RunComparison and the examples subscribe instead
/// of reaching into backend-specific getters.
class StatsObserver : public EngineObserver {
 public:
  struct Totals {
    uint64_t vertices_assigned = 0;
    uint64_t evictions = 0;
    uint64_t empty_cluster_evictions = 0;  // evictee had no live matches
    uint64_t cluster_decisions = 0;
    uint64_t fallback_decisions = 0;
    uint64_t cluster_edges_assigned = 0;
    ProgressEvent last_progress;
  };

  void OnAssign(const AssignEvent&) override { ++totals_.vertices_assigned; }
  void OnEviction(const EvictionEvent& e) override {
    ++totals_.evictions;
    if (e.cluster_size == 0) ++totals_.empty_cluster_evictions;
  }
  void OnClusterDecision(const ClusterDecisionEvent& e) override {
    ++totals_.cluster_decisions;
    if (e.used_fallback) ++totals_.fallback_decisions;
    totals_.cluster_edges_assigned += e.edges_assigned;
  }
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
