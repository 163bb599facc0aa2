// The experiment harness behind every paper figure/table: stream a dataset
// in a chosen order through each partitioner, then execute the dataset's
// workload over the finished partitioning and count ipt.
//
// Every run goes through engine::Session — construction by registry spec,
// ingest over a pull-based EdgeSource, and behavioural counters consumed
// exclusively from the session's RunReport. This layer holds no backend
// headers and never downcasts to a concrete backend: what a backend wants
// reported, it reports through FillFinalStats.

#ifndef LOOM_EVAL_EXPERIMENT_H_
#define LOOM_EVAL_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datasets/schema.h"
#include "engine/session.h"
#include "partition/partitioner.h"
#include "query/query_executor.h"
#include "stream/stream_order.h"

namespace loom {
namespace eval {

/// The four compared systems (Sec. 5.1).
enum class System { kHash, kLdg, kFennel, kLoom };

std::string ToString(System s);
std::vector<System> AllSystems();

/// Everything one comparison run needs.
struct ExperimentConfig {
  uint32_t k = 8;
  stream::StreamOrder order = stream::StreamOrder::kBreadthFirst;
  uint64_t stream_seed = 0x10c5;

  /// Loom knobs (base.k / expected sizes are filled from the dataset).
  size_t window_size = 10000;
  double support_threshold = 0.4;

  /// Equal-opportunism knobs, mirroring the engine's flat option fields
  /// (defaults match EngineOptions; see engine_options.h for semantics).
  double alpha = 2.0 / 3.0;
  double balance_b = 1.1;
  double neighbor_bid_weight = 0.25;
  bool disable_rationing = false;

  /// Query-executor caps (identical across systems: fair relative ipt).
  query::ExecutorConfig executor{.max_seeds = 4000,
                                 .max_matches_per_seed = 256};
};

/// Outcome of one (dataset, order, k, system) cell.
struct SystemResult {
  System system = System::kHash;
  /// Backend label: the partitioner's name() for the four paper systems, or
  /// the full registry spec for RunBackendTimingOnly cells.
  std::string label;
  double weighted_ipt = 0.0;
  double ipt_vs_hash = 1.0;  // filled by RunComparison (1.0 for hash itself)
  uint64_t matches = 0;
  size_t edge_cut = 0;
  double imbalance = 0.0;
  double partition_ms = 0.0;      // wall time to consume the whole stream
  double ms_per_10k_edges = 0.0;  // Table 2's measure
  /// FNV-1a over the per-vertex assignment — lets perf regressions prove
  /// they changed nothing about partition quality on fixed seeds.
  uint64_t assignment_hash = 0;
  /// Edge-partitioning quality triple (edge backends only; 0 for vertex
  /// partitioners, which never report edge counters): RunReport's
  /// ReplicationFactor() and EdgeBalance(), plus the FNV-1a hash over the
  /// per-edge placements.
  double replication_factor = 0.0;
  double edge_balance = 0.0;
  uint64_t edge_assignment_hash = 0;
  /// The backend's deterministic end-of-run counters, verbatim from the
  /// session's RunReport (FillFinalStats): Loom reports match-pool
  /// fresh/reused and matcher totals under "match_allocs_*"/"matcher_*";
  /// backends that report nothing leave it empty. No more per-backend
  /// magic-zero fields.
  engine::StatCounters backend_stats;

  /// The named backend counter, or 0 when the backend did not report it.
  uint64_t BackendStat(std::string_view name) const;
};

/// FNV-1a over the first `num_vertices` assignments.
uint64_t HashAssignment(const partition::Partitioning& p, size_t num_vertices);

struct ComparisonResult {
  std::string dataset;
  stream::StreamOrder order = stream::StreamOrder::kBreadthFirst;
  uint32_t k = 8;
  size_t stream_edges = 0;
  std::vector<SystemResult> systems;

  const SystemResult* Find(System s) const;
};

/// Maps an ExperimentConfig + dataset sizing onto the engine's unified
/// option set (the single source for every backend's knobs).
engine::EngineOptions ToEngineOptions(const ExperimentConfig& config,
                                      const datasets::Dataset& ds);

/// Instantiates a partitioner for `system`, sized for `ds`, through the
/// global PartitionerRegistry.
std::unique_ptr<partition::Partitioner> MakePartitioner(
    System system, const datasets::Dataset& ds, const ExperimentConfig& config);

/// Pulls `source` dry through `system`'s partitioner (timed, batched),
/// finalizes, measures edge-cut/imbalance and executes the dataset workload
/// for ipt. Resets the source first, so one source serves all systems.
SystemResult RunSystem(System system, const datasets::Dataset& ds,
                       engine::EdgeSource& source,
                       const ExperimentConfig& config);

/// Runs all four systems over the same (replayed) stream and fills
/// ipt_vs_hash. Streams lazily via engine::MakeEdgeSource — the edge
/// sequence is never materialised.
ComparisonResult RunComparison(const datasets::Dataset& ds,
                               const ExperimentConfig& config);

/// Variants measuring only partitioning throughput (no query execution);
/// used by Table 2 where LUBM-4000 is partitioned but never queried.
SystemResult RunSystemTimingOnly(System system, const datasets::Dataset& ds,
                                 engine::EdgeSource& source,
                                 const ExperimentConfig& config);

/// Registry-spec variant: times any registered backend, e.g.
/// "loom:window_size=2000,alpha=0.5" (table2_throughput runs every cell
/// through it).
/// The result's `system` is the matching enum when the spec names a paper
/// system, else kHash; `label` always carries the spec. Returns nullopt and
/// fills `*error` for unknown backends / bad overrides.
std::optional<SystemResult> RunBackendTimingOnly(const std::string& spec,
                                                 const datasets::Dataset& ds,
                                                 engine::EdgeSource& source,
                                                 const ExperimentConfig& config,
                                                 std::string* error);

}  // namespace eval
}  // namespace loom

#endif  // LOOM_EVAL_EXPERIMENT_H_
