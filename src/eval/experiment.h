// The experiment harness behind every paper figure/table: stream a dataset
// in a chosen order through a registry backend, then execute the dataset's
// workload over the finished partitioning and count ipt.
//
// A thin client of the engine: a cell is a registry spec ("loom",
// "hdrf:lambda=1.1") plus engine::EngineOptions, run through
// engine::Session by RunSystem, the one entry point. Behavioural counters
// come from the session's RunReport only. This layer holds no backend
// headers and never downcasts to a concrete backend: what a backend wants
// reported, it reports through FillFinalStats.

#ifndef LOOM_EVAL_EXPERIMENT_H_
#define LOOM_EVAL_EXPERIMENT_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/schema.h"
#include "engine/session.h"
#include "query/query_executor.h"
#include "stream/stream_order.h"

namespace loom {
namespace eval {

/// The four compared systems (Sec. 5.1) as registry specs, in the order
/// RunComparison runs them and the tables print them.
inline constexpr std::array<std::string_view, 4> kPaperSystems = {
    "hash", "ldg", "fennel", "loom"};

/// Everything one comparison run needs.
struct ExperimentConfig {
  /// Every backend knob (k, window size, T, α, ...). RunSystem fills
  /// expected_vertices/expected_edges from the dataset.
  engine::EngineOptions options;
  stream::StreamOrder order = stream::StreamOrder::kBreadthFirst;
  uint64_t stream_seed = stream::kDefaultStreamSeed;

  /// Query-executor caps (identical across systems: fair relative ipt).
  query::ExecutorConfig executor{.max_seeds = 4000,
                                 .max_matches_per_seed = 256};
};

/// Outcome of one (dataset, order, k, system) cell.
struct SystemResult {
  /// The registry spec the cell ran, e.g. "loom" or "hdrf:lambda=1.1".
  std::string label;
  double weighted_ipt = 0.0;
  double ipt_vs_hash = 1.0;  // filled by RunComparison (1.0 for hash itself)
  uint64_t matches = 0;
  size_t edge_cut = 0;
  double imbalance = 0.0;
  double partition_ms = 0.0;      // wall time to consume the whole stream
  double ms_per_10k_edges = 0.0;  // Table 2's measure
  /// partition::AssignmentHash over the per-vertex assignment — lets perf
  /// regressions prove they changed nothing about partition quality on
  /// fixed seeds.
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
  /// backends that report nothing leave it empty.
  engine::StatCounters backend_stats;

  /// The named backend counter, or 0 when the backend did not report it.
  uint64_t BackendStat(std::string_view name) const;
};

struct ComparisonResult {
  std::string dataset;
  stream::StreamOrder order = stream::StreamOrder::kBreadthFirst;
  uint32_t k = 8;
  size_t stream_edges = 0;
  std::vector<SystemResult> systems;

  /// The cell whose label is `label`, or nullptr.
  const SystemResult* Find(std::string_view label) const;
};

/// Runs registry spec `spec` over `ds`: resets `source` (so one source
/// serves every cell), pulls it dry through a fresh engine::Session (timed,
/// batched), measures edge-cut/imbalance and, when `run_queries`, executes
/// the dataset workload for ipt (Table 2 partitions LUBM-4000 but never
/// queries it). Throws std::invalid_argument carrying the registry's
/// message on an unknown backend or a bad override.
SystemResult RunSystem(std::string_view spec, const datasets::Dataset& ds,
                       engine::EdgeSource& source,
                       const ExperimentConfig& config,
                       bool run_queries = true);

/// Runs kPaperSystems over the same (replayed) stream and fills
/// ipt_vs_hash. Streams lazily via engine::MakeEdgeSource — the edge
/// sequence is never materialised.
ComparisonResult RunComparison(const datasets::Dataset& ds,
                               const ExperimentConfig& config);

}  // namespace eval
}  // namespace loom

#endif  // LOOM_EVAL_EXPERIMENT_H_
