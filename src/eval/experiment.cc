#include "eval/experiment.h"

#include <cassert>
#include <stdexcept>

#include "partition/partition_metrics.h"
#include "query/workload_runner.h"

// NOTE: deliberately no core/ backend headers and no downcasts to concrete
// backends in this layer — behavioural counters arrive through
// engine::Session's RunReport only.

namespace loom {
namespace eval {

std::string ToString(System s) {
  switch (s) {
    case System::kHash: return "hash";
    case System::kLdg: return "ldg";
    case System::kFennel: return "fennel";
    case System::kLoom: return "loom";
  }
  return "?";
}

std::vector<System> AllSystems() {
  return {System::kHash, System::kLdg, System::kFennel, System::kLoom};
}

uint64_t HashAssignment(const partition::Partitioning& p,
                        size_t num_vertices) {
  return partition::AssignmentHash(p, num_vertices);
}

const SystemResult* ComparisonResult::Find(System s) const {
  for (const SystemResult& r : systems) {
    if (r.system == s) return &r;
  }
  return nullptr;
}

uint64_t SystemResult::BackendStat(std::string_view name) const {
  return engine::FindCounter(backend_stats, name);
}

engine::EngineOptions ToEngineOptions(const ExperimentConfig& config,
                                      const datasets::Dataset& ds) {
  engine::EngineOptions o;
  o.k = config.k;
  o.expected_vertices = ds.NumVertices();
  o.expected_edges = ds.NumEdges();
  o.window_size = config.window_size;
  o.support_threshold = config.support_threshold;
  o.alpha = config.alpha;
  o.balance_b = config.balance_b;
  o.neighbor_bid_weight = config.neighbor_bid_weight;
  o.disable_rationing = config.disable_rationing;
  return o;
}

std::unique_ptr<partition::Partitioner> MakePartitioner(
    System system, const datasets::Dataset& ds,
    const ExperimentConfig& config) {
  std::string error;
  const engine::BuildContext context{&ds.workload, ds.registry.size()};
  std::unique_ptr<partition::Partitioner> p =
      engine::PartitionerRegistry::Global().Create(
          ToString(system), ToEngineOptions(config, ds), context, &error);
  assert(p != nullptr && error.empty());
  return p;
}

namespace {

/// One (spec, dataset, source) cell through engine::Session: build by
/// spec, replay the source, and read every behavioural counter from the
/// session's RunReport.
std::optional<SystemResult> RunWithSession(const std::string& spec,
                                           System system,
                                           const datasets::Dataset& ds,
                                           engine::EdgeSource& source,
                                           const ExperimentConfig& config,
                                           bool run_queries,
                                           std::string* error) {
  engine::SessionConfig session_config;
  session_config.spec = spec;
  session_config.options = ToEngineOptions(config, ds);
  std::unique_ptr<engine::Session> session = engine::Session::Create(
      session_config, {&ds.workload, ds.registry.size()}, error);
  if (session == nullptr) return std::nullopt;

  SystemResult result;
  result.system = system;
  source.Reset();
  // The timed region is the whole batched drive, so producing the stream
  // (lazy synthesis or replay copy) counts as ingest wall-time — the
  // honest number for a *streaming* partitioner, and within run-to-run
  // noise of the pre-facade loop even for the hash baseline.
  const engine::RunReport report = session->Run(source);
  result.label = report.backend;
  result.partition_ms = report.ms;
  result.ms_per_10k_edges =
      report.edges == 0 ? 0.0
                        : result.partition_ms * 10000.0 /
                              static_cast<double>(report.edges);
  result.backend_stats = report.backend_stats;

  const partition::Partitioning& partitioning = session->partitioning();
  result.edge_cut = partition::EdgeCut(ds.graph, partitioning);
  result.imbalance = partition::Imbalance(partitioning);
  result.assignment_hash = HashAssignment(partitioning, ds.NumVertices());

  // Edge-partitioning backends report their quality triple through their
  // FillFinalStats counters; vertex backends report no edge counters and
  // keep the zeros.
  result.replication_factor = report.ReplicationFactor();
  result.edge_balance = report.EdgeBalance(partitioning.k());
  result.edge_assignment_hash = report.Stat("edge_assignment_hash");

  if (run_queries) {
    query::WorkloadResult wr = query::RunWorkload(ds.graph, partitioning,
                                                  ds.workload, config.executor);
    result.weighted_ipt = wr.weighted_ipt;
    result.matches = wr.total_matches;
  }
  return result;
}

SystemResult RunCommon(System system, const datasets::Dataset& ds,
                       engine::EdgeSource& source,
                       const ExperimentConfig& config, bool run_queries) {
  std::string error;
  std::optional<SystemResult> result = RunWithSession(
      ToString(system), system, ds, source, config, run_queries, &error);
  if (!result.has_value()) {
    // The paper systems are pre-registered, so this is always a harness
    // bug — fail loudly rather than let a zeroed SystemResult pose as a
    // measurement in a comparison table (asserts vanish under NDEBUG).
    throw std::runtime_error("eval: building '" + ToString(system) +
                             "' failed: " + error);
  }
  return std::move(*result);
}

}  // namespace

SystemResult RunSystem(System system, const datasets::Dataset& ds,
                       engine::EdgeSource& source,
                       const ExperimentConfig& config) {
  return RunCommon(system, ds, source, config, /*run_queries=*/true);
}

SystemResult RunSystemTimingOnly(System system, const datasets::Dataset& ds,
                                 engine::EdgeSource& source,
                                 const ExperimentConfig& config) {
  return RunCommon(system, ds, source, config, /*run_queries=*/false);
}

std::optional<SystemResult> RunBackendTimingOnly(const std::string& spec,
                                                 const datasets::Dataset& ds,
                                                 engine::EdgeSource& source,
                                                 const ExperimentConfig& config,
                                                 std::string* error) {
  std::optional<SystemResult> result = RunWithSession(
      spec, System::kHash, ds, source, config, /*run_queries=*/false, error);
  if (!result.has_value()) return std::nullopt;
  for (System s : AllSystems()) {
    if (ToString(s) == result->label) result->system = s;
  }
  result->label = spec;
  return result;
}

ComparisonResult RunComparison(const datasets::Dataset& ds,
                               const ExperimentConfig& config) {
  ComparisonResult out;
  out.dataset = ds.meta.name;
  out.order = config.order;
  out.k = config.k;

  // Pull-based: the arrival permutation is computed once; each system
  // replays it lazily (no materialised StreamEdge vector).
  std::unique_ptr<engine::EdgeSource> source =
      engine::MakeEdgeSource(ds, config.order, config.stream_seed);
  out.stream_edges = source->SizeHint();

  double hash_ipt = 0.0;
  for (System s : AllSystems()) {
    SystemResult r = RunSystem(s, ds, *source, config);
    if (s == System::kHash) hash_ipt = r.weighted_ipt;
    out.systems.push_back(r);
  }
  for (SystemResult& r : out.systems) {
    r.ipt_vs_hash = hash_ipt > 0.0 ? r.weighted_ipt / hash_ipt
                                   : (r.weighted_ipt > 0.0 ? 1.0 : 0.0);
  }
  return out;
}

}  // namespace eval
}  // namespace loom
