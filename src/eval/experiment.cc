#include "eval/experiment.h"

#include <memory>
#include <stdexcept>

#include "partition/partition_metrics.h"
#include "query/workload_runner.h"

// NOTE: deliberately no core/ backend headers and no downcasts to concrete
// backends in this layer — behavioural counters arrive through
// engine::Session's RunReport only.

namespace loom {
namespace eval {

const SystemResult* ComparisonResult::Find(std::string_view label) const {
  for (const SystemResult& r : systems) {
    if (r.label == label) return &r;
  }
  return nullptr;
}

uint64_t SystemResult::BackendStat(std::string_view name) const {
  return engine::FindCounter(backend_stats, name);
}

SystemResult RunSystem(std::string_view spec, const datasets::Dataset& ds,
                       engine::EdgeSource& source,
                       const ExperimentConfig& config, bool run_queries) {
  engine::SessionConfig session_config;
  session_config.spec = std::string(spec);
  session_config.options = config.options;
  session_config.options.expected_vertices = ds.NumVertices();
  session_config.options.expected_edges = ds.NumEdges();
  std::string error;
  std::unique_ptr<engine::Session> session = engine::Session::Create(
      session_config, {&ds.workload, ds.registry.size()}, &error);
  if (session == nullptr) throw std::invalid_argument("eval: " + error);

  SystemResult result;
  result.label = std::string(spec);
  source.Reset();
  // The timed region is the whole batched drive, so producing the stream
  // (lazy synthesis or replay copy) counts as ingest wall-time — the
  // honest number for a *streaming* partitioner.
  const engine::RunReport report = session->Run(source);
  result.partition_ms = report.ms;
  result.ms_per_10k_edges =
      report.edges == 0 ? 0.0
                        : result.partition_ms * 10000.0 /
                              static_cast<double>(report.edges);
  result.backend_stats = report.backend_stats;

  const partition::Partitioning& partitioning = session->partitioning();
  result.edge_cut = partition::EdgeCut(ds.graph, partitioning);
  result.imbalance = partition::Imbalance(partitioning);
  result.assignment_hash =
      partition::AssignmentHash(partitioning, ds.NumVertices());

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

ComparisonResult RunComparison(const datasets::Dataset& ds,
                               const ExperimentConfig& config) {
  ComparisonResult out;
  out.dataset = ds.meta.name;
  out.order = config.order;
  out.k = config.options.k;

  // Pull-based: the arrival permutation is computed once; each system
  // replays it lazily (no materialised StreamEdge vector).
  std::unique_ptr<engine::EdgeSource> source =
      engine::MakeEdgeSource(ds, config.order, config.stream_seed);
  out.stream_edges = source->SizeHint();

  for (std::string_view spec : kPaperSystems) {
    out.systems.push_back(RunSystem(spec, ds, *source, config));
  }
  const double hash_ipt = out.Find("hash")->weighted_ipt;
  for (SystemResult& r : out.systems) {
    r.ipt_vs_hash = hash_ipt > 0.0 ? r.weighted_ipt / hash_ipt
                                   : (r.weighted_ipt > 0.0 ? 1.0 : 0.0);
  }
  return out;
}

}  // namespace eval
}  // namespace loom
