// Provenance-audit scenario: PROV lineage queries over wiki-page revision
// provenance (the paper's ProvGen dataset [6], with the common PROV queries
// of Dey et al. [5]: derivation, attribution, multi-step lineage).
//
// Demonstrates the per-query view: which query patterns benefit most from
// Loom's motif-aware placement, and how the motif machinery behaved
// (admissions, matches, cluster allocations) — the latter observed through
// the engine's EngineObserver events rather than backend-specific getters.
//
// Run:  ./example_provenance_audit [scale]

#include <cstdlib>
#include <iostream>

#include "datasets/dataset_registry.h"
#include "engine/session.h"
#include "eval/experiment.h"
#include "query/workload_runner.h"
#include "util/string_util.h"
#include "util/table_writer.h"

int main(int argc, char** argv) {
  using namespace loom;
  // Finite-positive parse (atof happily returns inf/nan for bad input).
  double scale = 0.5;
  if (argc > 1 &&
      (!util::ParseFiniteDouble(argv[1], &scale) || scale <= 0.0)) {
    std::cerr << "usage: " << argv[0] << " [scale > 0]\n";
    return 2;
  }

  datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, scale);
  std::cout << "PROV provenance graph: " << ds.NumVertices() << " vertices, "
            << ds.NumEdges() << " edges (Entity / Activity / Agent)\n\n";

  eval::ExperimentConfig cfg;
  cfg.k = 8;
  cfg.window_size = 4000;

  // Both backends run as Sessions over the same replayed lazy EdgeSource;
  // everything reported below is event-sourced (RunReport) — no backend
  // getters, no downcasts.
  engine::SessionConfig session_config;
  session_config.options = eval::ToEngineOptions(cfg, ds);
  engine::BuildContext context{&ds.workload, ds.registry.size()};
  auto source = engine::MakeEdgeSource(ds, cfg.order, cfg.stream_seed);
  std::string error;

  session_config.spec = "loom";
  auto loom = engine::Session::Create(session_config, context, &error);
  session_config.spec = "fennel";
  auto fennel = engine::Session::Create(session_config, context, &error);
  if (loom == nullptr || fennel == nullptr) {
    std::cerr << "engine: " << error << "\n";
    return 1;
  }

  const engine::RunReport lr = loom->Run(*source);
  source->Reset();
  fennel->Run(*source);

  const engine::ProgressEvent& final_progress = lr.events.last_progress;
  std::cout << "Loom's motif machinery (via the session's RunReport):\n"
            << "  edges bypassing the window (never motif-matchable): "
            << final_progress.edges_bypassed << "\n"
            << "  edges admitted to Ptemp: "
            << final_progress.edges_ingested - final_progress.edges_bypassed
            << "\n"
            << "  multi-edge motif matches found: "
            << lr.Stat("matcher_extension_matches") +
                   lr.Stat("matcher_join_matches")
            << "\n"
            << "  match slots recycled by the pool: "
            << lr.Stat("match_allocs_reused") << " (vs "
            << lr.Stat("match_allocs_fresh") << " fresh)\n"
            << "  match clusters allocated: " << lr.Stat("clusters_allocated")
            << " (" << lr.Stat("fallback_clusters") << " via LDG fallback, "
            << lr.Stat("cluster_edges_assigned") << " edges co-located)\n\n";

  query::WorkloadResult lw =
      query::RunWorkload(ds.graph, loom->partitioning(), ds.workload);
  query::WorkloadResult fw =
      query::RunWorkload(ds.graph, fennel->partitioning(), ds.workload);

  util::TableWriter t({"query", "freq", "loom ipt", "fennel ipt", "loom wins by"});
  for (size_t i = 0; i < lw.per_query.size(); ++i) {
    const auto& lq = lw.per_query[i];
    const auto& fq = fw.per_query[i];
    const double gain =
        fq.result.ipt > 0
            ? 1.0 - static_cast<double>(lq.result.ipt) /
                        static_cast<double>(fq.result.ipt)
            : 0.0;
    t.AddRow({lq.name, util::TableWriter::Pct(lq.frequency, 0),
              std::to_string(lq.result.ipt), std::to_string(fq.result.ipt),
              util::TableWriter::Pct(gain)});
  }
  t.Print(std::cout);

  std::cout << "\nWorkload-weighted: loom "
            << util::TableWriter::Fmt(lw.weighted_ipt, 0) << " ipt vs fennel "
            << util::TableWriter::Fmt(fw.weighted_ipt, 0) << " ("
            << util::TableWriter::Pct(1.0 - lw.weighted_ipt / fw.weighted_ipt)
            << " fewer).\n";
  return 0;
}
