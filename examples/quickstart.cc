// Quickstart: the paper's Fig. 1 example, end to end, on engine::Session.
//
// Builds the 8-vertex graph G with labels a/b/c/d, declares the workload
// Q = {q1: a-b square 30%, q2: a-b-c path 60%, q3: a-b-c-d path 10%},
// opens a Session for "loom" (string-addressable options — the same spec
// a CLI or bench config would pass), inspects the TPSTry++ and its motifs,
// streams G through a pull-based EdgeSource with an in-memory assignment
// sink attached, reads the run's behaviour from the event-sourced
// RunReport, and compares workload ipt against the Hash/LDG/Fennel
// baselines.
//
// Run:  ./example_quickstart

#include <iostream>

#include "core/loom_partitioner.h"
#include "datasets/dataset_registry.h"
#include "engine/session.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "io/assignment_sink.h"
#include "query/workload_runner.h"

int main() {
  using namespace loom;

  // 1. The Fig. 1 graph and workload.
  datasets::Dataset ds = datasets::MakeFigure1Dataset();
  std::cout << "Graph G: " << ds.NumVertices() << " vertices, "
            << ds.NumEdges() << " edges, labels {a, b, c, d}\n";
  std::cout << "Workload Q:\n";
  for (const auto& q : ds.workload.queries()) {
    std::cout << "  " << q.name << " " << q.pattern.ToString(ds.registry)
              << " @ " << q.frequency * 100 << "%\n";
  }

  // 2. One Session owns the run: a registry spec (overrides inline, like
  //    any CLI would pass), typed options, sinks and observers.
  engine::SessionConfig config;
  config.spec = "loom:k=2,window_size=6";
  config.options.expected_vertices = ds.NumVertices();
  config.options.expected_edges = ds.NumEdges();
  std::string error;
  auto session = engine::Session::Create(
      config, {&ds.workload, ds.registry.size()}, &error);
  if (session == nullptr) {
    std::cerr << "engine: " << error << "\n";
    return 1;
  }

  // Inspect the trie Loom derived from Q (Sec. 2). backend() is the
  // documented escape hatch for poking at a concrete backend; nothing in
  // the report below needs it.
  auto* loom_p = dynamic_cast<core::LoomPartitioner*>(&session->backend());
  std::cout << "\nTPSTry++ built from Q (T = 40%):\n"
            << loom_p->trie().Dump(ds.registry);

  // 3. Stream G breadth-first (Sec. 3-4): batches are pulled from an
  //    EdgeSource; assignments land in a sink as they happen.
  io::MemoryAssignmentSink assignments;
  session->AddSink(&assignments);
  auto source = engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  const engine::RunReport report = session->Run(*source);

  std::cout << "\nLoom's 2-way partitioning of G ("
            << report.events.vertices_assigned << " vertices assigned, "
            << report.Stat("clusters_allocated") << " match clusters, "
            << report.Stat("matcher_extension_matches") +
                   report.Stat("matcher_join_matches")
            << " multi-edge motif matches):\n";
  for (const auto& [vertex, partition] : assignments.assignments()) {
    std::cout << "  vertex " << vertex + 1 << " (" /* 1-based like the paper */
              << ds.registry.Name(ds.graph.label(vertex)) << ") -> partition "
              << partition << "\n";
  }

  // 4. Execute the workload and count inter-partition traversals.
  query::WorkloadResult loom_result =
      query::RunWorkload(ds.graph, session->partitioning(), ds.workload);
  std::cout << "\nLoom: weighted ipt = " << loom_result.weighted_ipt
            << " over " << loom_result.weighted_traversals
            << " weighted traversals\n";

  // 5. Compare against Hash / LDG / Fennel on the same stream (the eval
  //    harness opens a Session per system under the hood).
  eval::ExperimentConfig cfg;
  cfg.k = 2;
  cfg.window_size = 6;
  eval::ComparisonResult cmp = eval::RunComparison(ds, cfg);
  std::cout << "\nAll systems (ipt as % of Hash):\n";
  eval::PrintRelativeIptTable({cmp}, std::cout);
  return 0;
}
