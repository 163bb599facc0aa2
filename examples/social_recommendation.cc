// Social-style scenario: "real-time" collaboration recommendation over a
// growing bibliographic network (the paper's Sec. 1 motivation — social
// networks and recommendation à la Twitter [9]).
//
// We grow a DBLP-like graph edge by edge (papers arriving with their author
// and citation edges), partition it online with Loom vs Fennel, and report
// how many inter-partition traversals a co-authorship recommendation
// workload incurs on each partitioning. eval::RunComparison drives all four
// backends through engine::PartitionerRegistry over one replayed pull-based
// EdgeSource — the same facade quickstart.cc uses directly.
//
// Run:  ./example_social_recommendation [scale]

#include <cstdlib>
#include <iostream>

#include "datasets/dataset_registry.h"
#include "eval/experiment.h"
#include "query/workload_runner.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace loom;
  // Finite-positive parse (atof happily returns inf/nan for bad input).
  double scale = 0.5;
  if (argc > 1 &&
      (!util::ParseFiniteDouble(argv[1], &scale) || scale <= 0.0)) {
    std::cerr << "usage: " << argv[0] << " [scale > 0]\n";
    return 2;
  }

  std::cout << "Generating a DBLP-like bibliographic network (scale=" << scale
            << ")...\n";
  datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kDblp, scale);
  std::cout << "  " << ds.NumVertices() << " vertices, " << ds.NumEdges()
            << " edges, " << ds.NumLabels() << " labels\n\n";

  std::cout << "Recommendation workload:\n";
  for (const auto& q : ds.workload.queries()) {
    std::cout << "  " << q.name << " " << q.pattern.ToString(ds.registry)
              << " @ " << q.frequency * 100 << "%\n";
  }

  eval::ExperimentConfig cfg;
  cfg.options.k = 8;
  cfg.options.window_size = 4000;
  cfg.order = stream::StreamOrder::kBreadthFirst;

  std::cout << "\nStreaming through each partitioner (k = " << cfg.options.k
            << ", window = " << cfg.options.window_size << ")...\n";
  util::Timer timer;
  eval::ComparisonResult cmp = eval::RunComparison(ds, cfg);
  std::cout << "  done in " << util::TableWriter::Fmt(timer.ElapsedSeconds(), 1)
            << "s\n\n";

  util::TableWriter t({"system", "weighted ipt", "vs hash", "edge cut",
                       "imbalance", "ms / 10k edges"});
  for (const auto& r : cmp.systems) {
    t.AddRow({r.label, util::TableWriter::Fmt(r.weighted_ipt, 0),
              util::TableWriter::Pct(r.ipt_vs_hash),
              std::to_string(r.edge_cut), util::TableWriter::Pct(r.imbalance),
              util::TableWriter::Fmt(r.ms_per_10k_edges, 1)});
  }
  t.Print(std::cout);

  const auto* loom_r = cmp.Find("loom");
  const auto* fennel_r = cmp.Find("fennel");
  std::cout << "\nLoom answers the recommendation workload with "
            << util::TableWriter::Pct(
                   1.0 - loom_r->weighted_ipt / fennel_r->weighted_ipt)
            << " fewer inter-partition traversals than Fennel.\n";
  return 0;
}
