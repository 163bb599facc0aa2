// Fig. 7: ipt %, vs. Hash, when executing Q over 8-way partitionings of
// graph streams in multiple orders (random / breadth-first / depth-first),
// for the four queryable datasets and the four systems.
//
// Also prints the §5.2 imbalance prose numbers (LDG 1-3%, Fennel/Loom up to
// ~10%) for the breadth-first runs.

#include <iostream>

#include "bench_common.h"
#include "datasets/dataset_registry.h"
#include "eval/experiment.h"
#include "eval/report.h"

int main() {
  using namespace loom;
  bench::Banner("Fig. 7 — ipt vs Hash across stream orders (k = 8)",
                "Fig. 7(a-c) + Sec. 5.2 imbalance");

  std::vector<eval::ComparisonResult> bfs_results;
  for (auto order :
       {stream::StreamOrder::kRandom, stream::StreamOrder::kBreadthFirst,
        stream::StreamOrder::kDepthFirst}) {
    std::cout << "--- stream order: " << stream::ToString(order) << " ---\n";
    std::vector<eval::ComparisonResult> results;
    for (auto id : datasets::QueryableDatasets()) {
      datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
      eval::ExperimentConfig cfg;
      cfg.order = order;
      cfg.options.k = 8;
      cfg.options.window_size = bench::BenchWindow();
      results.push_back(eval::RunComparison(ds, cfg));
    }
    eval::PrintRelativeIptTable(results, std::cout);
    std::cout << "\n";
    if (order == stream::StreamOrder::kBreadthFirst) bfs_results = results;
  }

  std::cout << "Partition imbalance (Sec. 5.2 prose; breadth-first runs):\n";
  eval::PrintImbalanceTable(bfs_results, std::cout);

  std::cout
      << "\nExpected shape (paper): Hash worst (100%); LDG ~45-60%; Fennel "
         "better than LDG;\nLoom best with 15-40% fewer ipt than Fennel, "
         "largest on the most heterogeneous\ndatasets and smallest under "
         "random order. LDG imbalance 1-3%; Fennel/Loom ~7-10%.\n";
  return 0;
}
