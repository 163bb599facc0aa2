// Fig. 8: ipt %, vs. Hash, when executing Q over multiple k-way
// partitionings (k = 2, 8, 32) of breadth-first graph streams.

#include <iostream>

#include "bench_common.h"
#include "datasets/dataset_registry.h"
#include "eval/experiment.h"
#include "eval/report.h"

int main() {
  using namespace loom;
  bench::Banner("Fig. 8 — ipt vs Hash across partition counts (BFS streams)",
                "Fig. 8(a-c)");

  for (uint32_t k : {2u, 8u, 32u}) {
    std::cout << "--- k = " << k << " ---\n";
    std::vector<eval::ComparisonResult> results;
    for (auto id : datasets::QueryableDatasets()) {
      datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
      eval::ExperimentConfig cfg;
      cfg.order = stream::StreamOrder::kBreadthFirst;
      cfg.options.k = k;
      cfg.options.window_size = bench::BenchWindow();
      results.push_back(eval::RunComparison(ds, cfg));
    }
    eval::PrintRelativeIptTable(results, std::cout);
    std::cout << "\n";
  }

  std::cout << "Expected shape (paper): absolute ipt grows with k for every "
               "system, but the relative\nstandings (Hash > LDG > Fennel > "
               "Loom) are largely consistent across k = 2, 8, 32.\n";
  return 0;
}
