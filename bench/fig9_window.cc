// Fig. 9: absolute ipt when executing Q over Loom partitionings with
// multiple window sizes t (the x axis sweeps 100 .. ~20k), per dataset, on
// randomly-ordered streams (where window sensitivity is most pronounced,
// Sec. 5.3).

#include <iostream>

#include "bench_common.h"
#include "datasets/dataset_registry.h"
#include "eval/experiment.h"
#include "util/table_writer.h"

int main() {
  using namespace loom;
  bench::Banner("Fig. 9 — ipt vs Loom window size t", "Fig. 9, Sec. 5.3");

  const std::vector<size_t> windows = {100, 500, 1000, 2500, 5000, 10000, 20000};

  std::vector<std::string> header = {"dataset"};
  for (size_t w : windows) header.push_back("t=" + std::to_string(w));
  util::TableWriter t(header);

  for (auto id : datasets::QueryableDatasets()) {
    datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
    auto source = engine::MakeEdgeSource(ds, stream::StreamOrder::kRandom,
                                         stream::kDefaultStreamSeed);
    std::vector<std::string> row = {ds.meta.name};
    for (size_t w : windows) {
      eval::ExperimentConfig cfg;
      cfg.options.window_size = w;
      eval::SystemResult r = eval::RunSystem("loom", ds, *source, cfg);
      row.push_back(util::TableWriter::Fmt(r.weighted_ipt, 0));
    }
    t.AddRow(std::move(row));
  }
  t.Print(std::cout);

  std::cout << "\nExpected shape (paper): ipt falls steeply as t grows from "
               "100 toward ~10k (by as much as 47%),\nthen flattens — larger "
               "windows buy little once clusters of motif matches fit.\n";
  return 0;
}
