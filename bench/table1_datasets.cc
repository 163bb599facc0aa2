// Table 1: graph datasets, incl. size & heterogeneity.
//
// Prints |V|, |E|, |LV| and a description for every dataset at reproduction
// scale, mirroring the paper's Table 1 (whose absolute sizes refer to the
// full original datasets; our generators preserve the relative ordering and
// the label alphabets).

#include <iostream>

#include "bench_common.h"
#include "datasets/dataset_registry.h"
#include "graph/graph_algos.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/timer.h"

int main() {
  using namespace loom;
  bench::Banner("Table 1 — graph datasets, incl. size & heterogeneity",
                "Table 1");

  util::TableWriter t({"Dataset", "|V|", "|E|", "|LV|", "Real", "mean deg",
                       "gen (ms)", "Description"});
  for (auto id : datasets::AllDatasets()) {
    util::Timer timer;
    datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
    const double gen_ms = timer.ElapsedMs();
    auto deg = graph::ComputeDegreeStats(ds.graph);
    t.AddRow({ds.meta.name, util::HumanCount(ds.NumVertices()),
              util::HumanCount(ds.NumEdges()), std::to_string(ds.NumLabels()),
              ds.meta.real_world_analog ? "Y" : "N",
              util::TableWriter::Fmt(deg.mean, 2),
              util::TableWriter::Fmt(gen_ms, 0), ds.meta.description});
  }
  t.Print(std::cout);
  std::cout << "\nPaper's Table 1 (full-scale originals): dblp 1.2M/2.5M/8, "
               "provgen 0.5M/0.9M/3,\nmusicbrainz 31M/100M/12, lubm-100 "
               "2.6M/11M/15, lubm-4000 131M/534M/15.\nExpected shape: same "
               "|LV| per dataset and the same |E| ordering.\n";
  return 0;
}
