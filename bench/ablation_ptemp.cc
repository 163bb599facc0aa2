// Ablation (ours, motivated by Sec. 3 / 5.3's closing paragraph): the cost
// of the temporary partition Ptemp. Mid-stream, edges buffered in the window
// are queryable only through Ptemp; a very large window therefore trades
// end-of-stream quality for mid-stream ipt. We sweep the window size and
// report mid-stream (checkpointed, Ptemp-charged) ipt next to the usual
// end-of-stream ipt.

#include <iostream>

#include "bench_common.h"
#include "datasets/dataset_registry.h"
#include "eval/experiment.h"
#include "eval/midstream.h"
#include "util/table_writer.h"

int main() {
  using namespace loom;
  bench::Banner("Ablation — Ptemp cost vs window size",
                "Sec. 3 / Sec. 5.3 closing paragraph");

  datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, bench::BenchScale());
  const std::vector<graph::EdgeId> order = stream::EdgeOrderFor(
      ds.graph, stream::StreamOrder::kRandom, stream::kDefaultStreamSeed);
  engine::GraphEdgeSource source(ds.graph, order);

  util::TableWriter t({"window t", "midstream ipt (with Ptemp)",
                       "avg Ptemp share", "end-of-stream ipt"});
  for (size_t window : {100u, 1000u, 4000u, 10000u, 20000u}) {
    engine::EngineOptions options;
    options.k = 8;
    options.expected_vertices = ds.NumVertices();
    options.expected_edges = ds.NumEdges();
    options.window_size = window;

    eval::MidstreamResult mid = eval::RunLoomMidstream(ds, order, options);
    double ptemp_share = 0.0;
    for (const auto& cp : mid.checkpoints) ptemp_share += cp.ptemp_share;
    if (!mid.checkpoints.empty()) ptemp_share /= mid.checkpoints.size();

    eval::ExperimentConfig cfg;
    cfg.options = options;
    eval::SystemResult end = eval::RunSystem("loom", ds, source, cfg);

    t.AddRow({std::to_string(window),
              util::TableWriter::Fmt(mid.mean_weighted_ipt, 0),
              util::TableWriter::Pct(ptemp_share),
              util::TableWriter::Fmt(end.weighted_ipt, 0)});
  }
  t.Print(std::cout);

  std::cout << "\nExpected shape: end-of-stream ipt improves with t and "
               "flattens (Fig. 9), while the\nmid-stream Ptemp share (and "
               "with it mid-stream ipt) grows — the trade-off the paper\n"
               "warns about when suggesting not to grow the window "
               "indefinitely.\n";
  return 0;
}
