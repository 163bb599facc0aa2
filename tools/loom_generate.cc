// loom_generate — materialise a synthetic evaluation dataset (graph +
// canonical workload) to files usable by loom_partition, and/or export its
// edge sequence as a replayable stream file.
//
// Usage:
//   loom_generate --dataset dblp|provgen|musicbrainz|lubm-100|lubm-4000
//                 [--scale 1.0] [--graph-out G.lg] [--workload-out Q.lw]
//                 [--write-stream S.les] [--stream-format binary|text]
//                 [--order bfs|dfs|random|canonical] [--seed N] [--lazy]
//
// --write-stream exports the dataset's edge sequence (io/edge_stream_io.h)
// in the chosen arrival order; loom_partition --input replays it with
// bounded memory. With --lazy the edges come straight from the generator
// through engine::GeneratorEdgeSource — no graph is ever materialised, so
// LUBM exports at full paper scale on small machines (lazy orders:
// canonical/random; bfs/dfs need adjacency and therefore the materialised
// path). The lazy and materialised exports are bit-identical for the same
// order and seed.
//
// --help prints the usage to stdout and exits 0; an unknown flag, a flag
// without its value or a malformed value prints the error and the usage to
// stderr and exits 2.

#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "datasets/dataset_registry.h"
#include "engine/generator_source.h"
#include "graph/graph_io.h"
#include "io/edge_stream_io.h"
#include "query/workload_io.h"
#include "stream/stream_order.h"
#include "util/string_util.h"

namespace {

void Usage(std::ostream& out) {
  out << "usage: loom_generate --dataset NAME [--scale F]\n"
         "         [--graph-out G.lg] [--workload-out Q.lw]\n"
         "         [--write-stream S.les] [--stream-format binary|text]\n"
         "         [--order bfs|dfs|random|canonical] [--seed N] [--lazy]\n"
         "datasets: dblp provgen musicbrainz lubm-100 lubm-4000\n"
         "(at least one output flag is required)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace loom;
  std::string dataset_name, graph_out, workload_out, stream_out;
  std::string format_name = "binary", order_name = "canonical";
  double scale = 1.0;
  uint64_t seed = stream::kDefaultStreamSeed;
  bool lazy = false;
  // Numeric flags parse through exception-free helpers: a typo'd value
  // must print the usual error line, not an unhandled-exception abort.
  bool parse_ok = true;
  auto parse_double = [&](const char* flag, const char* v, double* out) {
    // util::ParseFiniteDouble, not std::stod: stod accepts "nan"/"inf",
    // and a NaN scale passes every downstream range check unnoticed.
    if (!util::ParseFiniteDouble(v, out)) {
      std::cerr << flag << ": not a finite number: '" << v << "'\n";
      parse_ok = false;
    }
  };
  auto parse_u64 = [&](const char* flag, const char* v, uint64_t* out) {
    size_t end = 0;
    try {
      *out = std::stoull(v, &end, 0);
    } catch (const std::exception&) {
      end = 0;
    }
    if (end != std::strlen(v)) {
      std::cerr << flag << ": not an integer: '" << v << "'\n";
      parse_ok = false;
    }
  };
  for (int i = 1; i < argc && parse_ok; ++i) {
    const char* flag = argv[i];
    // Every flag but --help and --lazy takes a value.
    auto value = [&]() -> const char* {
      if (i + 1 < argc) return argv[++i];
      std::cerr << flag << " requires a value\n";
      parse_ok = false;
      return nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(flag, "--help") == 0) {
      Usage(std::cout);
      return 0;
    } else if (std::strcmp(flag, "--lazy") == 0) {
      lazy = true;
    } else if (std::strcmp(flag, "--dataset") == 0) {
      if ((v = value())) dataset_name = v;
    } else if (std::strcmp(flag, "--scale") == 0) {
      if ((v = value())) parse_double(flag, v, &scale);
    } else if (std::strcmp(flag, "--graph-out") == 0) {
      if ((v = value())) graph_out = v;
    } else if (std::strcmp(flag, "--workload-out") == 0) {
      if ((v = value())) workload_out = v;
    } else if (std::strcmp(flag, "--write-stream") == 0) {
      if ((v = value())) stream_out = v;
    } else if (std::strcmp(flag, "--stream-format") == 0) {
      if ((v = value())) format_name = v;
    } else if (std::strcmp(flag, "--order") == 0) {
      if ((v = value())) order_name = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if ((v = value())) parse_u64(flag, v, &seed);
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      parse_ok = false;
    }
  }
  if (!parse_ok || dataset_name.empty() ||
      (graph_out.empty() && workload_out.empty() && stream_out.empty())) {
    Usage(std::cerr);
    return 2;
  }

  datasets::DatasetId id;
  if (dataset_name == "dblp") id = datasets::DatasetId::kDblp;
  else if (dataset_name == "provgen") id = datasets::DatasetId::kProvGen;
  else if (dataset_name == "musicbrainz") id = datasets::DatasetId::kMusicBrainz;
  else if (dataset_name == "lubm-100") id = datasets::DatasetId::kLubm100;
  else if (dataset_name == "lubm-4000") id = datasets::DatasetId::kLubm4000;
  else {
    std::cerr << "unknown dataset: " << dataset_name << "\n";
    return 2;
  }

  io::StreamFormat format = io::StreamFormat::kBinary;
  if (!io::ParseStreamFormat(format_name, &format)) {
    std::cerr << "unknown stream format: " << format_name << "\n";
    return 2;
  }
  stream::StreamOrder order = stream::StreamOrder::kCanonical;
  if (!stream::ParseStreamOrder(order_name, &order)) {
    std::cerr << "unknown order: " << order_name << "\n";
    return 2;
  }

  try {
    if (lazy) {
      if (!graph_out.empty()) {
        std::cerr << "--lazy cannot materialise a graph file; drop "
                     "--graph-out or the --lazy flag\n";
        return 2;
      }
      // Generator -> stream file, no graph in RAM at any point.
      engine::GeneratorEdgeSource source(id, scale, order, seed);
      if (!stream_out.empty()) {
        const uint64_t written = io::WriteEdgeStream(
            stream_out, source.registry(), source.NumVertices(), &source,
            format);
        std::cerr << "wrote " << written << " edges over "
                  << source.NumVertices() << " vertices to " << stream_out
                  << " (" << io::ToString(format) << ", " << order_name
                  << ", lazy)\n";
      }
      if (!workload_out.empty()) {
        graph::LabelRegistry registry = source.registry();
        query::Workload workload = datasets::WorkloadFor(id, &registry);
        query::WriteWorkloadFile(workload, registry, workload_out);
        std::cerr << "wrote " << workload.size() << " queries to "
                  << workload_out << "\n";
      }
      return 0;
    }

    datasets::Dataset ds = datasets::MakeDataset(id, scale);
    if (!graph_out.empty()) {
      graph::WriteGraphFile(ds.graph, ds.registry, graph_out);
      std::cerr << "wrote " << ds.NumVertices() << " vertices / "
                << ds.NumEdges() << " edges to " << graph_out << "\n";
    }
    if (!workload_out.empty()) {
      query::WriteWorkloadFile(ds.workload, ds.registry, workload_out);
      std::cerr << "wrote " << ds.workload.size() << " queries to "
                << workload_out << "\n";
    }
    if (!stream_out.empty()) {
      std::unique_ptr<engine::EdgeSource> source =
          engine::MakeEdgeSource(ds, order, seed);
      const uint64_t written = io::WriteEdgeStream(
          stream_out, ds.registry, ds.NumVertices(), source.get(), format);
      std::cerr << "wrote " << written << " edges to " << stream_out << " ("
                << io::ToString(format) << ", " << order_name << ")\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
