#include "test_util.h"

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "partition/partition_metrics.h"
#include "stream/stream_order.h"

namespace loom {
namespace test_util {

engine::EngineOptions OptionsFor(const datasets::Dataset& ds, uint32_t k,
                                 uint64_t window_size) {
  engine::EngineOptions options;
  options.k = k;
  options.expected_vertices = ds.NumVertices();
  options.expected_edges = ds.NumEdges();
  options.window_size = window_size;
  return options;
}

engine::BuildContext ContextFor(const datasets::Dataset& ds) {
  return engine::BuildContext{&ds.workload, ds.registry.size()};
}

std::unique_ptr<partition::Partitioner> MakeBackend(
    std::string_view spec, const engine::EngineOptions& options,
    const datasets::Dataset& ds) {
  std::string error;
  auto p = engine::BuildPartitioner(spec, options, ContextFor(ds), &error);
  if (p == nullptr) {
    ADD_FAILURE() << "building backend '" << spec << "' failed: " << error;
  }
  return p;
}

void RunAll(partition::Partitioner* p, const stream::EdgeStream& es) {
  for (const stream::StreamEdge& e : es) p->Ingest(e);
  p->Finalize();
}

std::ostream& operator<<(std::ostream& os, const Quality& q) {
  return os << "{hash=" << std::hex << q.assignment_hash << std::dec
            << ", edge_cut=" << q.edge_cut << ", imbalance=" << q.imbalance
            << "}";
}

Quality QualityOf(const partition::Partitioner& p,
                  const datasets::Dataset& ds) {
  Quality q;
  q.assignment_hash = eval::HashAssignment(p.partitioning(), ds.NumVertices());
  q.edge_cut = partition::EdgeCut(ds.graph, p.partitioning());
  q.imbalance = partition::Imbalance(p.partitioning());
  return q;
}

Quality DriveSpec(std::string_view spec, const datasets::Dataset& ds,
                  const engine::EngineOptions& options,
                  stream::StreamOrder order, uint64_t stream_seed,
                  size_t batch_size) {
  auto p = MakeBackend(spec, options, ds);
  if (p == nullptr) return Quality{};
  auto source = engine::MakeEdgeSource(ds, order, stream_seed);
  engine::DriveConfig config;
  config.batch_size = batch_size;
  engine::Drive(p.get(), source.get(), nullptr, config);
  return QualityOf(*p, ds);
}

}  // namespace test_util
}  // namespace loom
