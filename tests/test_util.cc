#include "test_util.h"

#include <gtest/gtest.h>

#include "engine/session.h"
#include "partition/partition_metrics.h"

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

std::vector<stream::StreamEdge> Drain(engine::EdgeSource& source) {
  std::vector<stream::StreamEdge> edges;
  std::vector<stream::StreamEdge> batch(512);
  while (const size_t n = source.NextBatch(batch)) {
    edges.insert(edges.end(), batch.begin(), batch.begin() + n);
  }
  return edges;
}

std::vector<stream::StreamEdge> Drain(const graph::LabeledGraph& g,
                                      stream::StreamOrder order,
                                      uint64_t seed) {
  return Drain(*engine::MakeEdgeSource(g, order, seed));
}

std::vector<stream::StreamEdge> ReferenceStream(
    const graph::LabeledGraph& g, const std::vector<graph::EdgeId>& order) {
  std::vector<stream::StreamEdge> edges(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const graph::Edge& e = g.edge(order[i]);
    edges[i] = {static_cast<graph::EdgeId>(i), e.u, e.v, g.label(e.u),
                g.label(e.v)};
  }
  return edges;
}

void RunAll(partition::Partitioner* p,
            std::span<const stream::StreamEdge> edges) {
  for (const stream::StreamEdge& e : edges) p->Ingest(e);
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
  q.assignment_hash =
      partition::AssignmentHash(p.partitioning(), ds.NumVertices());
  q.edge_cut = partition::EdgeCut(ds.graph, p.partitioning());
  q.imbalance = partition::Imbalance(p.partitioning());
  return q;
}

Quality DriveSpec(std::string_view spec, const datasets::Dataset& ds,
                  const engine::EngineOptions& options,
                  engine::EdgeSource& source, size_t batch_size) {
  engine::SessionConfig config;
  config.spec = std::string(spec);
  config.options = options;
  config.drive.batch_size = batch_size;
  std::string error;
  auto session = engine::Session::Create(config, ContextFor(ds), &error);
  if (session == nullptr) {
    ADD_FAILURE() << "building backend '" << spec << "' failed: " << error;
    return Quality{};
  }
  source.Reset();
  session->Run(source);
  return QualityOf(session->backend(), ds);
}

Quality DriveSpec(std::string_view spec, const datasets::Dataset& ds,
                  const engine::EngineOptions& options,
                  stream::StreamOrder order, uint64_t stream_seed,
                  size_t batch_size) {
  auto source = engine::MakeEdgeSource(ds, order, stream_seed);
  return DriveSpec(spec, ds, options, *source, batch_size);
}

}  // namespace test_util
}  // namespace loom
