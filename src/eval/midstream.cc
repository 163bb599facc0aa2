#include "eval/midstream.h"

#include <algorithm>
#include <stdexcept>

#include "engine/session.h"
#include "query/workload_runner.h"

namespace loom {
namespace eval {

namespace {

// Prefix graph over the first `count` stream edges, preserving vertex ids
// and labels of the full graph (untouched vertices are isolated).
graph::LabeledGraph PrefixGraph(const datasets::Dataset& ds,
                                const std::vector<graph::EdgeId>& order,
                                size_t count) {
  graph::LabeledGraph::Builder b;
  for (graph::VertexId v = 0; v < ds.NumVertices(); ++v) {
    b.AddVertex(ds.graph.label(v));
  }
  for (size_t i = 0; i < count && i < order.size(); ++i) {
    const graph::Edge& e = ds.graph.edge(order[i]);
    b.AddEdge(e.u, e.v);
  }
  return b.Build();
}

// Partitioning view with k+1 partitions where every touched-but-unassigned
// vertex lives in partition k (Ptemp).
partition::Partitioning WithPtemp(const partition::Partitioning& p,
                                  const graph::LabeledGraph& prefix,
                                  size_t* in_ptemp, size_t* touched) {
  partition::Partitioning view(p.k() + 1, prefix.NumVertices(), /*nu=*/2.0);
  *in_ptemp = 0;
  *touched = 0;
  for (graph::VertexId v = 0; v < prefix.NumVertices(); ++v) {
    if (prefix.Degree(v) == 0) continue;  // not streamed yet
    ++*touched;
    graph::PartitionId pid = p.PartitionOf(v);
    if (pid == graph::kNoPartition) {
      pid = p.k();  // Ptemp
      ++*in_ptemp;
    }
    view.Assign(v, pid);
  }
  return view;
}

}  // namespace

MidstreamResult RunLoomMidstream(const datasets::Dataset& ds,
                                 const std::vector<graph::EdgeId>& order,
                                 const engine::EngineOptions& options,
                                 const MidstreamConfig& config) {
  MidstreamResult result;
  if (order.empty() || config.num_checkpoints == 0) return result;

  // Step a Session up to each checkpoint (IngestSome never finalizes — the
  // window must stay populated, that is the point of this harness) and
  // evaluate the prefix graph with Ptemp as an extra partition.
  std::string error;
  engine::SessionConfig session_config;
  session_config.spec = "loom";
  session_config.options = options;
  std::unique_ptr<engine::Session> session = engine::Session::Create(
      session_config, {&ds.workload, ds.registry.size()}, &error);
  if (session == nullptr) {
    // A zero-checkpoint result would read as "ipt = 0", i.e. a perfect
    // partitioning — surface the configuration failure instead.
    throw std::runtime_error("midstream: building 'loom' failed: " + error);
  }
  engine::GraphEdgeSource source(ds.graph, order);
  const size_t m = order.size();
  const size_t stride = std::max<size_t>(m / config.num_checkpoints, 1);

  size_t streamed = 0;
  while (streamed < m) {
    const size_t want = std::min(stride, m - streamed);
    const size_t got = session->IngestSome(source, want);
    streamed += got;
    if (got == 0) break;  // source dry before the arithmetic says so
    const bool at_end = streamed == m;
    const bool checkpoint_here = got == want || at_end;
    if (!checkpoint_here) continue;
    graph::LabeledGraph prefix = PrefixGraph(ds, order, streamed);
    size_t in_ptemp = 0, touched = 0;
    partition::Partitioning view =
        WithPtemp(session->partitioning(), prefix, &in_ptemp, &touched);
    query::WorkloadResult wr =
        query::RunWorkload(prefix, view, ds.workload, config.executor);
    CheckpointResult cp;
    cp.edges_streamed = streamed;
    cp.weighted_ipt = wr.weighted_ipt;
    cp.ptemp_share =
        touched > 0 ? static_cast<double>(in_ptemp) / touched : 0.0;
    result.checkpoints.push_back(cp);
  }

  double total = 0.0;
  for (const CheckpointResult& cp : result.checkpoints) {
    total += cp.weighted_ipt;
  }
  result.mean_weighted_ipt =
      result.checkpoints.empty()
          ? 0.0
          : total / static_cast<double>(result.checkpoints.size());
  return result;
}

}  // namespace eval
}  // namespace loom
