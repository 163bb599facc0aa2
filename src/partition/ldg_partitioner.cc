#include "partition/ldg_partitioner.h"

#include <algorithm>
#include <vector>

namespace loom {
namespace partition {

namespace {

/// Stack-allocated per-partition counters for the common k; Choose runs for
/// every bypassed edge, so a heap allocation per call is real money.
constexpr uint32_t kStackK = 64;

struct CountsBuffer {
  uint32_t stack[kStackK];
  std::vector<uint32_t> heap;

  /// Zeroed counters for k partitions, stack-backed when k fits.
  uint32_t* Prepare(uint32_t k) {
    if (k <= kStackK) {
      std::fill_n(stack, k, 0u);
      return stack;
    }
    heap.assign(k, 0);
    return heap.data();
  }
};

// Shared argmax over count · residual-capacity scores.
graph::PartitionId BestByWeightedCount(const uint32_t* counts,
                                       const Partitioning& partitioning,
                                       bool* had_signal = nullptr) {
  const uint32_t k = partitioning.k();
  const double capacity = static_cast<double>(partitioning.Capacity());
  graph::PartitionId best = graph::kNoPartition;
  double best_score = -1.0;
  for (graph::PartitionId p = 0; p < k; ++p) {
    if (partitioning.AtCapacity(p)) continue;
    const double residual =
        1.0 - static_cast<double>(partitioning.Size(p)) / capacity;
    const double score = static_cast<double>(counts[p]) * residual;
    if (score > best_score ||
        (score == best_score && best != graph::kNoPartition &&
         partitioning.Size(p) < partitioning.Size(best))) {
      best = p;
      best_score = score;
    }
  }
  if (best == graph::kNoPartition || best_score == 0.0) {
    if (had_signal != nullptr) *had_signal = false;
    return partitioning.LeastLoaded();
  }
  if (had_signal != nullptr) *had_signal = true;
  return best;
}

/// LDG's hot loop. A materialised hub row IS the neighbour tally,
/// maintained incrementally — add it instead of walking.
void TallyNeighbors(graph::VertexId v, const graph::DynamicGraph& neighborhood,
                    const Partitioning& partitioning, const HubTallyCache* hub,
                    uint32_t* counts) {
  if (hub != nullptr) {
    if (const uint32_t* row = hub->Counts(v)) {
      for (uint32_t p = 0; p < partitioning.k(); ++p) counts[p] += row[p];
      return;
    }
  }
  partitioning.TallyNeighbors(neighborhood.Neighbors(v), counts);
}

}  // namespace

graph::PartitionId LdgHeuristic::ChooseForVertex(
    graph::VertexId v, const graph::DynamicGraph& neighborhood,
    const Partitioning& partitioning, const HubTallyCache* hub) {
  CountsBuffer buf;
  uint32_t* counts = buf.Prepare(partitioning.k());
  TallyNeighbors(v, neighborhood, partitioning, hub, counts);
  return BestByWeightedCount(counts, partitioning);
}

graph::PartitionId LdgHeuristic::Choose(const stream::StreamEdge& e,
                                        const graph::DynamicGraph& neighborhood,
                                        const Partitioning& partitioning,
                                        bool* had_signal,
                                        const HubTallyCache* hub) {
  CountsBuffer buf;
  uint32_t* counts = buf.Prepare(partitioning.k());
  for (graph::VertexId endpoint : {e.u, e.v}) {
    TallyNeighbors(endpoint, neighborhood, partitioning, hub, counts);
  }
  return BestByWeightedCount(counts, partitioning, had_signal);
}

LdgPartitioner::LdgPartitioner(const PartitionerConfig& config)
    // LDG's capacity constraint is the strict C = n/k (its residual weight
    // reaches zero at perfect balance), which is why the paper observes only
    // 1-3% imbalance for LDG vs Fennel's/Loom's ~10%.
    : partitioning_(config.k, config.expected_vertices, /*nu=*/1.0),
      seen_(config.expected_vertices, config.adj_page_entries,
            /*expected_entries=*/2 * config.expected_edges),
      hub_(config.k, config.hub_degree_threshold) {}

void LdgPartitioner::AssignVertex(graph::VertexId v, graph::PartitionId target) {
  const graph::PartitionId actual =
      AssignAndNotify(&partitioning_, v, target);
  hub_.OnAssign(v, actual, seen_);
}

void LdgPartitioner::Ingest(const stream::StreamEdge& e) {
  seen_.TouchVertex(e.u, e.label_u);
  seen_.TouchVertex(e.v, e.label_v);
  // Record the edge before deciding: the stream element carries its own
  // adjacency, so each endpoint sees the other.
  seen_.AddEdge(e.u, e.v);
  hub_.OnEdgeVisible(e.u, e.v, seen_, partitioning_);

  // Place unassigned endpoints one at a time, each seeing the other.
  if (!partitioning_.IsAssigned(e.u)) {
    AssignVertex(e.u, LdgHeuristic::ChooseForVertex(e.u, seen_, partitioning_,
                                                    &hub_));
  }
  if (!partitioning_.IsAssigned(e.v)) {
    AssignVertex(e.v, LdgHeuristic::ChooseForVertex(e.v, seen_, partitioning_,
                                                    &hub_));
  }
}

bool LdgPartitioner::SaveState(io::CheckpointWriter* w, std::string* error) const {
  (void)error;
  partitioning_.SaveTo(w);
  seen_.SaveTo(w, "seen_graph");
  return true;
}

bool LdgPartitioner::RestoreState(io::CheckpointReader* r, std::string* error) {
  (void)error;
  partitioning_.LoadFrom(r);
  seen_.LoadFrom(r, "seen_graph");
  // Hub rows are derived state — never checkpointed, always re-derived.
  hub_.Rebuild(seen_, seen_.NumSlots(), partitioning_);
  return true;
}

}  // namespace partition
}  // namespace loom
