#include "partition/edge/edge_partitioner.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace loom {
namespace partition {
namespace edge {

EdgePartitioner::EdgePartitioner(const engine::EngineOptions& options)
    // The primary vertex table carries each vertex's FIRST replica part for
    // the shared eval/sink plumbing; the ν=2.0 slack (same idiom as
    // hash_partitioner) guarantees Assign never diverts, so the table is a
    // faithful record of the edge placements rather than a second heuristic.
    : partitioning_(options.k, options.expected_vertices, /*nu=*/2.0),
      words_((options.k + 63) / 64),
      loads_(options.k, 0) {
  degrees_.reserve(options.expected_vertices);
  replicas_.reserve(options.expected_vertices * words_);
}

void EdgePartitioner::EnsureVertex(graph::VertexId v) {
  if (v >= degrees_.size()) {
    degrees_.resize(static_cast<size_t>(v) + 1, 0);
    replicas_.resize((static_cast<size_t>(v) + 1) * words_, 0);
  }
}

void EdgePartitioner::AddReplica(graph::VertexId v, graph::PartitionId p) {
  const size_t base = static_cast<size_t>(v) * words_;
  uint64_t& word = replicas_[base + p / 64];
  const uint64_t bit = 1ULL << (p % 64);
  if ((word & bit) != 0) return;
  bool had_any = false;
  for (uint32_t w = 0; w < words_ && !had_any; ++w) {
    had_any = replicas_[base + w] != 0;
  }
  word |= bit;
  ++replica_total_;
  if (!had_any) ++vertices_seen_;
}

void EdgePartitioner::IngestBatch(std::span<const stream::StreamEdge> batch) {
  for (const stream::StreamEdge& e : batch) {
    EnsureVertex(e.u);
    EnsureVertex(e.v);
    // Partial degrees are bumped BEFORE scoring (the NuCut/Adwise HDRF
    // convention): the edge being placed counts toward its own endpoints'
    // degrees, so the very first edge sees δu = δv = 1/2.
    ++degrees_[e.u];
    if (e.v != e.u) ++degrees_[e.v];

    const graph::PartitionId p = PlaceEdge(e);
    assert(p < k());

    AddReplica(e.u, p);
    if (e.v != e.u) AddReplica(e.v, p);
    ++loads_[p];
    ++edges_assigned_;
    edge_hash_ = (edge_hash_ ^ p) * 0x100000001b3ULL;  // FNV-1a, placements

    // Primary vertex placement: first replica part wins, routed through
    // AssignAndNotify so vertex sinks and eval see edge backends uniformly.
    AssignAndNotify(&partitioning_, e.u, p);
    if (e.v != e.u) AssignAndNotify(&partitioning_, e.v, p);

    NotifyEdge(e, p);
  }
}

double EdgePartitioner::ReplicationFactor() const {
  return vertices_seen_ > 0
             ? static_cast<double>(replica_total_) / vertices_seen_
             : 0.0;
}

double EdgePartitioner::EdgeBalance() const {
  if (edges_assigned_ == 0) return 0.0;
  uint64_t max_load = 0;
  for (uint64_t l : loads_) max_load = std::max(max_load, l);
  return static_cast<double>(max_load) * k() / edges_assigned_;
}

bool EdgePartitioner::IsReplicaOf(graph::VertexId v,
                                  graph::PartitionId p) const {
  if (v >= degrees_.size() || p >= k()) return false;
  const uint64_t word = replicas_[static_cast<size_t>(v) * words_ + p / 64];
  return (word >> (p % 64)) & 1ULL;
}

graph::PartitionId EdgePartitioner::HdrfGreedyPick(const stream::StreamEdge& e,
                                                   double lambda,
                                                   double epsilon,
                                                   double capacity) const {
  // Partial degrees already include this edge (see IngestBatch): δu is u's
  // share of the edge's combined streamed-so-far degree.
  const double theta_u = PartialDegree(e.u);
  const double theta_v = PartialDegree(e.v);
  const double delta_u = theta_u / (theta_u + theta_v);
  const double delta_v = 1.0 - delta_u;

  const std::vector<uint64_t>& load = loads_;
  const uint64_t max_load = *std::max_element(load.begin(), load.end());
  const uint64_t min_load = *std::min_element(load.begin(), load.end());
  const double spread = epsilon + static_cast<double>(max_load - min_load);

  graph::PartitionId best = 0;
  double best_score = -1.0;  // every real score is >= 0
  bool found = false;
  for (graph::PartitionId p = 0; p < k(); ++p) {
    if (static_cast<double>(load[p]) + 1.0 > capacity) continue;
    double rep = 0.0;
    if (IsReplicaOf(e.u, p)) rep += 1.0 + (1.0 - delta_u);
    if (e.v != e.u && IsReplicaOf(e.v, p)) rep += 1.0 + (1.0 - delta_v);
    const double bal = static_cast<double>(max_load - load[p]) / spread;
    const double score = rep + lambda * bal;
    // Pinned tie-break: strictly-greater wins; equal score -> smaller load
    // wins; equal load -> keep the lower id.
    if (!found || score > best_score ||
        (score == best_score && load[p] < load[best])) {
      best = p;
      best_score = score;
      found = true;
    }
  }
  assert(found);
  return best;
}

uint32_t EdgePartitioner::ReplicaCount(graph::VertexId v) const {
  if (v >= degrees_.size()) return 0;
  uint32_t count = 0;
  for (uint32_t w = 0; w < words_; ++w) {
    count += std::popcount(replicas_[static_cast<size_t>(v) * words_ + w]);
  }
  return count;
}

void EdgePartitioner::FillFinalStats(engine::StatCounters* stats) const {
  uint64_t max_load = 0, min_load = loads_.empty() ? 0 : loads_[0];
  for (uint64_t l : loads_) {
    max_load = std::max(max_load, l);
    min_load = std::min(min_load, l);
  }
  stats->emplace_back("edge_assignments", edges_assigned_);
  stats->emplace_back("vertices_seen", vertices_seen_);
  stats->emplace_back("replica_total", replica_total_);
  stats->emplace_back("max_part_edges", max_load);
  stats->emplace_back("min_part_edges", min_load);
  stats->emplace_back("edge_assignment_hash", edge_hash_);
}

void EdgePartitioner::SaveState(io::CheckpointWriter* w) const {
  w->BeginSection("edge_state");
  w->U32(k());
  w->U32(words_);
  w->U64(edges_assigned_);
  w->U64(edge_hash_);
  w->U64(replica_total_);
  w->U64(vertices_seen_);
  w->PodVec(loads_);
  w->PodVec(degrees_);
  w->PodVec(replicas_);
  SaveExtra(w);
  w->EndSection();
  partitioning_.SaveTo(w);
}

void EdgePartitioner::RestoreState(io::CheckpointReader* r) {
  if (edges_assigned_ != 0 || partitioning_.NumAssigned() != 0) {
    r->Fail("RestoreState requires a fresh instance (edges already ingested)");
  }
  r->Open("edge_state");
  const uint32_t saved_k = r->U32();
  if (saved_k != k()) {
    r->Fail("edge_state k mismatch: checkpoint has k=" +
            std::to_string(saved_k) + ", this instance has k=" +
            std::to_string(k()));
  }
  const uint32_t saved_words = r->U32();
  if (saved_words != words_) {
    r->Fail("edge_state replica-mask width mismatch: checkpoint has " +
            std::to_string(saved_words) + " words/vertex, expected " +
            std::to_string(words_));
  }
  edges_assigned_ = r->U64();
  edge_hash_ = r->U64();
  replica_total_ = r->U64();
  vertices_seen_ = r->U64();
  r->PodVec(&loads_);
  r->PodVec(&degrees_);
  r->PodVec(&replicas_);
  if (loads_.size() != k()) {
    r->Fail("edge_state load table has " + std::to_string(loads_.size()) +
            " entries, expected k=" + std::to_string(k()));
  }
  if (replicas_.size() != degrees_.size() * words_) {
    r->Fail("edge_state replica table has " +
            std::to_string(replicas_.size()) + " words for " +
            std::to_string(degrees_.size()) + " vertices (expected " +
            std::to_string(degrees_.size() * words_) + ")");
  }
  // Semantic validation (same discipline as DynamicGraph::LoadFrom): the
  // stored scalar counters must agree with the loaded tables, so a
  // hand-edited or checksum-colliding file fails actionably instead of
  // silently desyncing the quality triple.
  const uint64_t load_sum =
      std::accumulate(loads_.begin(), loads_.end(), uint64_t{0});
  if (load_sum != edges_assigned_) {
    r->Fail("edge_state counter desync: part loads sum to " +
            std::to_string(load_sum) + " but edges_assigned=" +
            std::to_string(edges_assigned_));
  }
  uint64_t mask_bits = 0, mask_vertices = 0;
  for (size_t v = 0; v < degrees_.size(); ++v) {
    uint32_t bits = 0;
    for (uint32_t w = 0; w < words_; ++w) {
      bits += std::popcount(replicas_[v * words_ + w]);
    }
    mask_bits += bits;
    if (bits > 0) ++mask_vertices;
  }
  if (mask_bits != replica_total_ || mask_vertices != vertices_seen_) {
    r->Fail("edge_state counter desync: replica masks hold " +
            std::to_string(mask_bits) + " bits over " +
            std::to_string(mask_vertices) + " vertices but counters say " +
            std::to_string(replica_total_) + " / " +
            std::to_string(vertices_seen_));
  }
  RestoreExtra(r);
  r->Close();
  partitioning_.LoadFrom(r);
}

}  // namespace edge
}  // namespace partition
}  // namespace loom
