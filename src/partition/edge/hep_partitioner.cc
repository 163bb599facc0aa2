#include "partition/edge/hep_partitioner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace loom {
namespace partition {
namespace edge {

namespace {

/// Ceiling of the saturating neighborhood term n/(n+1), scaled below 1.0 so
/// the term can NEVER outbid a real endpoint replica (worth 1..2): pulling
/// an edge into a part that merely holds its neighbors — but neither
/// endpoint — would mint two fresh replicas on the spot. Neighbors only
/// steer between parts the endpoint-replica score leaves tied.
constexpr double kNeighborWeight = 0.9;

}  // namespace

HepPartitioner::HepPartitioner(const engine::EngineOptions& options)
    : EdgePartitioner(options),
      threshold_factor_(options.threshold_factor),
      lambda_(options.lambda),
      epsilon_(options.epsilon),
      capacity_factor_(options.max_imbalance),
      nbr_scratch_(options.k, 0) {
  // Same non-finite discipline as HdrfPartitioner: NaN fails every ordered
  // comparison, so range checks alone would accept it and silently skew
  // every placement.
  if (!std::isfinite(threshold_factor_) || threshold_factor_ <= 0.0) {
    throw std::invalid_argument("hep: threshold_factor must be finite and > 0");
  }
  if (!std::isfinite(lambda_) || lambda_ < 0.0) {
    throw std::invalid_argument("hep: lambda must be finite and >= 0");
  }
  if (!std::isfinite(epsilon_) || epsilon_ <= 0.0) {
    throw std::invalid_argument("hep: epsilon must be finite and > 0");
  }
  core_adj_.reserve(options.expected_vertices);
}

void HepPartitioner::MaybePromote(graph::VertexId v, double threshold) {
  if (high_degree_.Test(v)) return;
  if (static_cast<double>(PartialDegree(v)) <= threshold) return;
  high_degree_.Set(v);
  // Free (not just clear) the promoted vertex's list: this release is what
  // bounds core memory by n x threshold on unbounded streams.
  if (v < core_adj_.size()) {
    std::vector<graph::VertexId>().swap(core_adj_[v]);
  }
}

void HepPartitioner::AppendCoreAdjacency(graph::VertexId v,
                                         graph::VertexId n) {
  if (v >= core_adj_.size()) core_adj_.resize(static_cast<size_t>(v) + 1);
  core_adj_[v].push_back(n);
}

graph::PartitionId HepPartitioner::ExpandCore(const stream::StreamEdge& e,
                                              double capacity) {
  const double theta_u = PartialDegree(e.u);
  const double theta_v = PartialDegree(e.v);
  const double delta_u = theta_u / (theta_u + theta_v);
  const double delta_v = 1.0 - delta_u;

  // Neighborhood expansion: count, per part, the endpoints' in-memory
  // neighbors already replicated there. Core degrees are <= the promotion
  // threshold, so this scan is O(threshold x k), never a hub scan.
  std::fill(nbr_scratch_.begin(), nbr_scratch_.end(), 0);
  auto tally = [&](graph::VertexId v) {
    if (v >= core_adj_.size()) return;
    for (const graph::VertexId n : core_adj_[v]) {
      for (graph::PartitionId p = 0; p < k(); ++p) {
        if (IsReplicaOf(n, p)) ++nbr_scratch_[p];
      }
    }
  };
  tally(e.u);
  if (e.v != e.u) tally(e.v);

  const std::vector<uint64_t>& load = loads();
  graph::PartitionId best = 0;
  double best_score = -1.0;
  bool found = false;
  for (graph::PartitionId p = 0; p < k(); ++p) {
    if (static_cast<double>(load[p]) + 1.0 > capacity) continue;
    double score = 0.0;
    if (IsReplicaOf(e.u, p)) score += 1.0 + (1.0 - delta_u);
    if (e.v != e.u && IsReplicaOf(e.v, p)) score += 1.0 + (1.0 - delta_v);
    // Saturating: more neighbors keep helping, but the whole term stays
    // under kNeighborWeight (< 1), strictly dominated by any endpoint term.
    const double n = static_cast<double>(nbr_scratch_[p]);
    score += kNeighborWeight * n / (n + 1.0);
    // Pinned tie-break, same as HDRF: strictly-greater score wins, equal
    // score -> smaller load, equal load -> lower id.
    if (!found || score > best_score ||
        (score == best_score && load[p] < load[best])) {
      best = p;
      best_score = score;
      found = true;
    }
  }
  assert(found);  // the min-loaded part always fits under the capacity
  return best;
}

graph::PartitionId HepPartitioner::PlaceEdge(const stream::StreamEdge& e) {
  // First-touch detection: IngestBatch already bumped partial degrees, so a
  // degree of exactly 1 marks a vertex this stream never produced before
  // (a self-loop bumps its single slot once, so the same test holds).
  if (PartialDegree(e.u) == 1) ++touched_;
  if (e.v != e.u && PartialDegree(e.v) == 1) ++touched_;

  // The online split point: threshold_factor x the running mean partial
  // degree (2·edges / distinct vertices, this edge included). Promotion is
  // monotone, so a later-shrinking mean never demotes anyone — that keeps
  // placements a pure function of the edge sequence.
  const double mean = 2.0 * static_cast<double>(EdgesAssigned() + 1) /
                      static_cast<double>(touched_);
  const double threshold = threshold_factor_ * mean;
  MaybePromote(e.u, threshold);
  if (e.v != e.u) MaybePromote(e.v, threshold);

  const bool u_high = high_degree_.Test(e.u);
  const bool v_high = high_degree_.Test(e.v);
  // Hard edge-balance cap: capacity_factor x perfect share, plus one edge
  // of slack so the min-loaded part qualifies even in the startup regime
  // (min_load <= edges/k, so min_load + 1 <= capacity always holds).
  const double capacity =
      capacity_factor_ * (static_cast<double>(EdgesAssigned()) + 1.0) / k() +
      1.0;

  graph::PartitionId p;
  if (u_high || v_high) {
    p = HdrfGreedyPick(e, lambda_, epsilon_, capacity);
    ++fallback_edges_;
  } else {
    p = ExpandCore(e, capacity);
    ++core_edges_;
  }

  // Record the edge in the core adjacency AFTER scoring (an edge must not
  // see itself as its own neighbor); promoted endpoints carry no list.
  if (!u_high) AppendCoreAdjacency(e.u, e.v);
  if (!v_high && e.v != e.u) AppendCoreAdjacency(e.v, e.u);
  return p;
}

void HepPartitioner::FillFinalStats(engine::StatCounters* stats) const {
  EdgePartitioner::FillFinalStats(stats);
  stats->emplace_back("hep_high_degree_vertices", high_degree_.Count());
  stats->emplace_back("hep_core_edges", core_edges_);
  stats->emplace_back("hep_fallback_edges", fallback_edges_);
}

void HepPartitioner::SaveExtra(io::CheckpointWriter* w) const {
  w->U64(touched_);
  w->U64(core_edges_);
  w->U64(fallback_edges_);
  w->PodVec(high_degree_.words());
  // Core adjacency, flattened PodVec-style: per-slot counts, then the
  // concatenated neighbor ids.
  std::vector<uint64_t> counts(core_adj_.size());
  size_t total = 0;
  for (size_t v = 0; v < core_adj_.size(); ++v) {
    counts[v] = core_adj_[v].size();
    total += core_adj_[v].size();
  }
  std::vector<graph::VertexId> flat;
  flat.reserve(total);
  for (const std::vector<graph::VertexId>& adj : core_adj_) {
    flat.insert(flat.end(), adj.begin(), adj.end());
  }
  w->PodVec(counts);
  w->PodVec(flat);
}

void HepPartitioner::RestoreExtra(io::CheckpointReader* r) {
  touched_ = r->U64();
  core_edges_ = r->U64();
  fallback_edges_ = r->U64();
  if (core_edges_ + fallback_edges_ != EdgesAssigned()) {
    r->Fail("hep counter desync: core_edges=" + std::to_string(core_edges_) +
            " + fallback_edges=" + std::to_string(fallback_edges_) +
            " != edges_assigned=" + std::to_string(EdgesAssigned()));
  }
  std::vector<uint64_t> words;
  r->PodVec(&words);
  high_degree_.SetWords(std::move(words));
  std::vector<uint64_t> counts;
  std::vector<graph::VertexId> flat;
  r->PodVec(&counts);
  r->PodVec(&flat);
  const uint64_t total =
      std::accumulate(counts.begin(), counts.end(), uint64_t{0});
  if (total != flat.size()) {
    r->Fail("hep core adjacency desync: slot counts sum to " +
            std::to_string(total) + " but " + std::to_string(flat.size()) +
            " neighbor ids are stored");
  }
  core_adj_.assign(counts.size(), {});
  size_t offset = 0;
  for (size_t v = 0; v < counts.size(); ++v) {
    const size_t n = static_cast<size_t>(counts[v]);
    core_adj_[v].assign(flat.begin() + offset, flat.begin() + offset + n);
    offset += n;
  }
}

}  // namespace edge
}  // namespace partition
}  // namespace loom
