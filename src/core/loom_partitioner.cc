#include "core/loom_partitioner.h"

#include <algorithm>
#include <cassert>

namespace loom {
namespace core {

namespace {

// IngestBatch's look-ahead, in edges. Each per-vertex table is indexed by
// vertex id, so on a random or BFS-ordered stream every endpoint's first
// read misses the cache. At kSlotLookahead the endpoints' table slots are
// prefetched; at kTailLookahead the then-cached chain entry names the
// arena tail page to prefetch. The distances are fixed, not options: a
// 16/8 look-ahead that also prefetched neighbours' partitions measured no
// better than 8/4 (lubm-rand-file eps 0.89-1.10x).
constexpr size_t kSlotLookahead = 8;
constexpr size_t kTailLookahead = 4;

}  // namespace

LoomPartitioner::LoomPartitioner(const LoomOptions& options,
                                 const query::Workload& workload,
                                 size_t num_labels)
    : options_(options),
      ctor_num_labels_(num_labels),
      partitioning_(options.base.k, options.base.expected_vertices,
                    options.base.max_imbalance),
      seen_(options.base.expected_vertices, /*page_entries=*/0,
            /*expected_entries=*/2 * options.base.expected_edges),
      hub_(options.base.k, options.base.hub_degree_threshold),
      window_(options.window_size) {
  label_values_ = std::make_unique<signature::LabelValues>(
      num_labels, options.prime, options.signature_seed);
  calc_ = std::make_unique<signature::SignatureCalculator>(label_values_.get());
  trie_ = std::make_unique<tpstry::Tpstry>(calc_.get(),
                                           options.support_threshold);
  query::Workload normalised = workload;
  normalised.Normalize();
  for (const query::Query& q : normalised.queries()) {
    trie_->AddQuery(q.pattern, q.frequency);
  }
  matcher_ = std::make_unique<motif::MotifMatcher>(trie_.get(), calc_.get(),
                                                   options.matcher);
  allocator_ = std::make_unique<EqualOpportunism>(
      trie_.get(), &seen_, options.equal_opportunism, &hub_);
  const std::vector<bool> mask = trie_->MotifLabelMask(num_labels);
  motif_label_.assign(mask.begin(), mask.end());
  match_list_.ReserveEdgeSpan(options.window_size + 1);
}

bool LoomPartitioner::IsDeferred(graph::VertexId v, graph::LabelId label) {
  if (partitioning_.IsAssigned(v)) return false;
  // Vertices that participate in live motif matches — or whose label means
  // they *could*, once their motif edges arrive — are deferred: their
  // placement belongs to a match cluster's equal-opportunism allocation.
  // Pinning them early (e.g. when a hub edge like Activity-Agent bypasses
  // the window before the Activity's entity edges arrive) would silently
  // void the later cluster co-location, since vertex assignment is
  // first-writer-wins. Deferred vertices that never join a cluster are swept
  // up by Finalize with full neighbourhood information.
  if (label < motif_label_.size() && motif_label_[label] != 0) return true;
  return match_list_.HasLiveAt(v);
}

void LoomPartitioner::AssignVertex(graph::VertexId v, graph::PartitionId p) {
  // Cluster assignment hits already-placed vertices routinely
  // (first-writer-wins); the hub hook must fire only on the first placement.
  if (partitioning_.IsAssigned(v)) return;
  const graph::PartitionId actual = AssignAndNotify(&partitioning_, v, p);
  hub_.OnAssign(v, actual, seen_);
}

void LoomPartitioner::AssignImmediately(const stream::StreamEdge& e) {
  // Design note: we also tried registering a placeable endpoint whose
  // partner is deferred as a "satellite" that waits for the partner's
  // cluster before being (re-)scored — both unconditionally and only when
  // LDG had zero placement signal. Both variants degrade quality on 3 of 4
  // datasets (mass deferral starves the streaming heuristics of placed
  // neighbours); immediate LDG placement wins. See EXPERIMENTS.md.
  const bool place_u = !partitioning_.IsAssigned(e.u) && !IsDeferred(e.u, e.label_u);
  const bool place_v = !partitioning_.IsAssigned(e.v) && !IsDeferred(e.v, e.label_v);
  if (!place_u && !place_v) return;
  const graph::PartitionId p = partition::LdgHeuristic::Choose(
      e, seen_, partitioning_, /*had_signal=*/nullptr, &hub_);
  if (place_u) AssignVertex(e.u, p);
  if (place_v) AssignVertex(e.v, p);
}

void LoomPartitioner::EnsureLabelSpace(graph::LabelId max_label) {
  if (max_label < calc_->num_labels()) return;
  // A label this run has never seen: extend the value table (existing labels
  // keep their values — the retained RNG draws new ones sequentially), then
  // re-fit everything sized by the label count. The admission memo restarts
  // cold, which costs one trie probe per distinct label pair — not
  // correctness: memoised answers for old pairs recompute identically.
  label_values_->EnsureLabels(static_cast<size_t>(max_label) + 1);
  matcher_->InvalidateMotifCache();
  const std::vector<bool> mask =
      trie_->MotifLabelMask(label_values_->num_labels());
  motif_label_.assign(mask.begin(), mask.end());
}

void LoomPartitioner::IngestBatch(std::span<const stream::StreamEdge> batch) {
  graph::LabelId max_label = 0;
  for (const stream::StreamEdge& e : batch) {
    max_label = std::max({max_label, e.label_u, e.label_v});
  }
  EnsureLabelSpace(max_label);
  // Hoisted admission probes: the test is a pure function of the label pair
  // (memoised per pair) and the trie, which cannot change mid-batch, so one
  // tight pass over the memo table decides the whole batch before any
  // window/matcher work touches the caches.
  admit_scratch_.resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    admit_scratch_[i] = matcher_->SingleEdgeMotif(batch[i]) != nullptr;
  }
  // The batch is known in advance, so the per-vertex slots a later edge
  // will touch are requested while earlier edges run. Hints only: they
  // never change what the pipeline computes.
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kSlotLookahead < n) {
      PrefetchVertexSlots(batch[i + kSlotLookahead].u);
      PrefetchVertexSlots(batch[i + kSlotLookahead].v);
    }
    if (i + kTailLookahead < n) {
      seen_.PrefetchAppend(batch[i + kTailLookahead].u);
      seen_.PrefetchAppend(batch[i + kTailLookahead].v);
    }
    IngestWithAdmission(batch[i], admit_scratch_[i] != 0);
  }
}

void LoomPartitioner::PrefetchVertexSlots(graph::VertexId v) const {
  seen_.PrefetchVertex(v);
  partitioning_.PrefetchVertex(v);
  hub_.PrefetchVertex(v);
  match_list_.PrefetchVertex(v);
}

void LoomPartitioner::IngestWithAdmission(const stream::StreamEdge& e,
                                          bool admitted) {
  ++stats_.edges_ingested;
  seen_.TouchVertex(e.u, e.label_u);
  seen_.TouchVertex(e.v, e.label_v);
  seen_.AddEdge(e.u, e.v);  // before any placement: endpoints see each other
  hub_.OnEdgeVisible(e.u, e.v, seen_, partitioning_);

  if (!admitted) {
    // Sec. 3: e can never participate in a motif match — place it now and
    // "behave as if the edge was never added to the window".
    ++stats_.edges_bypassed;
    AssignImmediately(e);
    return;
  }

  window_.Push(e);
  matcher_->OnEdgeAdded(e, window_, &match_list_);

  while (window_.OverCapacity()) EvictOldest();
}

void LoomPartitioner::FillProgress(engine::ProgressEvent* progress) const {
  // Lifetime totals, so edges_ingested and edges_bypassed stay mutually
  // consistent even when the stream resumes after a Finalize checkpoint.
  progress->edges_ingested = stats_.edges_ingested;
  progress->edges_bypassed = stats_.edges_bypassed;
  progress->window_population = window_.size();
}

void LoomPartitioner::FillFinalStats(engine::FinalStatsEvent* stats) const {
  const motif::MatchPool& pool = match_list_.pool();
  const motif::MatcherStats& m = matcher_->stats();
  stats->counters.emplace_back("match_allocs_fresh", pool.fresh_allocations());
  stats->counters.emplace_back("match_allocs_reused",
                               pool.reused_allocations());
  stats->counters.emplace_back("matcher_edges_admitted", m.edges_admitted);
  stats->counters.emplace_back("matcher_single_edge_matches",
                               m.single_edge_matches);
  stats->counters.emplace_back("matcher_extension_matches",
                               m.extension_matches);
  stats->counters.emplace_back("matcher_join_matches", m.join_matches);
  stats->counters.emplace_back("matcher_join_attempts", m.join_attempts);
  stats->counters.emplace_back("evictions", stats_.evictions);
  stats->counters.emplace_back("empty_cluster_evictions",
                               stats_.empty_cluster_evictions);
  stats->counters.emplace_back("clusters_allocated", stats_.clusters_allocated);
  stats->counters.emplace_back("fallback_clusters", stats_.fallback_clusters);
  stats->counters.emplace_back("cluster_edges_assigned",
                               stats_.cluster_edges_assigned);
}

void LoomPartitioner::EvictOldest() {
  std::optional<stream::StreamEdge> evictee = window_.PopOldest();
  if (!evictee.has_value()) return;
  ++stats_.evictions;

  // Me: live matches containing the evictee.
  me_scratch_.clear();
  match_list_.CollectLiveWithEdge(evictee->id, &me_scratch_);
  if (me_scratch_.empty()) {
    // Every match the edge belonged to already lost some other edge.
    ++stats_.empty_cluster_evictions;
    AssignImmediately(*evictee);
    match_list_.RemoveMatchesWithEdge(evictee->id);
    return;
  }

  AllocationDecision decision =
      allocator_->DecideBids(match_list_, me_scratch_, partitioning_);
  if (decision.partition == graph::kNoPartition) {
    // Zero-bid cluster: fall back to LDG's neighbourhood choice for the
    // evictee, so cold-start clusters still land near their assigned
    // neighbours instead of scattering round-robin. Computed lazily — the
    // LDG scan walks both endpoints' full adjacency (hubs are expensive)
    // and is wasted whenever a positive bid wins.
    const graph::PartitionId fallback = partition::LdgHeuristic::Choose(
        *evictee, seen_, partitioning_, /*had_signal=*/nullptr, &hub_);
    decision.partition = partitioning_.AtCapacity(fallback)
                             ? partitioning_.LeastLoaded()
                             : fallback;
    decision.take = me_scratch_.size();
    ++stats_.fallback_clusters;
  }
  ++stats_.clusters_allocated;

  // Gather the union of edges across the matches the winner takes — concat
  // then sort+unique, not a per-edge sorted insert (which was quadratic in
  // the cluster's edge count). The evictee is in every match of Me, so it is
  // always included.
  std::vector<graph::EdgeId>& to_assign = assign_scratch_;
  to_assign.clear();
  for (size_t i = 0; i < decision.take; ++i) {
    const motif::Match& m = match_list_.match(me_scratch_[i]);
    to_assign.insert(to_assign.end(), m.edges.begin(), m.edges.end());
  }
  std::sort(to_assign.begin(), to_assign.end());
  to_assign.erase(std::unique(to_assign.begin(), to_assign.end()),
                  to_assign.end());
  assert(!to_assign.empty());

  for (graph::EdgeId eid : to_assign) {
    const stream::StreamEdge* se =
        eid == evictee->id ? &*evictee : window_.Find(eid);
    if (se == nullptr) continue;  // already left the window
    AssignVertex(se->u, decision.partition);
    AssignVertex(se->v, decision.partition);
    window_.Remove(eid);
    ++stats_.cluster_edges_assigned;
  }
  // Retire every match that lost a constituent edge — including the losing
  // bids in Me (they all contained the evictee).
  for (graph::EdgeId eid : to_assign) match_list_.RemoveMatchesWithEdge(eid);
}

void LoomPartitioner::UpdateWorkload(const query::Workload& workload,
                                     double decay) {
  assert(decay >= 0.0 && decay < 1.0);
  if (decay > 0.0) {
    trie_->DecaySupports(decay);
  } else {
    // Full replacement: decay to (almost) nothing.
    trie_->DecaySupports(1e-12);
  }
  query::Workload normalised = workload;
  normalised.Normalize();
  const double new_mass = 1.0 - decay;
  for (const query::Query& q : normalised.queries()) {
    trie_->AddQuery(q.pattern, q.frequency * new_mass);
  }
  const std::vector<bool> mask = trie_->MotifLabelMask(motif_label_.size());
  motif_label_.assign(mask.begin(), mask.end());
  // The admission memo caches motif status per label pair; the drifted
  // supports may have promoted or demoted single-edge motifs.
  matcher_->InvalidateMotifCache();
}

void LoomPartitioner::Finalize() {
  while (!window_.empty()) EvictOldest();
  // Sweep vertices whose placement was deferred (motif-labelled endpoints of
  // bypassed edges that never joined an allocated cluster). At this point the
  // full streamed adjacency is available, so LDG's per-vertex choice is
  // maximally informed.
  for (graph::VertexId v = 0; v < seen_.NumSlots(); ++v) {
    if (!seen_.Known(v) || partitioning_.IsAssigned(v)) continue;
    AssignVertex(v, partition::LdgHeuristic::ChooseForVertex(
                        v, seen_, partitioning_, &hub_));
  }
}

}  // namespace core
}  // namespace loom
