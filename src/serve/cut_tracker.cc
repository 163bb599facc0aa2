#include "serve/cut_tracker.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace loom {
namespace serve {

void CutTracker::AddEdge(const stream::StreamEdge& e) {
  edges_seen_.fetch_add(1, std::memory_order_relaxed);
  const graph::PartitionId pu = table_->Get(e.u);
  const graph::PartitionId pv = table_->Get(e.v);
  if (pu != graph::kNoPartition && pv != graph::kNoPartition) {
    if (pu != pv) cut_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Park on one unplaced endpoint; if the other is also unplaced the edge
  // re-parks there when this one resolves.
  if (pu == graph::kNoPartition) {
    parked_.emplace(e.u, e.v);
  } else {
    parked_.emplace(e.v, e.u);
  }
  ++pending_count_;
}

void CutTracker::Append(graph::VertexId v, graph::PartitionId p) {
  const auto range = parked_.equal_range(v);
  if (range.first == range.second) return;
  // Drain the key before re-parking: an emplace can rehash, which would
  // invalidate the range being walked.
  others_scratch_.clear();
  for (auto it = range.first; it != range.second; ++it) {
    others_scratch_.push_back(it->second);
  }
  parked_.erase(v);
  for (const graph::VertexId other : others_scratch_) {
    const graph::PartitionId po = table_->Get(other);
    if (po != graph::kNoPartition) {
      if (po != p) cut_.fetch_add(1, std::memory_order_relaxed);
      --pending_count_;
    } else {
      // Still half-placed: wait on the other endpoint now.
      parked_.emplace(other, v);
    }
  }
}

void CutTracker::Save(io::CheckpointWriter* w) const {
  std::vector<std::pair<graph::VertexId, graph::VertexId>> entries(
      parked_.begin(), parked_.end());
  // Hash-map order is run-dependent; sorted bytes keep equal states
  // producing equal checkpoints.
  std::sort(entries.begin(), entries.end());
  w->BeginSection("serve.cut");
  w->U64(cut_.load(std::memory_order_relaxed));
  w->U64(edges_seen_.load(std::memory_order_relaxed));
  w->U64(pending_count_);
  w->U64(entries.size());
  for (const auto& [waiting_on, other] : entries) {
    w->U32(waiting_on);
    w->U32(other);
  }
  w->EndSection();
}

void CutTracker::Restore(io::CheckpointReader* r) {
  if (!r->Has("serve.cut")) {
    r->Fail(
        "checkpoint has no 'serve.cut' section — it was written by a "
        "non-serve run (loom_partition); a served stream's cut state cannot "
        "be reconstructed, start the service from the stream's beginning "
        "instead");
  }
  r->Open("serve.cut");
  cut_.store(r->U64(), std::memory_order_relaxed);
  edges_seen_.store(r->U64(), std::memory_order_relaxed);
  pending_count_ = r->U64();
  const uint64_t n = r->U64();
  // Invariant maintained by AddEdge/Append: every pending edge is parked on
  // exactly one endpoint, so pending_count_ == parked_.size() at all times.
  // The counter travels separately in the file; trusting a desynced one
  // would mis-report the cut forever after resume.
  if (pending_count_ != n) {
    r->Fail("serve.cut: pending counter " + std::to_string(pending_count_) +
            " does not match the " + std::to_string(n) +
            " parked entries (corrupt or hand-edited checkpoint)");
  }
  parked_.clear();
  parked_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const graph::VertexId waiting_on = r->U32();
    const graph::VertexId other = r->U32();
    parked_.emplace(waiting_on, other);
  }
  r->Close();
}

}  // namespace serve
}  // namespace loom
