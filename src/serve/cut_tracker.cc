#include "serve/cut_tracker.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace loom {
namespace serve {

void CutTracker::AddEdges(std::span<const stream::StreamEdge> edges) {
  uint64_t cut = 0;
  for (const stream::StreamEdge& e : edges) {
    const graph::PartitionId pu = table_->Get(e.u);
    const graph::PartitionId pv = table_->Get(e.v);
    if (pu != graph::kNoPartition && pv != graph::kNoPartition) {
      if (pu != pv) ++cut;
      continue;
    }
    // Park on one unplaced endpoint; if the other is also unplaced the edge
    // re-parks there when this one resolves.
    if (pu == graph::kNoPartition) {
      Park(e.u, e.v);
    } else {
      Park(e.v, e.u);
    }
  }
  // Single writer: a load + store publishes without a locked RMW per edge.
  cut_.store(cut_.load(std::memory_order_relaxed) + cut,
             std::memory_order_relaxed);
  edges_seen_.store(edges_seen_.load(std::memory_order_relaxed) + edges.size(),
                    std::memory_order_relaxed);
}

void CutTracker::Append(graph::VertexId v, graph::PartitionId p) {
  const size_t c = v >> kChunkBits;
  if (c >= heads_.size() || heads_[c] == nullptr) return;
  uint32_t& head = heads_[c][v & (kChunkSlots - 1)];
  uint32_t i = head;
  // Detach v's list before walking it: a re-park links nodes onto other
  // vertices' lists and must never see this walk's remainder.
  head = kNil;
  uint64_t cut = 0;
  while (i != kNil) {
    Node& node = nodes_[i];
    const uint32_t next = node.next;
    const graph::PartitionId po = table_->Get(node.other);
    if (po != graph::kNoPartition) {
      if (po != p) ++cut;
      node.next = free_;
      free_ = i;
      --pending_count_;
    } else {
      // Still half-placed: wait on the other endpoint now. HeadSlot may
      // allocate a head chunk but never moves nodes_, so `node` stays valid.
      uint32_t& other_head = HeadSlot(node.other);
      node.other = v;
      node.next = other_head;
      other_head = i;
    }
    i = next;
  }
  if (cut > 0) {
    cut_.store(cut_.load(std::memory_order_relaxed) + cut,
               std::memory_order_relaxed);
  }
}

size_t CutTracker::memory_bytes() const {
  size_t bytes = nodes_.capacity() * sizeof(Node) +
                 heads_.capacity() * sizeof(heads_[0]);
  for (const auto& chunk : heads_) {
    if (chunk != nullptr) bytes += kChunkSlots * sizeof(uint32_t);
  }
  return bytes;
}

uint32_t& CutTracker::HeadSlot(graph::VertexId v) {
  const size_t c = v >> kChunkBits;
  if (c >= heads_.size()) heads_.resize(c + 1);
  std::unique_ptr<uint32_t[]>& chunk = heads_[c];
  if (chunk == nullptr) {
    chunk = std::make_unique_for_overwrite<uint32_t[]>(kChunkSlots);
    std::fill_n(chunk.get(), kChunkSlots, kNil);
  }
  return chunk[v & (kChunkSlots - 1)];
}

void CutTracker::Park(graph::VertexId waiting_on, graph::VertexId other) {
  uint32_t i = free_;
  if (i != kNil) {
    free_ = nodes_[i].next;
  } else {
    if (nodes_.size() >= kNil) {
      throw std::length_error("serve.cut: more than 2^32-1 parked edges");
    }
    i = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  uint32_t& head = HeadSlot(waiting_on);
  nodes_[i] = Node{other, head};
  head = i;
  ++pending_count_;
}

void CutTracker::Save(io::CheckpointWriter* w) const {
  std::vector<std::pair<graph::VertexId, graph::VertexId>> entries;
  entries.reserve(pending_count_);
  for (size_t c = 0; c < heads_.size(); ++c) {
    if (heads_[c] == nullptr) continue;
    for (size_t s = 0; s < kChunkSlots; ++s) {
      const auto waiting_on =
          static_cast<graph::VertexId>((c << kChunkBits) | s);
      for (uint32_t i = heads_[c][s]; i != kNil; i = nodes_[i].next) {
        entries.emplace_back(waiting_on, nodes_[i].other);
      }
    }
  }
  // List order depends on placement history; sorted bytes keep equal
  // parked multisets producing equal checkpoints.
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
  const uint64_t cut = r->U64();
  const uint64_t edges_seen = r->U64();
  const uint64_t pending = r->U64();
  const uint64_t n = r->U64();
  // Invariant maintained by AddEdges/Append: every pending edge is parked
  // on exactly one endpoint, so pending_count_ equals the parked entry
  // count at all times. The counter travels separately in the file;
  // trusting a desynced one would mis-report the cut forever after resume.
  if (pending != n) {
    r->Fail("serve.cut: pending counter " + std::to_string(pending) +
            " does not match the " + std::to_string(n) +
            " parked entries (corrupt or hand-edited checkpoint)");
  }
  // Each entry is two U32s: a count the section's bytes cannot hold is
  // forged, and is rejected before anything is sized by it.
  if (n > r->Remaining() / 8) {
    r->Fail("serve.cut: " + std::to_string(n) +
            " parked entries do not fit the section's " +
            std::to_string(r->Remaining()) + " remaining bytes");
  }
  heads_.clear();
  nodes_.clear();
  free_ = kNil;
  pending_count_ = 0;
  const uint64_t bound =
      vertex_bound_ > 0 ? vertex_bound_ : uint64_t{graph::kInvalidVertex};
  for (uint64_t i = 0; i < n; ++i) {
    const graph::VertexId waiting_on = r->U32();
    const graph::VertexId other = r->U32();
    // The same id bound INGEST enforces: an id past it would size a head
    // chunk no served edge can reach.
    if (waiting_on >= bound || other >= bound) {
      r->Fail("serve.cut: parked edge (" + std::to_string(waiting_on) + ", " +
              std::to_string(other) + ") names a vertex id at or past the " +
              "bound " + std::to_string(bound));
    }
    Park(waiting_on, other);
  }
  cut_.store(cut, std::memory_order_relaxed);
  edges_seen_.store(edges_seen, std::memory_order_relaxed);
  r->Close();
}

}  // namespace serve
}  // namespace loom
