#include "graph/adjacency_arena.h"

#include <limits>
#include <string>

namespace loom {
namespace graph {

namespace {

/// Slab size: amortise allocations without holding large mostly-empty
/// slabs for tiny graphs. Pages are carved at mixed strides (geometric
/// chain growth), so the slab is tracked in bytes, not page counts.
constexpr size_t kTargetSlabBytes = 16 * 1024;

/// Bytes a page of `capacity` slots occupies in the slab, header included,
/// rounded so the next page's header stays pointer-aligned.
size_t PageBytes(uint32_t capacity) {
  const size_t raw =
      sizeof(AdjacencyPage) + static_cast<size_t>(capacity) * sizeof(VertexId);
  return (raw + alignof(AdjacencyPage) - 1) & ~(alignof(AdjacencyPage) - 1);
}

}  // namespace

void AdjacencyArena::ReserveEntries(uint64_t expected_entries) {
  if (expected_entries == 0) return;
  // Slot bytes plus a header allowance: chains grow geometrically from
  // FirstCapacity(), so the worst case (every vertex low-degree) pays
  // roughly one header per FirstCapacity() entries.
  const uint64_t headers = expected_entries / FirstCapacity() + 1;
  const uint64_t bytes =
      expected_entries * sizeof(VertexId) +
      headers * (sizeof(AdjacencyPage) + alignof(AdjacencyPage));
  if (bytes <= slab_bytes_left_) return;
  // One big slab; whatever was left of the current slab is abandoned (the
  // same waste NewPage accepts when a page doesn't fit).
  slabs_.push_back(std::make_unique<std::byte[]>(bytes));
  slab_cursor_ = slabs_.back().get();
  slab_bytes_left_ = static_cast<size_t>(bytes);
}

AdjacencyPage* AdjacencyArena::NewPage(uint32_t capacity) {
  const size_t bytes = PageBytes(capacity);
  if (slab_bytes_left_ < bytes) {
    // A max-capacity page can exceed the target slab size; give it its own.
    const size_t slab = bytes > kTargetSlabBytes ? bytes : kTargetSlabBytes;
    slabs_.push_back(std::make_unique<std::byte[]>(slab));
    slab_cursor_ = slabs_.back().get();
    slab_bytes_left_ = slab;
  }
  std::byte* p = slab_cursor_;
  slab_cursor_ += bytes;
  slab_bytes_left_ -= bytes;
  AdjacencyPage* page = new (p) AdjacencyPage();
  page->capacity = capacity;
  return page;
}

void AdjacencyArena::Append(VertexId v, VertexId w) {
  assert(v < chains_.size() && "Append on an unreserved chain slot");
  Chain& c = chains_[v];
  assert((c.tail == nullptr || TailCapacity(c) == c.tail->capacity) &&
         "chain pages left the FirstCapacity/NextCapacity sequence");
  if (c.tail == nullptr) {
    c.head = c.tail = NewPage(FirstCapacity());
    c.tail_used = 0;
  } else if (c.tail_used == c.tail->capacity) {
    AdjacencyPage* page = NewPage(NextCapacity(c.tail->capacity));
    c.tail->next = page;
    c.tail = page;
    c.tail_used = 0;
  }
  c.tail->slots()[c.tail_used++] = w;
  ++c.count;
  ++total_entries_;
}

void AdjacencyArena::SaveChain(io::CheckpointWriter* w, VertexId v) const {
  const NeighborRange r = Neighbors(v);
  w->U64(r.size());
  r.ForEachChunk(
      [w](const VertexId* data, size_t n) { w->PodArray(data, n); });
}

void AdjacencyArena::LoadChain(io::CheckpointReader* r, VertexId v) {
  EnsureSlot(v);
  Chain& c = chains_[v];
  assert(c.count == 0 && "LoadChain into a non-empty chain");
  const uint64_t n = r->U64();
  if (n > std::numeric_limits<uint32_t>::max()) {
    r->Fail("adjacency chain length " + std::to_string(n) +
            " exceeds the 32-bit degree bound (corrupt chain count)");
  }
  uint64_t left = n;
  uint32_t capacity = FirstCapacity();
  while (left > 0) {
    const size_t take =
        left < capacity ? static_cast<size_t>(left) : static_cast<size_t>(capacity);
    AdjacencyPage* page = NewPage(capacity);
    if (c.head == nullptr) {
      c.head = c.tail = page;
    } else {
      c.tail->next = page;
      c.tail = page;
    }
    r->PodArray(page->slots(), take);
    left -= take;
    // A short final read leaves the tail partially filled; later Appends
    // continue from there.
    c.tail_used = static_cast<uint32_t>(take);
    capacity = NextCapacity(capacity);
  }
  c.count = static_cast<uint32_t>(n);
  total_entries_ += n;
}

}  // namespace graph
}  // namespace loom
