#include "graph/adjacency_arena.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace loom {
namespace graph {

namespace {

/// Slab size: amortise allocations without holding large mostly-empty
/// slabs for tiny graphs. Pages are carved at mixed strides (geometric
/// chain growth), so the slab is tracked in bytes, not page counts.
constexpr size_t kTargetSlabBytes = 16 * 1024;

uint32_t ClampCapacity(uint64_t requested) {
  if (requested < 1) return 1;
  if (requested > AdjacencyArena::kMaxPageCapacity) {
    return AdjacencyArena::kMaxPageCapacity;
  }
  return static_cast<uint32_t>(requested);
}

/// Bytes a page of `capacity` slots occupies in the slab, header included,
/// rounded so the next page's header stays pointer-aligned.
size_t PageBytes(uint32_t capacity) {
  const size_t raw =
      sizeof(AdjacencyPage) + static_cast<size_t>(capacity) * sizeof(VertexId);
  return (raw + alignof(AdjacencyPage) - 1) & ~(alignof(AdjacencyPage) - 1);
}

}  // namespace

uint32_t AdjacencyArena::ResolvePageCapacity(uint32_t requested) {
  if (requested != 0) return ClampCapacity(requested);
  // Environment default, resolved once per process (same pattern as
  // LOOM_HUB_THRESHOLD): lets CI force tiny pages for every suite without
  // plumbing a knob through each test's construction path.
  static const uint32_t env_default = [] {
    const char* s = std::getenv("LOOM_ADJ_PAGE");
    if (s == nullptr || *s == '\0') return kDefaultPageCapacity;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || v < 1 || v > kMaxPageCapacity) {
      std::fprintf(stderr,
                   "loom: ignoring LOOM_ADJ_PAGE='%s' (want an integer in "
                   "[1, %u]); using %u\n",
                   s, kMaxPageCapacity, kDefaultPageCapacity);
      return kDefaultPageCapacity;
    }
    return static_cast<uint32_t>(v);
  }();
  return env_default;
}

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
  // Single-writer: the writer's own count load needs no ordering.
  const uint32_t n = c.count.load(std::memory_order_relaxed);
  if (c.tail == nullptr) {
    c.head = c.tail = NewPage(FirstCapacity());
    c.tail_used = 0;
  } else if (c.tail_used == c.tail->capacity) {
    AdjacencyPage* page = NewPage(NextCapacity(c.tail->capacity));
    c.tail->next = page;  // ordered by the release below
    c.tail = page;
    c.tail_used = 0;
  }
  c.tail->slots()[c.tail_used++] = w;
  // Publish: everything above becomes visible to readers that acquire the
  // new count.
  c.count.store(n + 1, std::memory_order_release);
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
  assert(c.count.load(std::memory_order_relaxed) == 0 &&
         "LoadChain into a non-empty chain");
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
  // Load runs single-threaded (restore happens before any reader exists).
  c.count.store(static_cast<uint32_t>(n), std::memory_order_relaxed);
  total_entries_ += n;
}

}  // namespace graph
}  // namespace loom
