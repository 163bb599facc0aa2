// Chunk-stable paged adjacency storage.
//
// DynamicGraph's original layout — one std::vector<VertexId> per vertex —
// pays a small heap allocation per vertex and, worse, reallocates a
// vertex's neighbour array as it grows, so a reader holding a neighbour
// span cannot survive a later append. The arena replaces that layout with pages carved from large slabs and chained per
// vertex. Page capacities grow geometrically along a chain — first page
// kFirstPageCapacity entries, doubling up to the configured maximum — so
// the low-degree majority of vertices stays as cache-dense as the small
// vectors it replaced (a degree-3 vertex occupies one 32-byte page, not a
// maximum-size one) while hubs still converge to large contiguous spans
// for the neighbour tally:
//
//   chain(v):  [4 slots] -> [8 slots] -> ... -> [64] -> [64 tail]
//
// Chunk-stability is the load-bearing property: a page pointer, once
// published, is never reallocated or freed until the arena dies, so a
// reader can walk a chain lock-free while the single writer appends.
// Publication protocol (the only synchronisation in the structure):
//
//   writer:  write slot / link page (plain stores), then
//            count.store(n + 1, release)
//   reader:  n = count.load(acquire), then walk at most n entries
//
// The acquire/release pair on `count` orders every prior plain store
// (head, page links, page capacities, slot values) before the reader's
// plain loads, so the reader never touches a byte the writer might still
// be writing; entries beyond the acquired count — including a tail slot
// being filled right now — are simply outside the reader's range. One
// writer per arena; readers must not overlap chain-table *growth*
// (Reserve/EnsureSlot), the same contract the vector-of-vectors layout
// had. Pinned under TSan by tests/adjacency_arena_test.cc's
// writer-appends/reader-walks stress.
//
// Checkpoint layout per chain is U64 count + raw entries — byte-identical
// to the PodVec(std::vector) encoding the pre-arena DynamicGraph wrote, so
// old checkpoints load transparently and new files hash identically.

#ifndef LOOM_GRAPH_ADJACENCY_ARENA_H_
#define LOOM_GRAPH_ADJACENCY_ARENA_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "graph/types.h"
#include "io/checkpoint.h"

namespace loom {
namespace graph {

/// One link of a vertex's neighbour chain. The slot array lives
/// immediately after the header in the slab (the arena carves both with
/// one bump-pointer step). `next`, `capacity` and the slots are plain
/// fields on purpose: every write to them happens-before the release store
/// of the owning chain's count that makes them reachable, so readers that
/// bound their walk by an acquired count need no further atomics.
struct AdjacencyPage {
  AdjacencyPage* next = nullptr;
  uint32_t capacity = 0;

  VertexId* slots() { return reinterpret_cast<VertexId*>(this + 1); }
  const VertexId* slots() const {
    return reinterpret_cast<const VertexId*>(this + 1);
  }
};

/// A bounded view over a vertex's neighbours: either a page chain (the
/// arena's native form) or a flat array (empty ranges, tests). Value
/// semantics — copying is two pointers and a counter. The view stays
/// valid while the arena lives and the chain only grows, i.e. for as long
/// as the span it replaced would have.
///
/// Element iteration covers range-for consumers (Fennel, equal
/// opportunism's Bid); ForEachChunk hands each page's contiguous slot span
/// to loops that accumulate across chunks (Partitioning::TallyNeighbors).
class NeighborRange {
 public:
  NeighborRange() = default;

  static NeighborRange OfChain(const AdjacencyPage* head, size_t count) {
    NeighborRange r;
    r.head_ = head;
    r.count_ = count;
    return r;
  }

  static NeighborRange Flat(const VertexId* data, size_t count) {
    NeighborRange r;
    r.flat_ = data;
    r.count_ = count;
    return r;
  }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = VertexId;
    using difference_type = std::ptrdiff_t;
    using pointer = const VertexId*;
    using reference = const VertexId&;

    const_iterator() = default;

    reference operator*() const { return *cur_; }

    const_iterator& operator++() {
      ++cur_;
      --remaining_;
      if (cur_ == chunk_end_ && remaining_ > 0) {
        page_ = page_->next;
        cur_ = page_->slots();
        const size_t cap = page_->capacity;
        chunk_end_ = cur_ + (remaining_ < cap ? remaining_ : cap);
      }
      return *this;
    }

    const_iterator operator++(int) {
      const_iterator t = *this;
      ++*this;
      return t;
    }

    /// Iterators from the same range compare by how many entries remain —
    /// the only state that differs between a mid-walk iterator and end().
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.remaining_ == b.remaining_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.remaining_ != b.remaining_;
    }

   private:
    friend class NeighborRange;
    const AdjacencyPage* page_ = nullptr;
    const VertexId* cur_ = nullptr;
    const VertexId* chunk_end_ = nullptr;
    size_t remaining_ = 0;
  };

  const_iterator begin() const {
    const_iterator it;
    if (count_ == 0) return it;
    it.remaining_ = count_;
    if (head_ != nullptr) {
      const size_t cap = head_->capacity;
      it.page_ = head_;
      it.cur_ = head_->slots();
      it.chunk_end_ = it.cur_ + (count_ < cap ? count_ : cap);
    } else {
      it.cur_ = flat_;
      it.chunk_end_ = flat_ + count_;
    }
    return it;
  }

  const_iterator end() const { return {}; }

  /// Invokes fn(const VertexId* data, size_t n) once per contiguous chunk,
  /// in order, so hot loops (the neighbour tally, checkpoint writes) run
  /// over each page's contiguous slots instead of hopping per element.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    if (count_ == 0) return;
    if (head_ == nullptr) {
      fn(flat_, count_);
      return;
    }
    const AdjacencyPage* p = head_;
    size_t left = count_;
    while (true) {
      const size_t cap = p->capacity;
      const size_t n = left < cap ? left : cap;
      fn(p->slots(), n);
      left -= n;
      if (left == 0) return;
      p = p->next;
    }
  }

  /// Materialises the range (tests and diagnostics; O(n) with allocation —
  /// not for hot paths).
  std::vector<VertexId> ToVector() const {
    std::vector<VertexId> out;
    out.reserve(count_);
    for (const VertexId v : *this) out.push_back(v);
    return out;
  }

 private:
  const AdjacencyPage* head_ = nullptr;  // chain mode when non-null
  const VertexId* flat_ = nullptr;       // flat mode (or empty)
  size_t count_ = 0;
};

/// The arena: per-vertex page chains over slab storage, single writer,
/// lock-free bounded readers. The configured capacity is the MAXIMUM
/// entries per page (default 64; override with the LOOM_ADJ_PAGE
/// environment variable or an explicit constructor value — CI runs a
/// page=4 leg so chain-walking edge cases stay exercised). Chains start at
/// min(kFirstPageCapacity, max) and double per page up to the max, so the
/// layout stays dense for low-degree vertices without capping hub spans.
class AdjacencyArena {
 public:
  static constexpr uint32_t kDefaultPageCapacity = 64;
  static constexpr uint32_t kFirstPageCapacity = 4;
  static constexpr uint32_t kMaxPageCapacity = 65536;

  /// 0 → LOOM_ADJ_PAGE if set and valid, else kDefaultPageCapacity;
  /// anything else is clamped to [1, kMaxPageCapacity].
  static uint32_t ResolvePageCapacity(uint32_t requested);

  explicit AdjacencyArena(uint32_t page_capacity = 0)
      : cap_(ResolvePageCapacity(page_capacity)) {}

  AdjacencyArena(AdjacencyArena&&) = default;
  AdjacencyArena& operator=(AdjacencyArena&&) = default;
  AdjacencyArena(const AdjacencyArena&) = delete;
  AdjacencyArena& operator=(const AdjacencyArena&) = delete;

  uint32_t page_capacity() const { return cap_; }

  /// Grows the chain table to at least n slots. NOT safe under concurrent
  /// readers (the table may reallocate) — same contract as the
  /// vector-of-vectors layout this replaced.
  void Reserve(size_t n) {
    if (chains_.size() < n) chains_.resize(n);
  }

  void EnsureSlot(VertexId v) {
    if (v >= chains_.size()) chains_.resize(static_cast<size_t>(v) + 1);
  }

  /// Pre-carves slab storage for ~`expected_entries` adjacency entries
  /// (2m for an undirected graph of m edges), hoisting the slab
  /// allocations ROADMAP item 1 flags as a barrier point off the append
  /// hot path. Purely an allocation hint: page layout, neighbour order and
  /// the checkpoint encoding are identical with or without it, and
  /// underestimates simply fall back to on-demand slabs. Same
  /// writer-private contract as Reserve.
  void ReserveEntries(uint64_t expected_entries);

  size_t NumSlots() const { return chains_.size(); }

  /// Appends w to v's chain and publishes it (release). Single writer; v's
  /// slot must exist (EnsureSlot/Reserve).
  void Append(VertexId v, VertexId w);

  /// Published length of v's chain (acquire; 0 for out-of-range v).
  uint32_t Degree(VertexId v) const {
    if (v >= chains_.size()) return 0;
    return chains_[v].count.load(std::memory_order_acquire);
  }

  /// View over the published entries of v's chain.
  NeighborRange Neighbors(VertexId v) const {
    if (v >= chains_.size()) return {};
    const Chain& c = chains_[v];
    const uint32_t n = c.count.load(std::memory_order_acquire);
    if (n == 0) return {};
    return NeighborRange::OfChain(c.head, n);
  }

  /// Sum of all chain lengths (load-time validation, stats).
  uint64_t TotalEntries() const { return total_entries_; }

  /// Writes v's chain into the open section as U64 count + raw entries —
  /// byte-identical to CheckpointWriter::PodVec of the equivalent vector.
  void SaveChain(io::CheckpointWriter* w, VertexId v) const;

  /// Reads one SaveChain/PodVec-encoded chain into v (which must be
  /// empty), building pages directly.
  void LoadChain(io::CheckpointReader* r, VertexId v);

 private:
  struct Chain {
    AdjacencyPage* head = nullptr;
    AdjacencyPage* tail = nullptr;
    std::atomic<uint32_t> count{0};
    // Writer-private fill level of the tail page; readers derive chunk
    // bounds from the acquired count and per-page capacities instead.
    uint32_t tail_used = 0;

    Chain() = default;
    // Moves exist for chain-table growth and arena moves only — never
    // under concurrent readers (see Reserve).
    Chain(Chain&& o) noexcept
        : head(o.head),
          tail(o.tail),
          count(o.count.load(std::memory_order_relaxed)),
          tail_used(o.tail_used) {}
    Chain& operator=(Chain&& o) noexcept {
      head = o.head;
      tail = o.tail;
      count.store(o.count.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      tail_used = o.tail_used;
      return *this;
    }
    Chain(const Chain&) = delete;
    Chain& operator=(const Chain&) = delete;
  };

  /// First-page capacity under the configured maximum.
  uint32_t FirstCapacity() const {
    return cap_ < kFirstPageCapacity ? cap_ : kFirstPageCapacity;
  }

  /// Capacity of the page following one of capacity `prev` (doubling,
  /// saturating at the configured maximum).
  uint32_t NextCapacity(uint32_t prev) const {
    const uint32_t doubled = prev * 2;
    return doubled > cap_ ? cap_ : doubled;
  }

  AdjacencyPage* NewPage(uint32_t capacity);

  std::vector<Chain> chains_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::byte* slab_cursor_ = nullptr;
  size_t slab_bytes_left_ = 0;
  uint32_t cap_;
  uint64_t total_entries_ = 0;
};

}  // namespace graph
}  // namespace loom

#endif  // LOOM_GRAPH_ADJACENCY_ARENA_H_
