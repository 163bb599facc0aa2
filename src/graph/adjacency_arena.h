// Paged adjacency storage.
//
// DynamicGraph's original layout — one std::vector<VertexId> per vertex —
// pays a small heap allocation per vertex and copies a vertex's neighbour
// array every time it outgrows its capacity. The arena replaces that layout
// with pages carved from large slabs and chained per vertex. Page
// capacities grow geometrically along a chain — first page
// kFirstPageCapacity entries, doubling up to the configured maximum — so
// the low-degree majority of vertices stays as cache-dense as the small
// vectors it replaced (a degree-3 vertex occupies one 32-byte page, not a
// maximum-size one) while hubs still converge to large contiguous spans
// for the neighbour tally:
//
//   chain(v):  [4 slots] -> [8 slots] -> ... -> [64] -> [64 tail]
//
// One thread appends and reads: the streaming partitioners read the
// streamed-so-far adjacency on the thread that ingests it. Pages are never
// moved or freed until the arena dies, so a NeighborRange taken earlier
// keeps seeing its entries while the chain grows.
//
// Checkpoint layout per chain is U64 count + raw entries — byte-identical
// to the PodVec(std::vector) encoding the pre-arena DynamicGraph wrote, so
// old checkpoints load transparently and new files hash identically.

#ifndef LOOM_GRAPH_ADJACENCY_ARENA_H_
#define LOOM_GRAPH_ADJACENCY_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "graph/types.h"
#include "io/checkpoint.h"
#include "util/prefetch.h"

namespace loom {
namespace graph {

/// One link of a vertex's neighbour chain. The slot array lives
/// immediately after the header in the slab (the arena carves both with
/// one bump-pointer step).
struct AdjacencyPage {
  AdjacencyPage* next = nullptr;
  uint32_t capacity = 0;

  VertexId* slots() { return reinterpret_cast<VertexId*>(this + 1); }
  const VertexId* slots() const {
    return reinterpret_cast<const VertexId*>(this + 1);
  }
};

/// A bounded view over the first `size()` entries of a vertex's page
/// chain. Value semantics — copying is a pointer and a counter. The view
/// stays valid while the arena lives.
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
    const size_t cap = head_->capacity;
    it.page_ = head_;
    it.cur_ = head_->slots();
    it.chunk_end_ = it.cur_ + (count_ < cap ? count_ : cap);
    return it;
  }

  const_iterator end() const { return {}; }

  /// Invokes fn(const VertexId* data, size_t n) once per contiguous chunk,
  /// in order, so hot loops (the neighbour tally, checkpoint writes) run
  /// over each page's contiguous slots instead of hopping per element.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    if (count_ == 0) return;
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
  const AdjacencyPage* head_ = nullptr;  // non-null whenever count_ > 0
  size_t count_ = 0;
};

/// The arena: per-vertex page chains over slab storage. The configured
/// capacity is the MAXIMUM entries per page (kDefaultPageCapacity unless a
/// caller passes another value; tests pass tiny ones to force chain hops).
/// Chains start at min(kFirstPageCapacity, max) and double per page up to
/// the max, so the layout stays dense for low-degree vertices without
/// capping hub spans.
class AdjacencyArena {
 public:
  static constexpr uint32_t kDefaultPageCapacity = 64;
  static constexpr uint32_t kFirstPageCapacity = 4;

  /// `page_capacity` 0 means kDefaultPageCapacity.
  explicit AdjacencyArena(uint32_t page_capacity = 0)
      : cap_(page_capacity == 0 ? kDefaultPageCapacity : page_capacity) {}

  AdjacencyArena(AdjacencyArena&&) = default;
  AdjacencyArena& operator=(AdjacencyArena&&) = default;
  AdjacencyArena(const AdjacencyArena&) = delete;
  AdjacencyArena& operator=(const AdjacencyArena&) = delete;

  /// Grows the chain table to at least n slots.
  void Reserve(size_t n) {
    if (chains_.size() < n) chains_.resize(n);
  }

  void EnsureSlot(VertexId v) {
    if (v >= chains_.size()) chains_.resize(static_cast<size_t>(v) + 1);
  }

  /// Pre-carves slab storage for ~`expected_entries` adjacency entries
  /// (2m for an undirected graph of m edges), hoisting slab allocations
  /// off the append hot path. Purely an allocation hint: page layout, neighbour order and
  /// the checkpoint encoding are identical with or without it, and
  /// underestimates simply fall back to on-demand slabs.
  void ReserveEntries(uint64_t expected_entries);

  size_t NumSlots() const { return chains_.size(); }

  /// Appends w to v's chain; v's slot must exist (EnsureSlot/Reserve).
  void Append(VertexId v, VertexId w);

  /// Length of v's chain (0 for out-of-range v).
  uint32_t Degree(VertexId v) const {
    if (v >= chains_.size()) return 0;
    return chains_[v].count;
  }

  /// View over the current entries of v's chain.
  NeighborRange Neighbors(VertexId v) const {
    if (v >= chains_.size()) return {};
    const Chain& c = chains_[v];
    if (c.count == 0) return {};
    return NeighborRange::OfChain(c.head, c.count);
  }

  /// Look-ahead hint: prefetches v's chain entry. A no-op for v beyond
  /// the table, which it never grows.
  void PrefetchChain(VertexId v) const {
    if (v < chains_.size()) util::PrefetchRead(&chains_[v]);
  }

  /// Look-ahead hint for an Append to v, issued once PrefetchChain(v) has
  /// had time to land: reads v's chain entry and prefetches the tail
  /// page's next write slot, or only the page header (which Append reads,
  /// and whose `next` it writes) when the tail page is full. A no-op for
  /// v beyond the table or without entries. Reads no page memory.
  void PrefetchAppend(VertexId v) const {
    if (v >= chains_.size()) return;
    const Chain& c = chains_[v];
    if (c.tail == nullptr) return;
    util::PrefetchWrite(c.tail);
    if (c.tail_used < TailCapacity(c)) {
      util::PrefetchWrite(c.tail->slots() + c.tail_used);
    }
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
    uint32_t count = 0;
    uint32_t tail_used = 0;  // fill level of the tail page
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

  /// Capacity of c's tail page from c's counters alone: every chain's
  /// pages follow FirstCapacity/NextCapacity, so the entries held by the
  /// full pages before the tail fix which page the tail is.
  uint32_t TailCapacity(const Chain& c) const {
    uint32_t before = c.count - c.tail_used;
    uint32_t cap = FirstCapacity();
    while (cap < cap_ && before >= cap) {
      before -= cap;
      cap = NextCapacity(cap);
    }
    return cap;
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
