// Slab allocator for Match records (Sec. 3's matchList entries).
//
// Matches are born and die at stream rate, and the old
// std::shared_ptr<Match> representation paid a control-block allocation plus
// atomic refcounts for each — and 16 bytes per posting-list entry. A
// MatchHandle is instead a 32-bit generational id: the low bits index a slot
// in a chunked slab (chunks are never moved, so Match& references stay valid
// across allocations), the high bits carry the slot's generation. Releasing
// a slot bumps its generation, so any handle retained by a posting list after
// its match died dereferences to "stale" instead of to a recycled stranger.
// Recycled slots keep their Match's vector capacity — steady-state match
// construction allocates nothing.

#ifndef LOOM_MOTIF_MATCH_POOL_H_
#define LOOM_MOTIF_MATCH_POOL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "io/checkpoint.h"
#include "motif/match.h"

namespace loom {
namespace motif {

/// Generational handle to a pooled Match. 22 index bits (4.2M simultaneously
/// live matches, orders of magnitude above any window's population) and 10
/// generation bits.
using MatchHandle = uint32_t;

inline constexpr uint32_t kMatchIndexBits = 22;
inline constexpr uint32_t kMatchIndexMask = (1u << kMatchIndexBits) - 1;
inline constexpr uint32_t kMatchGenerationLimit = 1u << (32 - kMatchIndexBits);
inline constexpr MatchHandle kNullMatch = ~MatchHandle{0};

inline uint32_t MatchIndexOf(MatchHandle h) { return h & kMatchIndexMask; }
inline uint32_t MatchGenerationOf(MatchHandle h) { return h >> kMatchIndexBits; }

class MatchPool {
 public:
  MatchPool() = default;

  /// Hands out a handle to a cleared Match record (vectors empty but with
  /// whatever capacity the slot's previous tenant grew).
  MatchHandle Allocate();

  /// Recycles the slot behind `h` and invalidates every copy of `h`.
  void Release(MatchHandle h);

  /// True if `h` refers to a currently-allocated match (stale handles from
  /// previous generations of the slot return false).
  bool IsLive(MatchHandle h) const {
    const uint32_t idx = MatchIndexOf(h);
    if (idx >= next_index_) return false;
    const Slot& s = slot(idx);
    return s.live && s.generation == MatchGenerationOf(h);
  }

  /// Dereferences a live handle. References stay valid until Release (slabs
  /// never move).
  Match& Get(MatchHandle h) {
    assert(IsLive(h));
    return slot(MatchIndexOf(h)).match;
  }
  const Match& Get(MatchHandle h) const {
    assert(IsLive(h));
    return slot(MatchIndexOf(h)).match;
  }

  /// Dereference tolerating staleness: nullptr when `h` is not live.
  const Match* Find(MatchHandle h) const {
    return IsLive(h) ? &slot(MatchIndexOf(h)).match : nullptr;
  }

  size_t NumLive() const { return live_; }

  /// Slots created from scratch (each cost one Match construction).
  uint64_t fresh_allocations() const { return fresh_; }

  /// Allocations served by recycling a released slot — each one is a
  /// shared_ptr-era heap allocation avoided.
  uint64_t reused_allocations() const { return reused_; }

  /// Applies `fn(MatchHandle, const Match&)` to every live match, ascending
  /// slot index.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (uint32_t idx = 0; idx < next_index_; ++idx) {
      const Slot& s = slot(idx);
      if (s.live) fn((s.generation << kMatchIndexBits) | idx, s.match);
    }
  }

  /// Appends the pool verbatim to the writer's open section. The free-list
  /// order and per-slot generations are preserved exactly: future Allocate
  /// calls must hand out the same handles (and fresh/reused counters) the
  /// uninterrupted run would have, or final stats drift.
  void SaveTo(io::CheckpointWriter* w) const;

  /// Restores a SaveTo snapshot; requires a fresh pool. The live count is
  /// recounted from the slots. Rejects (via the reader's Fail) a slot count
  /// beyond the handle space or the section's bytes, checked before any
  /// chunk is allocated, and free-list entries that are out of range, live,
  /// retired or repeated.
  void LoadFrom(io::CheckpointReader* r);

 private:
  struct Slot {
    Match match;
    uint32_t generation = 0;
    bool live = false;
  };

  static constexpr size_t kChunkBits = 9;  // 512 slots per slab
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;

  Slot& slot(uint32_t idx) {
    return chunks_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }
  const Slot& slot(uint32_t idx) const {
    return chunks_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_;  // recycled slot indices
  uint32_t next_index_ = 0;
  size_t live_ = 0;
  uint64_t fresh_ = 0;
  uint64_t reused_ = 0;
};

}  // namespace motif
}  // namespace loom

#endif  // LOOM_MOTIF_MATCH_POOL_H_
