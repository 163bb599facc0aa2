#include "motif/match_pool.h"

#include <string>

namespace loom {
namespace motif {

MatchHandle MatchPool::Allocate() {
  uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    ++reused_;
  } else {
    idx = next_index_++;
    assert(idx <= kMatchIndexMask && "match pool exhausted");
    if ((idx >> kChunkBits) >= chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    ++fresh_;
  }
  Slot& s = slot(idx);
  s.live = true;
  s.match.Reset();
  ++live_;
  return (s.generation << kMatchIndexBits) | idx;
}

void MatchPool::SaveTo(io::CheckpointWriter* w) const {
  w->U32(next_index_);
  w->U64(fresh_);
  w->U64(reused_);
  w->PodVec(free_);
  for (uint32_t idx = 0; idx < next_index_; ++idx) {
    const Slot& s = slot(idx);
    w->U32(s.generation);
    w->U8(s.live ? 1 : 0);
    if (s.live) {
      // Only live slots carry content: a recycled slot's Match is Reset on
      // the next Allocate, so its old payload is unobservable.
      w->PodVec(s.match.edges);
      w->PodVec(s.match.vertices);
      w->PodVec(s.match.degrees);
      w->U32(s.match.node_id);
    }
  }
}

void MatchPool::LoadFrom(io::CheckpointReader* r) {
  assert(next_index_ == 0 && free_.empty() && "restore into a fresh pool");
  const uint32_t next_index = r->U32();
  fresh_ = r->U64();
  reused_ = r->U64();
  r->PodVec(&free_);
  // Each slot takes at least 5 bytes (generation + live flag): bound the
  // slot count by the handle space and by what the section still holds
  // before allocating any chunk.
  if (next_index > kMatchIndexMask + 1 || next_index > r->Remaining() / 5) {
    r->Fail("corrupt match pool: " + std::to_string(next_index) +
            " slots in a section with " + std::to_string(r->Remaining()) +
            " bytes left");
  }
  next_index_ = next_index;
  const size_t chunks = (next_index_ + kChunkSize - 1) >> kChunkBits;
  for (size_t c = 0; c < chunks; ++c) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  live_ = 0;
  for (uint32_t idx = 0; idx < next_index_; ++idx) {
    Slot& s = slot(idx);
    s.generation = r->U32();
    s.live = r->U8() != 0;
    if (s.live) {
      if (s.generation >= kMatchGenerationLimit) {
        r->Fail("corrupt match pool: live slot " + std::to_string(idx) +
                " has generation " + std::to_string(s.generation));
      }
      r->PodVec(&s.match.edges);
      r->PodVec(&s.match.vertices);
      r->PodVec(&s.match.degrees);
      s.match.node_id = r->U32();
      ++live_;
    }
  }
  // Allocate hands out free slots as they are: each must be in range, not
  // live, not retired and listed once.
  std::vector<bool> listed(next_index_, false);
  for (uint32_t idx : free_) {
    if (idx >= next_index_ || slot(idx).live ||
        slot(idx).generation >= kMatchGenerationLimit || listed[idx]) {
      r->Fail("corrupt match pool: free-list entry " + std::to_string(idx) +
              " is out of range, live, retired or repeated");
    }
    listed[idx] = true;
  }
}

void MatchPool::Release(MatchHandle h) {
  assert(IsLive(h));
  const uint32_t idx = MatchIndexOf(h);
  Slot& s = slot(idx);
  s.live = false;
  --live_;
  // Bump the generation so retained copies of `h` read as stale. A slot that
  // exhausts its generation space is retired instead of recycled (ABA-proof;
  // needs 1024 reuses of one slot to ever happen).
  if (++s.generation < kMatchGenerationLimit) free_.push_back(idx);
}

}  // namespace motif
}  // namespace loom
