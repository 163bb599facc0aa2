#include "partition/hub_tally.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace loom {
namespace partition {

uint32_t HubTallyCache::ResolveThreshold(uint32_t requested) {
  if (requested != 0) return requested;
  // Per-process env default, parsed once (same pattern as LOOM_ADJ_PAGE):
  // LOOM_HUB_THRESHOLD=0 disables the cache entirely.
  static const uint32_t env_default = [] {
    const char* s = std::getenv("LOOM_HUB_THRESHOLD");
    if (s == nullptr || *s == '\0') return kDefaultThreshold;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0') {
      std::fprintf(stderr,
                   "loom: ignoring invalid LOOM_HUB_THRESHOLD='%s' "
                   "(want a non-negative integer; 0 disables)\n",
                   s);
      return kDefaultThreshold;
    }
    if (parsed == 0) return kDisabled;
    if (parsed >= kDisabled) return kDisabled;
    return static_cast<uint32_t>(parsed);
  }();
  return env_default;
}

void HubTallyCache::Clear() {
  hub_row_.clear();
  rows_.clear();
  num_hubs_ = 0;
}

void HubTallyCache::Materialize(graph::VertexId h, const graph::DynamicGraph& g,
                                const Partitioning& p) {
  if (h >= hub_row_.size()) hub_row_.resize(h + 1, kNoRow);
  const uint32_t row = static_cast<uint32_t>(num_hubs_++);
  hub_row_[h] = row;
  rows_.resize(static_cast<size_t>(num_hubs_) * k_, 0);
  uint32_t* counts = &rows_[static_cast<size_t>(row) * k_];
  // One full tally at crossing time; unassigned entries (kNoPartition >= k)
  // are skipped here and arrive later through OnAssign, so the row equals a
  // fresh tally at every subsequent stream position.
  p.TallyNeighbors(g.Neighbors(h), counts);
}

void HubTallyCache::Rebuild(const graph::DynamicGraph& g, size_t num_slots,
                            const Partitioning& p) {
  Clear();
  if (!enabled()) return;
  for (size_t v = 0; v < num_slots; ++v) {
    const graph::VertexId id = static_cast<graph::VertexId>(v);
    if (g.Degree(id) >= threshold_) Materialize(id, g, p);
  }
}

}  // namespace partition
}  // namespace loom
