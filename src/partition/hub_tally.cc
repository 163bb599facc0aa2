#include "partition/hub_tally.h"

namespace loom {
namespace partition {

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

}  // namespace partition
}  // namespace loom
