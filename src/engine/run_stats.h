// What a backend reports about a run besides its placements: a few live
// progress gauges and a flat list of deterministic end-of-run counters.
// engine::Session reads both (Partitioner::FillProgress/FillFinalStats)
// when it builds a RunReport; loom_serve reads the progress gauges for
// STATS.
//
// This header deliberately depends only on standard headers so every
// layer (partition, core, eval) can include it without cycles.

#ifndef LOOM_ENGINE_RUN_STATS_H_
#define LOOM_ENGINE_RUN_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace loom {
namespace engine {

/// A backend's live ingest gauges (Partitioner::FillProgress). Baselines
/// buffer nothing and keep the zeros.
struct ProgressEvent {
  /// Edges that failed the admission test and bypassed the window, over
  /// the backend's lifetime (resumed edges included).
  uint64_t edges_bypassed = 0;
  /// Current window population (Loom's |Ptemp|).
  uint64_t window_population = 0;
};

/// A backend's deterministic end-of-run counters (name -> value, in a
/// backend-chosen stable order; Partitioner::FillFinalStats). Only values
/// that are identical across reruns on fixed seeds belong here, because
/// benches diff them. Empty for backends with nothing to report
/// (hash/ldg/fennel).
using StatCounters = std::vector<std::pair<std::string, uint64_t>>;

/// The named counter, or `fallback` when absent. The one lookup shared by
/// RunReport::Stat and eval's SystemResult.
inline uint64_t FindCounter(const StatCounters& counters,
                            std::string_view name, uint64_t fallback = 0) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return fallback;
}

}  // namespace engine
}  // namespace loom

#endif  // LOOM_ENGINE_RUN_STATS_H_
