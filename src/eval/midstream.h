// Mid-stream evaluation with Ptemp as an extra partition (Sec. 3 / 5.3).
//
// The paper notes that the sliding window is itself a temporary partition:
// edges buffered in Ptemp are queryable before permanent placement, and a
// window that is too large becomes its own source of inter-partition
// traversals. The end-of-stream measurements of Figs. 7-9 cannot see this
// cost; this harness can. At evenly spaced checkpoints it materialises the
// streamed-so-far prefix graph, views still-unassigned vertices as living in
// the extra partition k (= Ptemp), executes the workload, and reports the
// ipt — so the window-size trade-off of Sec. 5.3's closing paragraph is
// measurable.

#ifndef LOOM_EVAL_MIDSTREAM_H_
#define LOOM_EVAL_MIDSTREAM_H_

#include <vector>

#include "datasets/schema.h"
#include "engine/engine.h"
#include "query/query_executor.h"

namespace loom {
namespace eval {

struct MidstreamConfig {
  /// Number of evenly spaced evaluation points over the stream.
  size_t num_checkpoints = 4;
  query::ExecutorConfig executor{.max_seeds = 1000,
                                 .max_matches_per_seed = 128};
};

struct CheckpointResult {
  size_t edges_streamed = 0;
  /// Workload-weighted ipt over the prefix graph, with unassigned vertices
  /// charged to the Ptemp partition.
  double weighted_ipt = 0.0;
  /// Fraction of touched vertices still resident in Ptemp.
  double ptemp_share = 0.0;
};

struct MidstreamResult {
  std::vector<CheckpointResult> checkpoints;
  /// Mean weighted ipt over the checkpoints — the headline number the
  /// window-size ablation compares.
  double mean_weighted_ipt = 0.0;
};

/// Streams `ds.graph` in `order` (a permutation of its edge ids, e.g.
/// stream::EdgeOrderFor) through a fresh "loom" engine::Session configured
/// by `options` (IngestSome to each checkpoint — never finalizing, so Ptemp
/// stays populated), evaluating at checkpoints. `ds` supplies labels and
/// the workload. An empty `order` yields no checkpoints.
MidstreamResult RunLoomMidstream(const datasets::Dataset& ds,
                                 const std::vector<graph::EdgeId>& order,
                                 const engine::EngineOptions& options,
                                 const MidstreamConfig& config = {});

}  // namespace eval
}  // namespace loom

#endif  // LOOM_EVAL_MIDSTREAM_H_
