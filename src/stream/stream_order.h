// Stream ordering policies used throughout the evaluation (Sec. 5.1):
// breadth-first, depth-first and random permutations of a graph's edges.

#ifndef LOOM_STREAM_STREAM_ORDER_H_
#define LOOM_STREAM_STREAM_ORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/labeled_graph.h"

namespace loom {
namespace stream {

/// The three arrival orders from the paper's evaluation, plus the
/// canonical (builder edge-id) order — the order file exports and the lazy
/// generator sources stream in, since it needs no adjacency to compute.
enum class StreamOrder {
  kBreadthFirst,
  kDepthFirst,
  kRandom,
  kCanonical,
};

/// Name for reports ("bfs" / "dfs" / "random" / "canonical").
std::string ToString(StreamOrder order);

/// Parses the ToString names; false on anything else.
bool ParseStreamOrder(std::string_view name, StreamOrder* out);

/// Seed of the kRandom order wherever a caller gives none: every tool,
/// bench, experiment and test default streams this one permutation.
inline constexpr uint64_t kDefaultStreamSeed = 0x10c5;

/// The arrival permutation of g's edge ids under `order`. `seed` only
/// matters for kRandom; BFS/DFS orders are fully determined by the graph.
/// Single source of the order -> permutation mapping: engine::MakeEdgeSource
/// and every caller that replays a graph by hand go through it.
std::vector<graph::EdgeId> EdgeOrderFor(const graph::LabeledGraph& g,
                                        StreamOrder order,
                                        uint64_t seed = kDefaultStreamSeed);

}  // namespace stream
}  // namespace loom

#endif  // LOOM_STREAM_STREAM_ORDER_H_
