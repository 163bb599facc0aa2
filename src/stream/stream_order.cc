#include "stream/stream_order.h"

#include <numeric>

#include "graph/graph_algos.h"
#include "util/rng.h"

namespace loom {
namespace stream {

std::string ToString(StreamOrder order) {
  switch (order) {
    case StreamOrder::kBreadthFirst: return "bfs";
    case StreamOrder::kDepthFirst: return "dfs";
    case StreamOrder::kRandom: return "random";
    case StreamOrder::kCanonical: return "canonical";
  }
  return "?";
}

bool ParseStreamOrder(std::string_view name, StreamOrder* out) {
  if (name == "bfs") *out = StreamOrder::kBreadthFirst;
  else if (name == "dfs") *out = StreamOrder::kDepthFirst;
  else if (name == "random") *out = StreamOrder::kRandom;
  else if (name == "canonical") *out = StreamOrder::kCanonical;
  else return false;
  return true;
}

std::vector<graph::EdgeId> EdgeOrderFor(const graph::LabeledGraph& g,
                                        StreamOrder order, uint64_t seed) {
  switch (order) {
    case StreamOrder::kBreadthFirst:
      return graph::BfsEdgeOrder(g);
    case StreamOrder::kDepthFirst:
      return graph::DfsEdgeOrder(g);
    case StreamOrder::kRandom: {
      util::Rng rng(seed);
      return graph::RandomEdgeOrder(g, &rng);
    }
    case StreamOrder::kCanonical: {
      std::vector<graph::EdgeId> order_ids(g.NumEdges());
      std::iota(order_ids.begin(), order_ids.end(), 0);
      return order_ids;
    }
  }
  return {};
}

}  // namespace stream
}  // namespace loom
