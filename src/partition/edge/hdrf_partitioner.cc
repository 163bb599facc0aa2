#include "partition/edge/hdrf_partitioner.h"

#include <cmath>
#include <stdexcept>

namespace loom {
namespace partition {
namespace edge {

HdrfPartitioner::HdrfPartitioner(const engine::EngineOptions& options)
    : EdgePartitioner(options),
      lambda_(options.lambda),
      epsilon_(options.epsilon) {
  // NaN fails every ordered comparison, so "lambda_ < 0.0" alone would let
  // hdrf:lambda=nan through — every score would be NaN, "score > best"
  // would never fire and all edges would silently land in partition 0.
  // Reject non-finite values explicitly.
  if (!std::isfinite(lambda_) || lambda_ < 0.0) {
    throw std::invalid_argument("hdrf: lambda must be finite and >= 0");
  }
  if (!std::isfinite(epsilon_) || epsilon_ <= 0.0) {
    throw std::invalid_argument("hdrf: epsilon must be finite and > 0");
  }
}

graph::PartitionId HdrfPartitioner::PlaceEdge(const stream::StreamEdge& e) {
  return HdrfGreedyPick(e, lambda_, epsilon_);
}

}  // namespace edge
}  // namespace partition
}  // namespace loom
