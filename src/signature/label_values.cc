#include "signature/label_values.h"

#include <cassert>

#include "util/rng.h"

namespace loom {
namespace signature {

LabelValues::LabelValues(size_t num_labels, uint32_t p, uint64_t seed)
    : p_(p), rng_(seed ^ (static_cast<uint64_t>(p) << 32)) {
  assert(p >= 2);
  values_.reserve(num_labels);
  for (size_t i = 0; i < num_labels; ++i) {
    // r(l) uniform in [1, p).
    values_.push_back(static_cast<uint32_t>(1 + rng_.Uniform(p - 1)));
  }
}

void LabelValues::EnsureLabels(size_t num_labels) {
  if (num_labels <= values_.size()) return;
  const size_t target =
      (num_labels + kLabelChunk - 1) / kLabelChunk * kLabelChunk;
  values_.reserve(target);
  while (values_.size() < target) {
    values_.push_back(static_cast<uint32_t>(1 + rng_.Uniform(p_ - 1)));
  }
}

}  // namespace signature
}  // namespace loom
