// Random label values r(l) in [1, p) for the number-theoretic signatures of
// Sec. 2.1. One instance is shared by the TPSTry++ builder and the stream
// matcher so that factors computed in either place agree.

#ifndef LOOM_SIGNATURE_LABEL_VALUES_H_
#define LOOM_SIGNATURE_LABEL_VALUES_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/rng.h"

namespace loom {
namespace signature {

/// Default finite-field prime. The paper selects 251 ("when identifying and
/// matching motifs, we use a p value of 251") via the Fig. 4 analysis.
inline constexpr uint32_t kDefaultPrime = 251;

/// Assigns each label a pseudo-random value r(l) in [1, p). Deterministic
/// given (num_labels, p, seed) — and, because the generator is retained and
/// values are drawn sequentially by index, r(l) is the same whether label l
/// existed at construction or arrived later through EnsureLabels: an open
/// alphabet never perturbs the values of earlier labels.
class LabelValues {
 public:
  /// Requires p >= 2, the `prime` option's domain (p = 2 leaves a single
  /// value, so every label gets r(l) = 1: legal, but signatures then tell
  /// labels apart by degree only).
  LabelValues(size_t num_labels, uint32_t p, uint64_t seed = 0xC0FFEE);

  uint32_t prime() const { return p_; }
  size_t num_labels() const { return values_.size(); }

  /// r(l) for label l. Requires l < num_labels.
  uint32_t Value(graph::LabelId l) const { return values_[l]; }

  /// Grows the table to cover at least `num_labels` labels (no-op when it
  /// already does). Growth is chunked — the table extends to a multiple of
  /// kLabelChunk — so an open-alphabet stream that reveals labels one at a
  /// time pays one extension per chunk, not per label.
  void EnsureLabels(size_t num_labels);

  static constexpr size_t kLabelChunk = 16;

 private:
  uint32_t p_;
  util::Rng rng_;  // retained: value i is always the i-th draw
  std::vector<uint32_t> values_;
};

}  // namespace signature
}  // namespace loom

#endif  // LOOM_SIGNATURE_LABEL_VALUES_H_
