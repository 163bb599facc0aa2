// Computes signature factors for graphs and for incremental edge additions
// (Sec. 2.1). All arithmetic is in the finite field [1, p]: a residue of 0 is
// replaced by p ("we don't consider 0 a valid factor").
//
// Undirected edge factors subtract the two endpoint values in a consistent
// order (the paper suggests lexicographical; we use LabelId order, which is
// lexicographic when a schema registers labels alphabetically and is
// consistent regardless). For a directed extension, subtract target from
// source instead — only this function changes.

#ifndef LOOM_SIGNATURE_SIGNATURE_CALCULATOR_H_
#define LOOM_SIGNATURE_SIGNATURE_CALCULATOR_H_

#include <span>

#include "graph/pattern_graph.h"
#include "graph/types.h"
#include "signature/label_values.h"
#include "signature/signature.h"
#include "stream/stream_edge.h"

namespace loom {
namespace signature {

/// Stateless (beyond the shared LabelValues) factor computations.
class SignatureCalculator {
 public:
  /// `values` must outlive the calculator.
  explicit SignatureCalculator(const LabelValues* values) : values_(values) {}

  uint32_t prime() const { return values_->prime(); }

  /// Size of the label space the shared LabelValues covers.
  size_t num_labels() const { return values_->num_labels(); }

  /// Edge factor for an edge between labels a and b:
  /// (r(min(a,b)) - r(max(a,b))) mod p, zero mapped to p.
  Factor EdgeFactor(graph::LabelId a, graph::LabelId b) const;

  /// Directed variant (the paper's inline extension, Sec. 2.1: "the random
  /// value for the target vertex's label is subtracted from the random value
  /// for the source vertex's label"). The rest of the machinery is direction
  /// agnostic; a directed deployment swaps this in for EdgeFactor.
  Factor DirectedEdgeFactor(graph::LabelId source, graph::LabelId target) const;

  /// The factor a vertex of label l contributes when its degree reaches
  /// `degree` (the paper's (r(l) + degree) mod p term), zero mapped to p.
  Factor DegreeFactor(graph::LabelId l, uint32_t degree) const;

  /// Factors contributed by adding one edge whose endpoints reach degrees
  /// `new_deg_u` / `new_deg_v` inside the grown sub-graph: exactly
  /// {EdgeFactor, DegreeFactor(u), DegreeFactor(v)}.
  FactorDelta FactorsForEdgeAddition(graph::LabelId lu, uint32_t new_deg_u,
                                     graph::LabelId lv, uint32_t new_deg_v) const;

  /// Allocation-free variant for the matcher's hot path: clears and refills
  /// `out` (which keeps its capacity across calls).
  void FactorsForEdgeAddition(graph::LabelId lu, uint32_t new_deg_u,
                              graph::LabelId lv, uint32_t new_deg_v,
                              FactorDelta* out) const;

  /// Full signature of a pattern graph: one edge factor per edge plus degree
  /// factors 1..deg(v) per vertex (3|E| factors total).
  Signature ComputeSignature(const graph::PatternGraph& g) const;

  /// Full signature of a sub-graph given as a set of stream edges (degrees
  /// are computed within the set). Used by tests to cross-check the
  /// incremental factor bookkeeping of the motif matcher.
  Signature ComputeSignature(std::span<const stream::StreamEdge> edges) const;

  /// Signature of a single labelled edge (degree 1 on both endpoints).
  Signature SingleEdgeSignature(graph::LabelId a, graph::LabelId b) const;

 private:
  /// Appends DegreeFactor(l, 1..degree) to `out`.
  void AppendDegreeRun(graph::LabelId l, uint32_t degree,
                       std::vector<Factor>* out) const;

  const LabelValues* values_;
};

}  // namespace signature
}  // namespace loom

#endif  // LOOM_SIGNATURE_SIGNATURE_CALCULATOR_H_
