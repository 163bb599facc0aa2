#include "signature/signature_calculator.h"

#include <algorithm>
#include <unordered_map>

namespace loom {
namespace signature {

namespace {
// Residue in [1, p]: the paper replaces 0 with p so factors are never zero.
inline Factor NonZeroMod(int64_t x, uint32_t p) {
  int64_t r = x % static_cast<int64_t>(p);
  if (r < 0) r += p;
  return r == 0 ? p : static_cast<Factor>(r);
}

/// NonZeroMod(r + degree, p) for r < p without 64-bit division in the
/// common case (in-match degrees are tiny, so one conditional subtract
/// lands the residue); the % fallback keeps it exact for any uint32 degree.
inline Factor DegreeResidue(uint32_t r, uint32_t degree, uint32_t p) {
  const uint64_t t = static_cast<uint64_t>(r) + degree;
  const uint32_t m = t < 2 * static_cast<uint64_t>(p)
                         ? static_cast<uint32_t>(t >= p ? t - p : t)
                         : static_cast<uint32_t>(t % p);
  return m == 0 ? p : m;
}
}  // namespace

Factor SignatureCalculator::EdgeFactor(graph::LabelId a, graph::LabelId b) const {
  if (a > b) std::swap(a, b);  // consistent subtraction order
  int64_t diff = static_cast<int64_t>(values_->Value(a)) -
                 static_cast<int64_t>(values_->Value(b));
  return NonZeroMod(diff, values_->prime());
}

Factor SignatureCalculator::DirectedEdgeFactor(graph::LabelId source,
                                               graph::LabelId target) const {
  int64_t diff = static_cast<int64_t>(values_->Value(source)) -
                 static_cast<int64_t>(values_->Value(target));
  return NonZeroMod(diff, values_->prime());
}

Factor SignatureCalculator::DegreeFactor(graph::LabelId l, uint32_t degree) const {
  return NonZeroMod(static_cast<int64_t>(values_->Value(l)) + degree,
                    values_->prime());
}

FactorDelta SignatureCalculator::FactorsForEdgeAddition(
    graph::LabelId lu, uint32_t new_deg_u, graph::LabelId lv,
    uint32_t new_deg_v) const {
  FactorDelta out;
  FactorsForEdgeAddition(lu, new_deg_u, lv, new_deg_v, &out);
  return out;
}

void SignatureCalculator::FactorsForEdgeAddition(graph::LabelId lu,
                                                 uint32_t new_deg_u,
                                                 graph::LabelId lv,
                                                 uint32_t new_deg_v,
                                                 FactorDelta* out) const {
  // The same residues as {EdgeFactor, DegreeFactor(u), DegreeFactor(v)},
  // computed without 64-bit division: this runs ~3M times/s on the matcher
  // hot path, where the `%` form measured ~10% slower end to end.
  const graph::LabelId a = lu <= lv ? lu : lv;
  const graph::LabelId b = lu <= lv ? lv : lu;
  const uint32_t p = values_->prime();
  out->resize(3);
  // r(a), r(b) < p: one wrap (64-bit sum, since p may be any uint32).
  const uint64_t t0 =
      static_cast<uint64_t>(values_->Value(a)) + p - values_->Value(b);
  const uint32_t r0 = static_cast<uint32_t>(t0 >= p ? t0 - p : t0);
  (*out)[0] = r0 == 0 ? p : r0;
  (*out)[1] = DegreeResidue(values_->Value(lu), new_deg_u, p);
  (*out)[2] = DegreeResidue(values_->Value(lv), new_deg_v, p);
}

Signature SignatureCalculator::ComputeSignature(
    const graph::PatternGraph& g) const {
  std::vector<Factor> factors;
  factors.reserve(3 * g.NumEdges());
  for (const graph::Edge& e : g.edges()) {
    factors.push_back(EdgeFactor(g.label(e.u), g.label(e.v)));
  }
  for (graph::VertexId v = 0; v < g.NumVertices(); ++v) {
    AppendDegreeRun(g.label(v), static_cast<uint32_t>(g.Degree(v)), &factors);
  }
  return Signature(std::move(factors));
}

void SignatureCalculator::AppendDegreeRun(graph::LabelId l, uint32_t degree,
                                          std::vector<Factor>* out) const {
  for (uint32_t i = 1; i <= degree; ++i) out->push_back(DegreeFactor(l, i));
}

Signature SignatureCalculator::ComputeSignature(
    std::span<const stream::StreamEdge> edges) const {
  std::vector<Factor> factors;
  factors.reserve(3 * edges.size());
  std::unordered_map<graph::VertexId, std::pair<graph::LabelId, uint32_t>> deg;
  for (const stream::StreamEdge& e : edges) {
    factors.push_back(EdgeFactor(e.label_u, e.label_v));
    ++deg[e.u].second;
    deg[e.u].first = e.label_u;
    ++deg[e.v].second;
    deg[e.v].first = e.label_v;
  }
  for (const auto& [v, info] : deg) {
    (void)v;
    AppendDegreeRun(info.first, info.second, &factors);
  }
  return Signature(std::move(factors));
}

Signature SignatureCalculator::SingleEdgeSignature(graph::LabelId a,
                                                   graph::LabelId b) const {
  return Signature({EdgeFactor(a, b), DegreeFactor(a, 1), DegreeFactor(b, 1)});
}

}  // namespace signature
}  // namespace loom
