// Graph signatures as factor multisets (Sec. 2.1, 2.3).
//
// Song et al. [29] identify a graph by the *product* of its factors; Loom
// instead "represents signatures as sets of their constituent factors, which
// eliminates a source of collisions, e.g. we can now distinguish between
// graphs with factors {6,2}, {4,3} and {12}". We therefore never materialise
// the (potentially thousands of bits) integer product: a Signature is a
// sorted multiset of uint32 factors with an order-independent hash.

#ifndef LOOM_SIGNATURE_SIGNATURE_H_
#define LOOM_SIGNATURE_SIGNATURE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace loom {
namespace signature {

/// One factor: a value in [1, p] (the paper replaces 0 with p, so factors
/// are never zero).
using Factor = uint32_t;

/// The (at most 3) factors contributed by adding a single edge to a graph:
/// one edge factor plus one new degree factor per endpoint.
using FactorDelta = std::vector<Factor>;

/// A multiset of factors, kept sorted ascending. Two graphs are "signature
/// equal" iff their factor multisets are equal; isomorphic graphs always
/// are (no false negatives), non-isomorphic collisions have the small
/// probability analysed in collision_model.h.
class Signature {
 public:
  Signature() = default;

  /// Takes ownership of `factors` and sorts them.
  explicit Signature(std::vector<Factor> factors);

  /// Number of factors; a graph with |E| edges has exactly 3|E| (the
  /// Handshaking lemma: one per edge + one per unit of total degree 2|E|).
  size_t size() const { return factors_.size(); }
  bool empty() const { return factors_.empty(); }

  const std::vector<Factor>& factors() const { return factors_; }

  /// Inserts one factor, keeping order.
  void Add(Factor f);

  /// Inserts several factors.
  void AddAll(const FactorDelta& delta);

  /// Returns this ∪ delta as a new signature (this is the incremental
  /// signature of a graph grown by one edge).
  Signature Extended(const FactorDelta& delta) const;

  /// Multiset difference other \ this, or nullopt if this is not a
  /// sub-multiset of other. Used by Alg. 2's child test: the delta on a
  /// TPSTry++ edge n -> c is c.signature().DifferenceFrom(n.signature()).
  std::optional<FactorDelta> DifferenceTo(const Signature& other) const;

  /// True if `delta` (any order) equals other \ this exactly (i.e.
  /// this + delta == other). Alg. 2 line 7/15's child test.
  bool ExtendsBy(const FactorDelta& delta, const Signature& other) const;

  /// Order-independent (content) hash.
  uint64_t Hash() const;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.factors_ == b.factors_;
  }

  std::string ToString() const;

 private:
  std::vector<Factor> factors_;  // sorted ascending
};

/// Hash functor for unordered containers keyed by Signature.
struct SignatureHash {
  size_t operator()(const Signature& s) const {
    return static_cast<size_t>(s.Hash());
  }
};

}  // namespace signature
}  // namespace loom

#endif  // LOOM_SIGNATURE_SIGNATURE_H_
