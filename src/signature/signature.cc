#include "signature/signature.h"

#include <algorithm>
#include <sstream>

namespace loom {
namespace signature {

Signature::Signature(std::vector<Factor> factors) : factors_(std::move(factors)) {
  std::sort(factors_.begin(), factors_.end());
}

void Signature::Add(Factor f) {
  factors_.insert(std::upper_bound(factors_.begin(), factors_.end(), f), f);
}

void Signature::AddAll(const FactorDelta& delta) {
  for (Factor f : delta) Add(f);
}

Signature Signature::Extended(const FactorDelta& delta) const {
  Signature out = *this;
  out.AddAll(delta);
  return out;
}

std::optional<FactorDelta> Signature::DifferenceTo(const Signature& other) const {
  if (other.size() < size()) return std::nullopt;
  FactorDelta diff;
  diff.reserve(other.size() - size());
  size_t i = 0;
  for (Factor f : other.factors_) {
    if (i < factors_.size() && factors_[i] == f) {
      ++i;  // matched one of ours
    } else if (i < factors_.size() && factors_[i] < f) {
      return std::nullopt;  // we hold a factor `other` lacks
    } else {
      diff.push_back(f);
    }
  }
  if (i != factors_.size()) return std::nullopt;
  return diff;
}

bool Signature::ExtendsBy(const FactorDelta& delta, const Signature& other) const {
  if (other.size() != size() + delta.size()) return false;
  // Merge-compare: other must be exactly this ∪ delta (as multisets).
  FactorDelta sorted_delta = delta;
  std::sort(sorted_delta.begin(), sorted_delta.end());
  size_t i = 0, j = 0;
  for (Factor f : other.factors_) {
    if (i < factors_.size() && factors_[i] == f) {
      ++i;
    } else if (j < sorted_delta.size() && sorted_delta[j] == f) {
      ++j;
    } else {
      return false;
    }
  }
  return i == factors_.size() && j == sorted_delta.size();
}

uint64_t Signature::Hash() const {
  // FNV-1a over the sorted factor sequence: order-independent because the
  // representation is canonical (sorted).
  uint64_t h = 0xcbf29ce484222325ULL;
  for (Factor f : factors_) {
    h ^= f;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Signature::ToString() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < factors_.size(); ++i) {
    if (i) os << ",";
    os << factors_[i];
  }
  os << "}";
  return os.str();
}

}  // namespace signature
}  // namespace loom
