#include "tpstry/tpstry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <set>
#include <sstream>

namespace loom {
namespace tpstry {

Tpstry::Tpstry(const signature::SignatureCalculator* calc,
               double support_threshold)
    : calc_(calc), support_threshold_(support_threshold) {
  TpsNode root;
  root.id = kRootId;
  nodes_.push_back(std::move(root));
}

uint32_t Tpstry::FindOrCreateNode(const signature::Signature& sig,
                                  const graph::PatternGraph& rep,
                                  uint32_t num_edges) {
  auto it = by_signature_.find(sig);
  if (it != by_signature_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(nodes_.size());
  TpsNode n;
  n.id = id;
  n.sig = sig;
  n.rep = rep;
  n.num_edges = num_edges;
  nodes_.push_back(std::move(n));
  by_signature_.emplace(sig, id);
  return id;
}

void Tpstry::Link(uint32_t parent, uint32_t child) {
  auto& kids = nodes_[parent].children;
  if (std::find(kids.begin(), kids.end(), child) == kids.end()) {
    kids.push_back(child);
    nodes_[child].parents.push_back(parent);
  }
}

void Tpstry::AddQuery(const graph::PatternGraph& q, double frequency) {
  assert(q.NumEdges() >= 1 && q.NumEdges() <= kMaxQueryEdges);
  assert(q.IsConnected());
  assert(frequency > 0.0);

  const std::vector<EdgeMask> masks = ConnectedEdgeSubsets(q);

  // Mask -> node id, so link construction can navigate by mask.
  std::unordered_map<EdgeMask, uint32_t> node_of_mask;
  node_of_mask.reserve(masks.size());
  std::set<uint32_t> distinct_nodes;  // support counted once per query

  for (EdgeMask mask : masks) {
    graph::PatternGraph sub = SubgraphFromMask(q, mask);
    signature::Signature sig = calc_->ComputeSignature(sub);
    uint32_t id = FindOrCreateNode(sig, sub, static_cast<uint32_t>(std::popcount(mask)));
    node_of_mask.emplace(mask, id);
    distinct_nodes.insert(id);
  }

  for (uint32_t id : distinct_nodes) nodes_[id].support += frequency;
  total_frequency_ += frequency;

  // Parent/child links: every connected subset S and incident edge e not in
  // S yields S -> S+e (S+e is connected by construction, hence enumerated).
  for (EdgeMask mask : masks) {
    const uint32_t parent =
        std::popcount(mask) == 1 ? kRootId : node_of_mask.at(mask);
    if (std::popcount(mask) == 1) Link(kRootId, node_of_mask.at(mask));
    (void)parent;
    for (size_t e = 0; e < q.NumEdges(); ++e) {
      EdgeMask bit = EdgeMask{1} << e;
      if (mask & bit) continue;
      EdgeMask grown = mask | bit;
      auto it = node_of_mask.find(grown);
      if (it == node_of_mask.end()) continue;  // grown subset disconnected
      Link(node_of_mask.at(mask), it->second);
    }
  }
}

void Tpstry::DecaySupports(double factor) {
  assert(factor > 0.0 && factor <= 1.0);
  for (TpsNode& n : nodes_) n.support *= factor;
  total_frequency_ *= factor;
}

double Tpstry::NormalizedSupport(uint32_t id) const {
  if (id == kRootId) return 1.0;
  if (total_frequency_ <= 0.0) return 0.0;
  return nodes_[id].support / total_frequency_;
}

bool Tpstry::IsMotif(uint32_t id) const {
  if (id == kRootId) return false;
  // A hair of slack so thresholds expressed in decimal (0.4) accept supports
  // computed from sums like 0.3 + 0.1.
  return NormalizedSupport(id) >= support_threshold_ - 1e-9;
}

std::vector<uint32_t> Tpstry::MotifIds() const {
  std::vector<uint32_t> out;
  for (uint32_t id = 1; id < nodes_.size(); ++id) {
    if (IsMotif(id)) out.push_back(id);
  }
  return out;
}

uint32_t Tpstry::MaxMotifEdges() const {
  uint32_t best = 0;
  for (uint32_t id = 1; id < nodes_.size(); ++id) {
    if (IsMotif(id)) best = std::max(best, nodes_[id].num_edges);
  }
  return best;
}

const TpsNode* Tpstry::FindBySignature(const signature::Signature& sig) const {
  auto it = by_signature_.find(sig);
  return it == by_signature_.end() ? nullptr : &nodes_[it->second];
}

const TpsNode* Tpstry::FindSingleEdgeMotif(
    const signature::Signature& sig) const {
  const TpsNode* n = FindBySignature(sig);
  if (n == nullptr || n->num_edges != 1 || !IsMotif(n->id)) return nullptr;
  return n;
}

const TpsNode* Tpstry::FindMotifChild(
    uint32_t node_id, const signature::FactorDelta& delta) const {
  const TpsNode& n = nodes_[node_id];
  for (uint32_t cid : n.children) {
    const TpsNode& c = nodes_[cid];
    if (!IsMotif(cid)) continue;
    if (n.sig.ExtendsBy(delta, c.sig)) return &c;
  }
  return nullptr;
}

std::vector<bool> Tpstry::MotifLabelMask(size_t num_labels) const {
  std::vector<bool> mask(num_labels, false);
  for (uint32_t id = 1; id < nodes_.size(); ++id) {
    if (!IsMotif(id)) continue;
    for (graph::LabelId l : nodes_[id].rep.labels()) {
      if (l < num_labels) mask[l] = true;
    }
  }
  return mask;
}

std::string Tpstry::Dump(const graph::LabelRegistry& registry) const {
  std::ostringstream os;
  for (const TpsNode& n : nodes_) {
    if (n.id == kRootId) {
      os << "#0 root\n";
      continue;
    }
    os << "#" << n.id << " " << n.rep.ToString(registry)
       << " support=" << NormalizedSupport(n.id)
       << (IsMotif(n.id) ? " [motif]" : "") << " children={";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (i) os << ",";
      os << n.children[i];
    }
    os << "}\n";
  }
  return os.str();
}

}  // namespace tpstry
}  // namespace loom
