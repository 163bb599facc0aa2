#include "graph/labeled_graph.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace loom {
namespace graph {

std::vector<Edge> CanonicalEdges(std::vector<Edge> edges) {
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.u == e.v; }),
              edges.end());
  for (Edge& e : edges) e = e.Normalized();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const Edge& a, const Edge& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              edges.end());
  return edges;
}

VertexId LabeledGraph::Builder::AddVertex(LabelId label) {
  VertexId id = static_cast<VertexId>(labels_.size());
  labels_.push_back(label);
  return id;
}

void LabeledGraph::Builder::AddEdge(VertexId u, VertexId v) {
  assert(u < labels_.size() && v < labels_.size());
  edges_.emplace_back(u, v);
}

LabeledGraph LabeledGraph::Builder::Build() {
  LabeledGraph g;
  g.labels_ = std::move(labels_);
  labels_.clear();

  g.edges_ = CanonicalEdges(std::move(edges_));
  edges_.clear();

  // CSR construction: counting sort on endpoints.
  const size_t n = g.labels_.size();
  const size_t m = g.edges_.size();
  g.offsets_.assign(n + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.adj_.resize(2 * m);
  g.adj_eids_.resize(2 * m);
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId eid = 0; eid < m; ++eid) {
    const Edge& e = g.edges_[eid];
    g.adj_[cursor[e.u]] = e.v;
    g.adj_eids_[cursor[e.u]++] = eid;
    g.adj_[cursor[e.v]] = e.u;
    g.adj_eids_[cursor[e.v]++] = eid;
  }
  return g;
}

bool LabeledGraph::HasEdge(VertexId u, VertexId v) const {
  if (Degree(u) > Degree(v)) std::swap(u, v);
  for (VertexId w : Neighbors(u)) {
    if (w == v) return true;
  }
  return false;
}

std::vector<size_t> LabeledGraph::LabelHistogram() const {
  LabelId max_label = 0;
  for (LabelId l : labels_) max_label = std::max(max_label, l);
  std::vector<size_t> hist(labels_.empty() ? 0 : max_label + 1, 0);
  for (LabelId l : labels_) ++hist[l];
  return hist;
}

}  // namespace graph
}  // namespace loom
