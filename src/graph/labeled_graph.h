// Immutable labelled undirected graph in CSR form.
//
// This is the "data graph" G of the paper: built once by a dataset generator
// (or loaded from disk), then streamed in some order to the partitioners and
// queried by the executor. CSR adjacency gives cache-friendly neighbour
// scans for both.

#ifndef LOOM_GRAPH_LABELED_GRAPH_H_
#define LOOM_GRAPH_LABELED_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace loom {
namespace graph {

/// The edge list of the simple undirected graph `edges` describe, in edge-id
/// order: self-loops dropped, each edge oriented (min,max), sorted by (u,v),
/// duplicates removed. Works in place on the consumed vector. Both
/// LabeledGraph::Builder::Build and engine::GeneratorEdgeSource number edges
/// this way, so a lazily generated stream matches the built graph's ids.
std::vector<Edge> CanonicalEdges(std::vector<Edge> edges);

/// CSR-backed labelled graph. Vertices are dense [0, n); each has exactly one
/// label (the paper's surjective fl: V -> LV). Edges are undirected, stored
/// once in `edges()` and twice in the adjacency (both directions).
class LabeledGraph {
 public:
  /// Incremental builder. Duplicate edges and self-loops are dropped at
  /// Build() time so generators can be sloppy.
  class Builder {
   public:
    Builder() = default;

    /// Adds a vertex with the given label; returns its dense id.
    VertexId AddVertex(LabelId label);

    /// Adds an undirected edge. Both endpoints must already exist.
    void AddEdge(VertexId u, VertexId v);

    /// Number of vertices added so far.
    size_t NumVertices() const { return labels_.size(); }

    /// Finalises into an immutable graph. The builder is left empty.
    LabeledGraph Build();

   private:
    std::vector<LabelId> labels_;
    std::vector<Edge> edges_;
  };

  LabeledGraph() = default;

  size_t NumVertices() const { return labels_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  /// Label of vertex v.
  LabelId label(VertexId v) const { return labels_[v]; }

  /// All vertex labels, indexed by VertexId.
  const std::vector<LabelId>& labels() const { return labels_; }

  /// Neighbours of v (each undirected edge appears in both endpoints' lists).
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Edge ids incident to v, aligned with Neighbors(v).
  std::span<const EdgeId> IncidentEdges(VertexId v) const {
    return {adj_eids_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  size_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Unique undirected edges; EdgeId indexes into this vector.
  const std::vector<Edge>& edges() const { return edges_; }
  const Edge& edge(EdgeId e) const { return edges_[e]; }

  /// True if (u,v) is an edge. O(min degree) scan.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Count of vertices per label id (size == max label id + 1).
  std::vector<size_t> LabelHistogram() const;

 private:
  friend class Builder;

  std::vector<LabelId> labels_;
  std::vector<Edge> edges_;         // unique undirected edges
  std::vector<size_t> offsets_;     // CSR offsets, size n+1
  std::vector<VertexId> adj_;       // CSR neighbour array, size 2m
  std::vector<EdgeId> adj_eids_;    // edge id per adjacency slot
};

}  // namespace graph
}  // namespace loom

#endif  // LOOM_GRAPH_LABELED_GRAPH_H_
