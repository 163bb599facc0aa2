// Incrementally growable labelled graph.
//
// Streaming partitioners (LDG, Fennel, Loom) see the graph one edge at a
// time; heuristics like "number of neighbours already in partition S" need
// the adjacency of the streamed-so-far prefix. DynamicGraph provides that:
// O(1) amortised edge insertion, label assignment on first sight of a
// vertex, and neighbour iteration. Adjacency lives in a paged
// AdjacencyArena (see graph/adjacency_arena.h): no per-vertex heap
// allocation, and neighbour pages never move once written. One thread
// appends and reads; nothing reads a graph from another thread.

#ifndef LOOM_GRAPH_DYNAMIC_GRAPH_H_
#define LOOM_GRAPH_DYNAMIC_GRAPH_H_

#include <vector>

#include "graph/adjacency_arena.h"
#include "graph/types.h"
#include "io/checkpoint.h"
#include "util/prefetch.h"

namespace loom {
namespace graph {

/// Adjacency-list labelled graph supporting online edge insertion. Vertex
/// ids are externally assigned (dense in practice: dataset generators number
/// vertices 0..n-1); the structure grows to accommodate the largest id seen.
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Optionally pre-sizes internal arrays for `n` vertices.
  /// `page_entries` caps the arena's page capacity (0 = 64, the value
  /// every partitioner uses). It is a test seam: tiny pages force chain
  /// hops, and neighbour order and every derived score are identical for
  /// any page size.
  /// `expected_entries` pre-carves arena slab storage for that many
  /// adjacency entries (2m for m undirected edges; 0 = allocate on
  /// demand) — an allocation hint only, never affecting layout or the
  /// checkpoint encoding (AdjacencyArena::ReserveEntries).
  explicit DynamicGraph(size_t n, uint32_t page_entries = 0,
                        uint64_t expected_entries = 0)
      : arena_(page_entries) {
    Reserve(n);
    arena_.ReserveEntries(expected_entries);
  }

  void Reserve(size_t n);

  /// Records vertex `v` with `label`. Idempotent; relabeling an existing
  /// vertex with a different label is a programming error (asserted).
  void TouchVertex(VertexId v, LabelId label);

  /// Inserts undirected edge (u,v); both endpoints must have been touched.
  /// Duplicate edges are permitted (callers dedupe upstream if needed).
  /// Self-loops are canonicalised to a SINGLE adjacency entry (u appears
  /// once in its own list, degree 1) — the io/engine ingest layers reject
  /// them outright, so this is defence in depth for direct API users; all
  /// backends see the same canonical form (pinned by the self-loop
  /// differential test).
  void AddEdge(VertexId u, VertexId v);

  /// Number of vertex slots (max touched id + 1; untouched slots have
  /// kInvalidLabel and degree 0).
  size_t NumSlots() const { return labels_.size(); }

  /// Number of vertices actually touched.
  size_t NumVertices() const { return num_vertices_; }

  /// Number of inserted edges.
  size_t NumEdges() const { return num_edges_; }

  bool Known(VertexId v) const {
    return v < labels_.size() && labels_[v] != kInvalidLabel;
  }

  LabelId label(VertexId v) const { return labels_[v]; }

  /// Neighbours of `v` in the streamed-so-far graph (empty for unknown
  /// vertices): insertion order, duplicate edges once per insertion, a
  /// self-loop as a single entry. The range walks the arena's page chain
  /// and stays valid while the graph lives.
  NeighborRange Neighbors(VertexId v) const { return arena_.Neighbors(v); }

  /// Number of entries Neighbors(v) would return.
  size_t Degree(VertexId v) const { return arena_.Degree(v); }

  /// Look-ahead hint: prefetches v's label and chain entries. A no-op for
  /// v beyond the tables, which it never grows.
  void PrefetchVertex(VertexId v) const {
    if (v >= labels_.size()) return;
    util::PrefetchRead(&labels_[v]);
    arena_.PrefetchChain(v);
  }

  /// Look-ahead hint for an AddEdge touching v: prefetches the slot v's
  /// next adjacency entry goes to (AdjacencyArena::PrefetchAppend).
  void PrefetchAppend(VertexId v) const { arena_.PrefetchAppend(v); }

  /// Writes the graph as checkpoint section `name` (labels, adjacency in
  /// insertion order — neighbour order feeds scoring, so it must survive).
  /// Byte-identical to the pre-arena vector-of-vectors encoding.
  void SaveTo(io::CheckpointWriter* w, std::string_view name) const;

  /// Restores a SaveTo snapshot; requires this graph to be empty. The
  /// stored num_vertices/num_edges counters are VALIDATED against the
  /// loaded label and adjacency tables (label count, degree sum, entry
  /// bounds) — a hand-edited or checksum-colliding file fails with an
  /// actionable error instead of silently desyncing stats.
  void LoadFrom(io::CheckpointReader* r, std::string_view name);

 private:
  std::vector<LabelId> labels_;
  AdjacencyArena arena_;
  size_t num_vertices_ = 0;
  size_t num_edges_ = 0;
};

}  // namespace graph
}  // namespace loom

#endif  // LOOM_GRAPH_DYNAMIC_GRAPH_H_
