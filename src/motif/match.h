// A motif-matching sub-graph inside the sliding window (Sec. 3).
//
// The paper's matchList entries are pairs ⟨Ei, mi⟩: a set of window edges Ei
// whose induced sub-graph has the same signature as motif mi. We add the
// (derivable) vertex set because the allocator's bid function (Eq. 1) scores
// matches by vertex overlap with partitions, and a per-vertex degree array
// (parallel to the sorted vertex set) so the matcher reads an edge's
// endpoint degrees (half of its motif-child memo key) in O(log |V|) instead
// of rescanning every match edge against the window on each extension or
// join step.
//
// Records live in a MatchPool (match_pool.h) and are referenced by 32-bit
// generational MatchHandles; liveness is the pool's, not a flag here.

#ifndef LOOM_MOTIF_MATCH_H_
#define LOOM_MOTIF_MATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace loom {
namespace motif {

/// One ⟨edge-set, motif⟩ pair. Mutable only between MatchList::Acquire and
/// Commit; registered matches are immutable until released.
struct Match {
  std::vector<graph::EdgeId> edges;       // sorted stream edge ids
  std::vector<graph::VertexId> vertices;  // sorted vertex ids
  std::vector<uint8_t> degrees;  // degrees[i] = degree of vertices[i] in edges
  uint32_t node_id = 0;          // TPSTry++ motif node

  /// Clears content, keeping vector capacity (pooled slots reuse it).
  void Reset() {
    edges.clear();
    vertices.clear();
    degrees.clear();
    node_id = 0;
  }

  /// Copies `other`'s content into this record, reusing capacity.
  void CopyFrom(const Match& other) {
    edges = other.edges;
    vertices = other.vertices;
    degrees = other.degrees;
    node_id = other.node_id;
  }

  bool ContainsEdge(graph::EdgeId e) const {
    return std::binary_search(edges.begin(), edges.end(), e);
  }
  bool ContainsVertex(graph::VertexId v) const {
    return std::binary_search(vertices.begin(), vertices.end(), v);
  }

  /// Degree of `v` inside this match's edge set; 0 when absent.
  uint32_t DegreeOf(graph::VertexId v) const {
    auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
    if (it == vertices.end() || *it != v) return 0;
    return degrees[static_cast<size_t>(it - vertices.begin())];
  }

  /// Records one more incident edge at `v`: inserts the vertex at degree 1
  /// or bumps its existing degree.
  void BumpDegree(graph::VertexId v) {
    auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
    const size_t i = static_cast<size_t>(it - vertices.begin());
    if (it == vertices.end() || *it != v) {
      vertices.insert(it, v);
      degrees.insert(degrees.begin() + static_cast<ptrdiff_t>(i), 1);
    } else {
      ++degrees[i];
    }
  }

  /// Adds edge `e` = (u, v) to the record: sorted-inserts the id and bumps
  /// both endpoint degrees.
  void AddEdge(graph::EdgeId e, graph::VertexId u, graph::VertexId v) {
    auto it = std::lower_bound(edges.begin(), edges.end(), e);
    if (it != edges.end() && *it == e) return;
    edges.insert(it, e);
    BumpDegree(u);
    BumpDegree(v);
  }

  /// Removes one incident edge at `v`, dropping the vertex at degree 0.
  void DropDegree(graph::VertexId v) {
    auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
    const size_t i = static_cast<size_t>(it - vertices.begin());
    if (--degrees[i] == 0) {
      vertices.erase(it);
      degrees.erase(degrees.begin() + static_cast<ptrdiff_t>(i));
    }
  }

  /// Undoes AddEdge(e, u, v) (the join recursion's backtracking step).
  void RemoveEdge(graph::EdgeId e, graph::VertexId u, graph::VertexId v) {
    edges.erase(std::lower_bound(edges.begin(), edges.end(), e));
    DropDegree(u);
    DropDegree(v);
  }

  /// Content key for de-duplication: hashes (node_id, edges). Two matches
  /// with the same edge set and motif are the same match.
  uint64_t Key() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t x) {
      h ^= x;
      h *= 0x100000001b3ULL;
    };
    mix(node_id);
    for (graph::EdgeId e : edges) mix(e + 1);
    return h;
  }
};

}  // namespace motif
}  // namespace loom

#endif  // LOOM_MOTIF_MATCH_H_
