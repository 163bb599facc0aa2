#include <gtest/gtest.h>

#include <algorithm>

#include "graph/dynamic_graph.h"
#include "graph/label_registry.h"
#include "graph/labeled_graph.h"

namespace loom {
namespace graph {
namespace {

// ---------------------------------------------------------- label registry

TEST(LabelRegistryTest, InternAssignsDenseIdsInOrder) {
  LabelRegistry reg;
  EXPECT_EQ(reg.Intern("a"), 0);
  EXPECT_EQ(reg.Intern("b"), 1);
  EXPECT_EQ(reg.Intern("a"), 0);  // idempotent
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.Name(0), "a");
  EXPECT_EQ(reg.Name(1), "b");
}

TEST(LabelRegistryTest, FindMissingReturnsInvalid) {
  LabelRegistry reg;
  reg.Intern("x");
  EXPECT_EQ(reg.Find("x"), 0);
  EXPECT_EQ(reg.Find("nope"), kInvalidLabel);
}

// -------------------------------------------------------------------- edge

TEST(EdgeTest, NormalizedAndEquality) {
  Edge a(3, 1), b(1, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Normalized().u, 1u);
  EXPECT_EQ(a.Normalized().v, 3u);
  EXPECT_EQ(EdgeHash{}(a), EdgeHash{}(b));
}

TEST(EdgeTest, OtherAndIncident) {
  Edge e(4, 9);
  EXPECT_EQ(e.Other(4), 9u);
  EXPECT_EQ(e.Other(9), 4u);
  EXPECT_TRUE(e.Incident(4));
  EXPECT_FALSE(e.Incident(5));
}

// ----------------------------------------------------------- labeled graph

LabeledGraph TriangleWithTail() {
  LabeledGraph::Builder b;
  VertexId v0 = b.AddVertex(0);
  VertexId v1 = b.AddVertex(1);
  VertexId v2 = b.AddVertex(0);
  VertexId v3 = b.AddVertex(2);
  b.AddEdge(v0, v1);
  b.AddEdge(v1, v2);
  b.AddEdge(v2, v0);
  b.AddEdge(v2, v3);
  return b.Build();
}

TEST(LabeledGraphTest, BasicCounts) {
  LabeledGraph g = TriangleWithTail();
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.label(0), 0);
  EXPECT_EQ(g.label(3), 2);
}

TEST(LabeledGraphTest, AdjacencyIsSymmetric) {
  LabeledGraph g = TriangleWithTail();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      auto nbrs = g.Neighbors(w);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), v), nbrs.end())
          << v << " <-> " << w;
    }
  }
}

TEST(LabeledGraphTest, DegreesMatchAdjacency) {
  LabeledGraph g = TriangleWithTail();
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(2), 3u);
  EXPECT_EQ(g.Degree(3), 1u);
  size_t total = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) total += g.Degree(v);
  EXPECT_EQ(total, 2 * g.NumEdges());  // handshaking lemma
}

TEST(LabeledGraphTest, BuilderDropsSelfLoopsAndDuplicates) {
  LabeledGraph::Builder b;
  VertexId v0 = b.AddVertex(0);
  VertexId v1 = b.AddVertex(0);
  b.AddEdge(v0, v1);
  b.AddEdge(v1, v0);  // duplicate (reversed)
  b.AddEdge(v0, v1);  // duplicate
  b.AddEdge(v0, v0);  // self loop
  LabeledGraph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(LabeledGraphTest, HasEdge) {
  LabeledGraph g = TriangleWithTail();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(LabeledGraphTest, IncidentEdgesAlignWithNeighbors) {
  LabeledGraph g = TriangleWithTail();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto nbrs = g.Neighbors(v);
    auto eids = g.IncidentEdges(v);
    ASSERT_EQ(nbrs.size(), eids.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const Edge& e = g.edge(eids[i]);
      EXPECT_TRUE(e.Incident(v));
      EXPECT_EQ(e.Other(v), nbrs[i]);
    }
  }
}

TEST(LabeledGraphTest, LabelHistogram) {
  LabeledGraph g = TriangleWithTail();
  auto hist = g.LabelHistogram();
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 2u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);
}

TEST(LabeledGraphTest, EmptyGraph) {
  LabeledGraph::Builder b;
  LabeledGraph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_TRUE(g.LabelHistogram().empty());
}

// ----------------------------------------------------------- dynamic graph

TEST(DynamicGraphTest, TouchAndAddEdge) {
  DynamicGraph g;
  g.TouchVertex(0, 5);
  g.TouchVertex(2, 7);
  EXPECT_TRUE(g.Known(0));
  EXPECT_FALSE(g.Known(1));
  EXPECT_TRUE(g.Known(2));
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.label(0), 5);

  g.AddEdge(0, 2);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  ASSERT_EQ(g.Neighbors(2).size(), 1u);
  EXPECT_EQ(*g.Neighbors(2).begin(), 0u);
}

TEST(DynamicGraphTest, TouchIsIdempotent) {
  DynamicGraph g;
  g.TouchVertex(3, 1);
  g.TouchVertex(3, 1);
  EXPECT_EQ(g.NumVertices(), 1u);
}

TEST(DynamicGraphTest, GrowsToLargestId) {
  DynamicGraph g;
  g.TouchVertex(100, 0);
  EXPECT_EQ(g.NumSlots(), 101u);
  EXPECT_EQ(g.NumVertices(), 1u);
  EXPECT_TRUE(g.Neighbors(50).empty());
  EXPECT_EQ(g.Degree(999), 0u);  // out of range is degree 0
}

TEST(DynamicGraphTest, ParallelEdgesCounted) {
  DynamicGraph g;
  g.TouchVertex(0, 0);
  g.TouchVertex(1, 0);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(0), 2u);
}

TEST(DynamicGraphTest, SelfLoopCanonicalisesToSingleEntry) {
  DynamicGraph g;
  g.TouchVertex(0, 0);
  g.TouchVertex(1, 0);
  g.AddEdge(0, 0);  // the old layout pushed 0 into its own list twice
  g.AddEdge(0, 1);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(0), 2u);  // one self entry + one real neighbour
  const std::vector<VertexId> nbrs = g.Neighbors(0).ToVector();
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
}

// The look-ahead hints touch no table: hints on an untouched slot, an
// edgeless vertex, a vertex whose tail page is full (page capacity 2, two
// entries) and ids at or past NumSlots leave every size, label and degree
// as it was.
TEST(DynamicGraphTest, LookaheadHintsLeaveTheGraphUnchanged) {
  DynamicGraph g(/*n=*/4, /*page_entries=*/2);
  g.TouchVertex(0, 3);
  g.TouchVertex(1, 3);
  g.TouchVertex(2, 4);  // edgeless; slot 3 stays untouched
  g.AddEdge(0, 1);
  g.AddEdge(0, 0);  // vertex 0: two entries, a full two-slot page
  for (const VertexId v : {0u, 1u, 2u, 3u, 4u, 1000u, kInvalidVertex}) {
    g.PrefetchVertex(v);
    g.PrefetchAppend(v);
  }
  EXPECT_EQ(g.NumSlots(), 4u);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_FALSE(g.Known(3));
  EXPECT_FALSE(g.Known(4));
  EXPECT_EQ(g.label(2), 4u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(2), 0u);
  EXPECT_EQ(g.Degree(1000), 0u);
  EXPECT_EQ(g.Neighbors(0).ToVector(), (std::vector<VertexId>{1, 0}));
}

TEST(DynamicGraphTest, NeighborOrderIsInsertionOrderAcrossPages) {
  // Page capacity 2 forces chain hops every two entries; the walk must
  // still read back the exact insertion order.
  DynamicGraph g(/*n=*/8, /*page_entries=*/2);
  for (VertexId v = 0; v < 8; ++v) g.TouchVertex(v, 0);
  for (VertexId w = 1; w < 8; ++w) g.AddEdge(0, w);
  EXPECT_EQ(g.Degree(0), 7u);
  const std::vector<VertexId> nbrs = g.Neighbors(0).ToVector();
  ASSERT_EQ(nbrs.size(), 7u);
  for (VertexId w = 1; w < 8; ++w) EXPECT_EQ(nbrs[w - 1], w);
}

TEST(DynamicGraphTest, CheckpointRoundTripsAcrossPageCapacities) {
  // The chain encoding is capacity-independent (U64 count + raw entries),
  // so a graph saved under one page size restores under another.
  DynamicGraph g(/*n=*/6, /*page_entries=*/3);
  for (VertexId v = 0; v < 6; ++v) g.TouchVertex(v, static_cast<LabelId>(v));
  g.AddEdge(0, 1);
  g.AddEdge(0, 0);
  for (VertexId w = 1; w < 6; ++w) g.AddEdge(0, w);

  io::CheckpointWriter w;
  g.SaveTo(&w, "g");
  const std::string path = testing::TempDir() + "/dyngraph_roundtrip.loomck";
  w.Commit(path);

  io::CheckpointReader r(path);
  DynamicGraph h(/*n=*/0, /*page_entries=*/64);
  h.LoadFrom(&r, "g");
  EXPECT_EQ(h.NumVertices(), g.NumVertices());
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(h.label(v), g.label(v));
    EXPECT_EQ(h.Neighbors(v).ToVector(), g.Neighbors(v).ToVector());
  }
}

// LoadFrom recomputes the counters from the loaded tables; a checkpoint
// whose counters disagree (hand-edited with fixed checksums) is rejected.
TEST(DynamicGraphTest, LoadFromRejectsVertexCounterDesync) {
  io::CheckpointWriter w;
  w.BeginSection("g");
  w.U64(5);  // claims 5 vertices; the label table below holds 2
  w.U64(1);  // num_edges
  w.PodVec(std::vector<LabelId>{0, 0});
  w.U64(2);  // adjacency slots
  w.PodVec(std::vector<VertexId>{1});  // adj(0)
  w.PodVec(std::vector<VertexId>{0});  // adj(1)
  w.EndSection();
  const std::string path = testing::TempDir() + "/dyngraph_badvcount.loomck";
  w.Commit(path);

  io::CheckpointReader r(path);
  DynamicGraph g;
  EXPECT_THROW(
      {
        try {
          g.LoadFrom(&r, "g");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("counter desync"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST(DynamicGraphTest, LoadFromRejectsEdgeCounterDesync) {
  io::CheckpointWriter w;
  w.BeginSection("g");
  w.U64(2);  // num_vertices
  w.U64(7);  // claims 7 edges; the adjacency holds one
  w.PodVec(std::vector<LabelId>{0, 0});
  w.U64(2);
  w.PodVec(std::vector<VertexId>{1});
  w.PodVec(std::vector<VertexId>{0});
  w.EndSection();
  const std::string path = testing::TempDir() + "/dyngraph_badecount.loomck";
  w.Commit(path);

  io::CheckpointReader r(path);
  DynamicGraph g;
  EXPECT_THROW(g.LoadFrom(&r, "g"), std::runtime_error);
}

TEST(DynamicGraphTest, LoadFromRejectsOutOfSetNeighbour) {
  io::CheckpointWriter w;
  w.BeginSection("g");
  w.U64(2);
  w.U64(1);
  w.PodVec(std::vector<LabelId>{0, 0});
  w.U64(2);
  w.PodVec(std::vector<VertexId>{9});  // adj(0) points outside the table
  w.PodVec(std::vector<VertexId>{0});
  w.EndSection();
  const std::string path = testing::TempDir() + "/dyngraph_badnbr.loomck";
  w.Commit(path);

  io::CheckpointReader r(path);
  DynamicGraph g;
  EXPECT_THROW(
      {
        try {
          g.LoadFrom(&r, "g");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("corrupt adjacency"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

// A pre-canonicalisation checkpoint stored a self-loop as TWO entries; the
// edge-counter identity (entries + self_entries == 2·edges) flags it.
TEST(DynamicGraphTest, LoadFromRejectsDoubleInsertedSelfLoop) {
  io::CheckpointWriter w;
  w.BeginSection("g");
  w.U64(1);
  w.U64(1);  // one edge: the self-loop
  w.PodVec(std::vector<LabelId>{0});
  w.U64(1);
  w.PodVec(std::vector<VertexId>{0, 0});  // legacy double insert
  w.EndSection();
  const std::string path = testing::TempDir() + "/dyngraph_legacyself.loomck";
  w.Commit(path);

  io::CheckpointReader r(path);
  DynamicGraph g;
  EXPECT_THROW(g.LoadFrom(&r, "g"), std::runtime_error);
}

}  // namespace
}  // namespace graph
}  // namespace loom
