#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "datasets/dataset_registry.h"
#include "engine/edge_source.h"
#include "stream/sliding_window.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace stream {
namespace {

graph::LabeledGraph SmallGraph() {
  graph::LabeledGraph::Builder b;
  for (int i = 0; i < 4; ++i) b.AddVertex(static_cast<graph::LabelId>(i % 2));
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  return b.Build();
}

// ------------------------------------------------------ graph edge source

TEST(GraphEdgeSourceTest, CarriesLabelsAndPositions) {
  graph::LabeledGraph g = SmallGraph();
  engine::GraphEdgeSource source(g, {0, 1, 2});
  const std::vector<StreamEdge> es = test_util::Drain(source);
  ASSERT_EQ(es.size(), 3u);
  for (size_t i = 0; i < es.size(); ++i) {
    EXPECT_EQ(es[i].id, i);
    EXPECT_EQ(es[i].label_u, g.label(es[i].u));
    EXPECT_EQ(es[i].label_v, g.label(es[i].v));
  }
}

TEST(GraphEdgeSourceTest, RespectsPermutation) {
  graph::LabeledGraph g = SmallGraph();
  engine::GraphEdgeSource source(g, {2, 0, 1});
  const std::vector<StreamEdge> es = test_util::Drain(source);
  EXPECT_EQ(es[0].u, g.edge(2).u);
  EXPECT_EQ(es[0].v, g.edge(2).v);
}

TEST(StreamEdgeTest, Accessors) {
  StreamEdge e{0, 5, 9, 1, 2};
  EXPECT_EQ(e.Other(5), 9u);
  EXPECT_EQ(e.Other(9), 5u);
  EXPECT_EQ(e.LabelOf(5), 1);
  EXPECT_EQ(e.LabelOf(9), 2);
  EXPECT_TRUE(e.Incident(5));
  EXPECT_FALSE(e.Incident(6));
}

// ------------------------------------------------------------ stream order

TEST(StreamOrderTest, AllOrdersCoverAllEdges) {
  auto ds = datasets::MakeFigure1Dataset();
  for (auto order : {StreamOrder::kBreadthFirst, StreamOrder::kDepthFirst,
                     StreamOrder::kRandom, StreamOrder::kCanonical}) {
    const std::vector<StreamEdge> es = test_util::Drain(ds.graph, order);
    EXPECT_EQ(es.size(), ds.graph.NumEdges()) << ToString(order);
    std::set<graph::Edge, bool (*)(const graph::Edge&, const graph::Edge&)> seen(
        +[](const graph::Edge& a, const graph::Edge& b) {
          graph::Edge na = a.Normalized(), nb = b.Normalized();
          return na.u != nb.u ? na.u < nb.u : na.v < nb.v;
        });
    for (const StreamEdge& e : es) seen.insert(graph::Edge(e.u, e.v));
    EXPECT_EQ(seen.size(), ds.graph.NumEdges());
  }
}

TEST(StreamOrderTest, RandomSeedChangesOrder) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const std::vector<StreamEdge> a =
      test_util::Drain(ds.graph, StreamOrder::kRandom, 1);
  const std::vector<StreamEdge> b =
      test_util::Drain(ds.graph, StreamOrder::kRandom, 2);
  bool differs = false;
  for (size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].u != b[i].u || a[i].v != b[i].v;
  }
  EXPECT_TRUE(differs);
}

TEST(StreamOrderTest, Names) {
  EXPECT_EQ(ToString(StreamOrder::kBreadthFirst), "bfs");
  EXPECT_EQ(ToString(StreamOrder::kDepthFirst), "dfs");
  EXPECT_EQ(ToString(StreamOrder::kRandom), "random");
  EXPECT_EQ(ToString(StreamOrder::kCanonical), "canonical");
  for (auto order : {StreamOrder::kBreadthFirst, StreamOrder::kDepthFirst,
                     StreamOrder::kRandom, StreamOrder::kCanonical}) {
    StreamOrder parsed;
    ASSERT_TRUE(ParseStreamOrder(ToString(order), &parsed));
    EXPECT_EQ(parsed, order);
  }
  StreamOrder ignored;
  EXPECT_FALSE(ParseStreamOrder("sideways", &ignored));
}

TEST(StreamOrderTest, CanonicalIsTheBuilderEdgeIdOrder) {
  auto ds = datasets::MakeFigure1Dataset();
  const std::vector<StreamEdge> es =
      test_util::Drain(ds.graph, StreamOrder::kCanonical);
  ASSERT_EQ(es.size(), ds.graph.NumEdges());
  for (size_t i = 0; i < es.size(); ++i) {
    const graph::Edge& e = ds.graph.edge(static_cast<graph::EdgeId>(i));
    EXPECT_EQ(es[i].u, e.u);
    EXPECT_EQ(es[i].v, e.v);
  }
}

// ---------------------------------------------------------- sliding window

StreamEdge MakeEdge(graph::EdgeId id) {
  StreamEdge e;
  e.id = id;
  e.u = id * 2;
  e.v = id * 2 + 1;
  e.label_u = 0;
  e.label_v = 0;
  return e;
}

TEST(SlidingWindowTest, FifoSemantics) {
  SlidingWindow w(2);
  w.Push(MakeEdge(0));
  w.Push(MakeEdge(1));
  EXPECT_FALSE(w.OverCapacity());
  w.Push(MakeEdge(2));
  EXPECT_TRUE(w.OverCapacity());
  auto oldest = w.PopOldest();
  ASSERT_TRUE(oldest.has_value());
  EXPECT_EQ(oldest->id, 0u);
  EXPECT_FALSE(w.OverCapacity());
  EXPECT_EQ(w.size(), 2u);
}

TEST(SlidingWindowTest, FindAndContains) {
  SlidingWindow w(4);
  w.Push(MakeEdge(7));
  EXPECT_TRUE(w.Contains(7));
  EXPECT_FALSE(w.Contains(8));
  const StreamEdge* e = w.Find(7);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->u, 14u);
  EXPECT_EQ(w.Find(8), nullptr);
}

TEST(SlidingWindowTest, RemoveArbitrary) {
  SlidingWindow w(4);
  for (graph::EdgeId i = 0; i < 4; ++i) w.Push(MakeEdge(i));
  EXPECT_TRUE(w.Remove(1));
  EXPECT_FALSE(w.Remove(1));  // already gone
  EXPECT_EQ(w.size(), 3u);
  // Removal of a middle element must not disturb FIFO order of the rest.
  EXPECT_EQ(w.PopOldest()->id, 0u);
  EXPECT_EQ(w.PopOldest()->id, 2u);
  EXPECT_EQ(w.PopOldest()->id, 3u);
  EXPECT_FALSE(w.PopOldest().has_value());
}

TEST(SlidingWindowTest, RemoveHeadThenPop) {
  SlidingWindow w(4);
  w.Push(MakeEdge(0));
  w.Push(MakeEdge(1));
  w.Remove(0);
  auto e = w.PopOldest();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, 1u);
}

TEST(SlidingWindowTest, PeekOldestSkipsRemoved) {
  SlidingWindow w(4);
  w.Push(MakeEdge(0));
  w.Push(MakeEdge(1));
  w.Remove(0);
  const StreamEdge* e = w.PeekOldest();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->id, 1u);
  EXPECT_EQ(w.size(), 2u - 1u);
}

TEST(SlidingWindowTest, ForEachVisitsLiveInOrder) {
  SlidingWindow w(8);
  for (graph::EdgeId i = 0; i < 5; ++i) w.Push(MakeEdge(i));
  w.Remove(2);
  std::vector<graph::EdgeId> ids;
  w.ForEach([&](const StreamEdge& e) { ids.push_back(e.id); });
  EXPECT_EQ(ids, (std::vector<graph::EdgeId>{0, 1, 3, 4}));
}

TEST(SlidingWindowTest, EmptyWindow) {
  SlidingWindow w(3);
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(w.PopOldest().has_value());
  EXPECT_EQ(w.PeekOldest(), nullptr);
}

// ------------------------------------------------- ring-buffer internals

TEST(SlidingWindowTest, RingWrapsAroundManyTimes) {
  // Far more pushes than slots: ids must wrap the ring repeatedly without
  // the buffer growing (steady-state eviction keeps the span bounded).
  SlidingWindow w(4);
  const size_t slots = w.NumSlots();
  for (graph::EdgeId i = 0; i < 1000; ++i) {
    w.Push(MakeEdge(i));
    while (w.OverCapacity()) w.PopOldest();
  }
  EXPECT_EQ(w.NumSlots(), slots);
  EXPECT_EQ(w.size(), 4u);
  for (graph::EdgeId i = 996; i < 1000; ++i) {
    ASSERT_TRUE(w.Contains(i));
    EXPECT_EQ(w.Find(i)->u, i * 2);
  }
  EXPECT_FALSE(w.Contains(995));
  EXPECT_EQ(w.PeekOldest()->id, 996u);
}

TEST(SlidingWindowTest, GrowsWhenIdSpanOutrunsSlots) {
  // Sparse ids (bypassed edges consume stream positions): the live id span
  // outgrows the initial allocation and the ring must re-place live edges.
  SlidingWindow w(1000);
  const size_t slots0 = w.NumSlots();
  for (graph::EdgeId i = 0; i < 100; ++i) w.Push(MakeEdge(i * 37));
  EXPECT_GT(w.NumSlots(), slots0);
  EXPECT_EQ(w.size(), 100u);
  for (graph::EdgeId i = 0; i < 100; ++i) {
    ASSERT_TRUE(w.Contains(i * 37)) << i;
    EXPECT_EQ(w.Find(i * 37)->v, i * 37 * 2 + 1);
  }
  EXPECT_FALSE(w.Contains(38));
  EXPECT_EQ(w.PeekOldest()->id, 0u);
}

TEST(SlidingWindowTest, TombstonedSlotsAreReused) {
  // Remove edges out of order, then push enough new ids that the ring wraps
  // onto the tombstoned slots.
  SlidingWindow w(8);
  const size_t slots = w.NumSlots();
  for (graph::EdgeId i = 0; i < 8; ++i) w.Push(MakeEdge(i));
  w.Remove(3);
  w.Remove(6);
  w.Remove(1);
  EXPECT_EQ(w.size(), 5u);
  for (graph::EdgeId i = 8; i < 8 + 64; ++i) {
    w.Push(MakeEdge(i));
    while (w.OverCapacity()) w.PopOldest();
  }
  EXPECT_EQ(w.NumSlots(), slots);  // tombstones recycled, no growth
  EXPECT_FALSE(w.Contains(3));
  EXPECT_TRUE(w.Contains(71));
}

TEST(SlidingWindowTest, DrainViaRemoveThenPushResetsSpan) {
  // Emptying the window entirely through out-of-order removal must reset
  // the id span: a much later id then fits without growing the ring.
  SlidingWindow w(4);
  const size_t slots = w.NumSlots();
  for (graph::EdgeId i = 0; i < 4; ++i) w.Push(MakeEdge(i));
  for (graph::EdgeId i : {2u, 0u, 3u, 1u}) EXPECT_TRUE(w.Remove(i));
  EXPECT_TRUE(w.empty());
  w.Push(MakeEdge(1000000));
  EXPECT_EQ(w.NumSlots(), slots);
  EXPECT_TRUE(w.Contains(1000000));
  EXPECT_EQ(w.PopOldest()->id, 1000000u);
}

TEST(SlidingWindowTest, LingeringEdgeSpillsToOverflowAtBoundedRingSize) {
  // A tiny window whose oldest edge lingers while stream ids race far ahead:
  // the ring must stop growing at its cap and keep the straggler reachable
  // (spilled to the overflow map) with identical external behaviour.
  SlidingWindow w(4);  // ring growth cap: NextPow2(max(16*5, 1024)) = 1024
  w.Push(MakeEdge(0));
  w.Push(MakeEdge(500000));  // id span 500001 >> cap
  EXPECT_LE(w.NumSlots(), 1024u);
  EXPECT_EQ(w.size(), 2u);
  ASSERT_TRUE(w.Contains(0));
  ASSERT_TRUE(w.Contains(500000));
  EXPECT_EQ(w.Find(0)->u, 0u);
  EXPECT_EQ(w.Find(500000)->u, 1000000u);
  EXPECT_EQ(w.PeekOldest()->id, 0u);
  std::vector<graph::EdgeId> ids;
  w.ForEach([&](const StreamEdge& e) { ids.push_back(e.id); });
  EXPECT_EQ(ids, (std::vector<graph::EdgeId>{0, 500000}));
  EXPECT_EQ(w.PopOldest()->id, 0u);  // overflow drains oldest-first
  EXPECT_EQ(w.PopOldest()->id, 500000u);
  EXPECT_TRUE(w.empty());
}

TEST(SlidingWindowTest, GrowthStepAboveCapWithSpanBelowCapDoesNotSpill) {
  // Regression: the x4 growth step can overshoot the ring cap while the id
  // span still fits it; that must clamp the growth, not trigger the spill
  // path (whose new-head arithmetic would underflow).
  SlidingWindow w(4);  // initial 8 slots, cap 1024
  w.Push(MakeEdge(0));
  w.Push(MakeEdge(300));  // grows to 512
  w.Push(MakeEdge(600));  // x4 target 2048 > cap, but span 601 fits
  EXPECT_EQ(w.size(), 3u);
  EXPECT_TRUE(w.Contains(0));
  EXPECT_TRUE(w.Contains(300));
  EXPECT_TRUE(w.Contains(600));
  ASSERT_NE(w.Find(600), nullptr);
  EXPECT_EQ(w.Find(600)->u, 1200u);
  EXPECT_EQ(w.PopOldest()->id, 0u);
  EXPECT_EQ(w.PopOldest()->id, 300u);
  EXPECT_EQ(w.PopOldest()->id, 600u);
}

TEST(SlidingWindowTest, SpilledEdgeSupportsOutOfOrderRemove) {
  SlidingWindow w(4);
  w.Push(MakeEdge(1));
  w.Push(MakeEdge(2));
  w.Push(MakeEdge(800000));
  EXPECT_LE(w.NumSlots(), 1024u);
  EXPECT_TRUE(w.Remove(1));   // spilled
  EXPECT_FALSE(w.Remove(1));  // already gone
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.PopOldest()->id, 2u);
  EXPECT_EQ(w.PopOldest()->id, 800000u);
}

TEST(SlidingWindowTest, InterleavedRemoveAndPopKeepFifoOrder) {
  SlidingWindow w(16);
  for (graph::EdgeId i = 0; i < 10; ++i) w.Push(MakeEdge(i));
  w.Remove(0);
  w.Remove(4);
  w.Remove(9);
  std::vector<graph::EdgeId> popped;
  while (auto e = w.PopOldest()) popped.push_back(e->id);
  EXPECT_EQ(popped, (std::vector<graph::EdgeId>{1, 2, 3, 5, 6, 7, 8}));
}

}  // namespace
}  // namespace stream
}  // namespace loom
