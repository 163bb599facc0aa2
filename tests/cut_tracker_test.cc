#include "serve/cut_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/checkpoint.h"
#include "serve/assignment_table.h"
#include "stream/stream_edge.h"

namespace loom {
namespace serve {
namespace {

stream::StreamEdge E(graph::VertexId u, graph::VertexId v) {
  stream::StreamEdge e;
  e.u = u;
  e.v = v;
  return e;
}

/// A run of one edge.
void Add(CutTracker* cut, const stream::StreamEdge& e) {
  cut->AddEdges(std::span<const stream::StreamEdge>(&e, 1));
}

TEST(CutTrackerTest, ResolvesPlacedEdgesImmediately) {
  AssignmentTable table;
  CutTracker cut(&table);
  table.Publish(0, 0);
  table.Publish(1, 1);
  table.Publish(2, 0);
  Add(&cut, E(0, 1));  // apart → cut
  Add(&cut, E(0, 2));  // together → not cut
  EXPECT_EQ(cut.cut(), 1u);
  EXPECT_EQ(cut.edges_seen(), 2u);
  EXPECT_EQ(cut.pending(), 0u);
}

TEST(CutTrackerTest, ParksAndResolvesOnAssignment) {
  AssignmentTable table;
  CutTracker cut(&table);
  // Both endpoints unplaced: the edge parks on u, then re-parks on v when
  // u's placement arrives with v still pending.
  Add(&cut, E(5, 6));
  EXPECT_EQ(cut.pending(), 1u);
  table.Publish(5, 0);
  cut.Append(5, 0);
  EXPECT_EQ(cut.pending(), 1u);  // re-parked on 6
  EXPECT_EQ(cut.cut(), 0u);
  table.Publish(6, 1);
  cut.Append(6, 1);
  EXPECT_EQ(cut.pending(), 0u);
  EXPECT_EQ(cut.cut(), 1u);
}

// A self-loop can never be cut (its endpoints share a partition by
// definition) but it still flows through the park/resolve machinery when
// the vertex is unplaced — the counters must come back to zero pending.
TEST(CutTrackerTest, SelfLoopsNeverCut) {
  AssignmentTable table;
  CutTracker cut(&table);
  table.Publish(3, 2);
  Add(&cut, E(3, 3));  // already placed: resolves now, same partition
  EXPECT_EQ(cut.cut(), 0u);
  EXPECT_EQ(cut.pending(), 0u);

  Add(&cut, E(8, 8));  // unplaced: parks on 8 waiting for itself
  EXPECT_EQ(cut.pending(), 1u);
  table.Publish(8, 1);
  cut.Append(8, 1);
  EXPECT_EQ(cut.cut(), 0u);
  EXPECT_EQ(cut.pending(), 0u);
}

// Parallel edges park as distinct list nodes; a single placement
// must resolve ALL of them, each contributing to the cut independently.
TEST(CutTrackerTest, DuplicateParkedPairsEachResolve) {
  AssignmentTable table;
  CutTracker cut(&table);
  table.Publish(1, 1);
  Add(&cut, E(0, 1));
  Add(&cut, E(0, 1));
  Add(&cut, E(0, 1));
  EXPECT_EQ(cut.pending(), 3u);
  table.Publish(0, 0);
  cut.Append(0, 0);
  EXPECT_EQ(cut.pending(), 0u);
  EXPECT_EQ(cut.cut(), 3u);
}

TEST(CutTrackerTest, CheckpointRoundTripsCountersAndParkedEdges) {
  AssignmentTable table;
  CutTracker cut(&table);
  table.Publish(0, 0);
  table.Publish(1, 1);
  Add(&cut, E(0, 1));  // resolved: cut
  Add(&cut, E(2, 3));  // parked on 2
  Add(&cut, E(2, 4));  // parked on 2
  EXPECT_EQ(cut.pending(), 2u);

  io::CheckpointWriter w;
  cut.Save(&w);
  const std::string path = testing::TempDir() + "/cut_roundtrip.loomck";
  w.Commit(path);

  AssignmentTable table2;
  CutTracker restored(&table2);
  io::CheckpointReader r(path);
  restored.Restore(&r);
  EXPECT_EQ(restored.cut(), 1u);
  EXPECT_EQ(restored.edges_seen(), 3u);
  EXPECT_EQ(restored.pending(), 2u);

  // The restored parked state keeps resolving exactly like the original's.
  table2.Publish(2, 0);
  restored.Append(2, 0);
  table2.Publish(3, 1);
  restored.Append(3, 1);
  table2.Publish(4, 0);
  restored.Append(4, 0);
  EXPECT_EQ(restored.pending(), 0u);
  EXPECT_EQ(restored.cut(), 2u);  // (2,3) apart, (2,4) together
}

// pending_count_ travels separately from the parked entries; Restore must
// recompute the relationship and reject a desynced counter instead of
// mis-reporting the cut forever after resume.
TEST(CutTrackerTest, RestoreRejectsPendingCounterDesync) {
  io::CheckpointWriter w;
  w.BeginSection("serve.cut");
  w.U64(0);  // cut
  w.U64(2);  // edges_seen
  w.U64(5);  // pending_count claims 5; only one parked entry follows
  w.U64(1);
  w.U32(7);
  w.U32(8);
  w.EndSection();
  const std::string path = testing::TempDir() + "/cut_desync.loomck";
  w.Commit(path);

  AssignmentTable table;
  CutTracker cut(&table);
  io::CheckpointReader r(path);
  EXPECT_THROW(
      {
        try {
          cut.Restore(&r);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("pending counter"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST(CutTrackerTest, RestoreRejectsCheckpointWithoutCutSection) {
  io::CheckpointWriter w;
  w.BeginSection("unrelated");
  w.U64(1);
  w.EndSection();
  const std::string path = testing::TempDir() + "/cut_nosection.loomck";
  w.Commit(path);

  AssignmentTable table;
  CutTracker cut(&table);
  io::CheckpointReader r(path);
  EXPECT_THROW(cut.Restore(&r), std::runtime_error);
}

/// Restore's message for a rejected checkpoint, or "" if it was accepted.
std::string RestoreError(CutTracker* cut, const std::string& path) {
  io::CheckpointReader r(path);
  try {
    cut->Restore(&r);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// A forged count must be rejected by the section's size before anything is
// sized by it; the old reserve(n) asked for 16 TB here.
TEST(CutTrackerTest, RestoreRejectsForgedCountBeforeAllocating) {
  io::CheckpointWriter w;
  w.BeginSection("serve.cut");
  w.U64(0);                    // cut
  w.U64(1);                    // edges_seen
  w.U64(uint64_t{1} << 40);    // pending
  w.U64(uint64_t{1} << 40);    // parked entries; one follows
  w.U32(7);
  w.U32(8);
  w.EndSection();
  const std::string path = testing::TempDir() + "/cut_forged_count.loomck";
  w.Commit(path);

  AssignmentTable table;
  CutTracker cut(&table, /*vertex_bound=*/1000);
  const std::string error = RestoreError(&cut, path);
  EXPECT_NE(error.find("do not fit"), std::string::npos) << error;
  EXPECT_EQ(cut.memory_bytes(), 0u);
  EXPECT_EQ(cut.pending(), 0u);
}

// A parked id past the server's INGEST bound would size a head chunk no
// served edge can reach; with no bound set, kInvalidVertex is still out.
TEST(CutTrackerTest, RestoreRejectsForgedVertexIdBeforeAllocating) {
  auto write = [](const std::string& name, graph::VertexId waiting_on) {
    io::CheckpointWriter w;
    w.BeginSection("serve.cut");
    w.U64(0);
    w.U64(1);
    w.U64(1);
    w.U64(1);
    w.U32(waiting_on);
    w.U32(3);
    w.EndSection();
    const std::string path = testing::TempDir() + "/" + name;
    w.Commit(path);
    return path;
  };
  AssignmentTable table;
  {
    CutTracker cut(&table, /*vertex_bound=*/1000);
    const std::string error =
        RestoreError(&cut, write("cut_forged_id.loomck", 4000000000u));
    EXPECT_NE(error.find("bound 1000"), std::string::npos) << error;
    EXPECT_EQ(cut.memory_bytes(), 0u);
  }
  {
    CutTracker cut(&table);
    const std::string error =
        RestoreError(&cut, write("cut_bad_id.loomck", graph::kInvalidVertex));
    EXPECT_NE(error.find("bound"), std::string::npos) << error;
    EXPECT_EQ(cut.memory_bytes(), 0u);
  }
  {
    // The same entry inside the bound restores.
    CutTracker cut(&table, /*vertex_bound=*/1000);
    EXPECT_EQ(RestoreError(&cut, write("cut_ok_id.loomck", 999)), "");
    EXPECT_EQ(cut.pending(), 1u);
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string SavedBytes(const CutTracker& cut, const std::string& name) {
  io::CheckpointWriter w;
  cut.Save(&w);
  const std::string path = testing::TempDir() + "/" + name;
  w.Commit(path);
  return FileBytes(path);
}

/// Brute-force recount over every edge added so far: an edge is cut when
/// both endpoints are placed apart, pending while either is unplaced.
void ExpectMatchesRecount(const CutTracker& cut, const AssignmentTable& table,
                          const std::vector<stream::StreamEdge>& added,
                          const std::string& where) {
  uint64_t want_cut = 0;
  uint64_t want_pending = 0;
  for (const stream::StreamEdge& e : added) {
    const graph::PartitionId pu = table.Get(e.u);
    const graph::PartitionId pv = table.Get(e.v);
    if (pu == graph::kNoPartition || pv == graph::kNoPartition) {
      ++want_pending;
    } else if (pu != pv) {
      ++want_cut;
    }
  }
  ASSERT_EQ(cut.cut(), want_cut) << where;
  ASSERT_EQ(cut.pending(), want_pending) << where;
  ASSERT_EQ(cut.edges_seen(), added.size()) << where;
}

// Model test: random runs of edges (duplicate pairs, self-loops, both ends
// unplaced) interleaved with placements, checked against the recount after
// every step, with a Save/Restore round trip halfway. Ids span two head
// chunks so re-parks cross chunk boundaries.
TEST(CutTrackerTest, MatchesBruteForceRecountOnRandomSequences) {
  constexpr graph::VertexId kLowIds = 48;
  constexpr graph::VertexId kHighBase = 65536 - 8;  // straddles chunk 0/1
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    auto vertex = [&] {
      const uint64_t r = rng() % (kLowIds + 16);
      return static_cast<graph::VertexId>(
          r < kLowIds ? r : kHighBase + (r - kLowIds));
    };
    std::vector<graph::VertexId> unplaced;
    for (graph::VertexId v = 0; v < kLowIds; ++v) unplaced.push_back(v);
    for (graph::VertexId v = kHighBase; v < kHighBase + 16; ++v) {
      unplaced.push_back(v);
    }
    std::shuffle(unplaced.begin(), unplaced.end(), rng);

    auto table = std::make_unique<AssignmentTable>();
    auto cut = std::make_unique<CutTracker>(table.get());
    std::vector<stream::StreamEdge> added;
    std::vector<std::pair<graph::VertexId, graph::PartitionId>> placed;
    constexpr int kSteps = 400;
    for (int step = 0; step < kSteps; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      if (step == kSteps / 2) {
        // Round trip: a fresh table re-seeded with every placement (as a
        // resumed server does) and a tracker restored from the save.
        io::CheckpointWriter w;
        cut->Save(&w);
        const std::string path = testing::TempDir() + "/cut_model.loomck";
        w.Commit(path);
        auto table2 = std::make_unique<AssignmentTable>();
        for (const auto& [v, p] : placed) table2->Publish(v, p);
        auto cut2 = std::make_unique<CutTracker>(table2.get());
        io::CheckpointReader r(path);
        cut2->Restore(&r);
        ASSERT_EQ(SavedBytes(*cut2, "cut_model_resaved.loomck"),
                  FileBytes(path))
            << where;
        cut = std::move(cut2);
        table = std::move(table2);
        ASSERT_NO_FATAL_FAILURE(
            ExpectMatchesRecount(*cut, *table, added, where + " (restored)"));
      }
      if (rng() % 3 != 0 || unplaced.empty()) {
        std::vector<stream::StreamEdge> run(1 + rng() % 6);
        for (stream::StreamEdge& e : run) {
          const uint64_t kind = rng() % 8;
          if (kind == 0) {
            e = E(vertex(), 0);
            e.v = e.u;  // self-loop
          } else if (kind == 1 && !added.empty()) {
            e = added[rng() % added.size()];  // duplicate pair
          } else {
            e = E(vertex(), vertex());
          }
        }
        cut->AddEdges(run);
        added.insert(added.end(), run.begin(), run.end());
      } else {
        const graph::VertexId v = unplaced.back();
        unplaced.pop_back();
        const auto p = static_cast<graph::PartitionId>(rng() % 3);
        table->Publish(v, p);  // the table ahead of the tracker, as served
        cut->Append(v, p);
        placed.emplace_back(v, p);
      }
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesRecount(*cut, *table, added, where));
    }
  }
}

// Save sorts: two trackers holding the same parked multiset write the same
// bytes whatever order it was parked (and partly resolved) in.
TEST(CutTrackerTest, SameParkedMultisetSavesIdenticalBytes) {
  std::vector<stream::StreamEdge> edges;
  for (graph::VertexId u = 0; u < 30; ++u) {
    edges.push_back(E(u, (u * 7 + 3) % 30 + 100));
    edges.push_back(E(u, (u * 7 + 3) % 30 + 100));  // duplicate pair
    edges.push_back(E(70000 + u, u % 5));           // second head chunk
  }
  edges.push_back(E(5, 5));
  AssignmentTable table_a, table_b;
  CutTracker a(&table_a), b(&table_b);
  a.AddEdges(edges);
  std::mt19937_64 rng(7);
  std::shuffle(edges.begin(), edges.end(), rng);
  for (size_t i = 0; i < edges.size(); i += 4) {
    b.AddEdges(std::span<const stream::StreamEdge>(edges).subspan(
        i, std::min<size_t>(4, edges.size() - i)));
  }
  ASSERT_EQ(a.pending(), edges.size());
  EXPECT_EQ(SavedBytes(a, "cut_order_a.loomck"),
            SavedBytes(b, "cut_order_b.loomck"));

  // Placing the same vertices in different orders re-parks the same edges
  // onto the same endpoints: the bytes still agree.
  const std::vector<graph::VertexId> place = {0, 1, 2, 3, 4, 5, 100, 101};
  for (const graph::VertexId v : place) {
    table_a.Publish(v, v % 2);
    a.Append(v, v % 2);
  }
  for (auto it = place.rbegin(); it != place.rend(); ++it) {
    table_b.Publish(*it, *it % 2);
    b.Append(*it, *it % 2);
  }
  EXPECT_EQ(a.cut(), b.cut());
  EXPECT_EQ(a.pending(), b.pending());
  EXPECT_EQ(SavedBytes(a, "cut_order_a2.loomck"),
            SavedBytes(b, "cut_order_b2.loomck"));
}

}  // namespace
}  // namespace serve
}  // namespace loom
