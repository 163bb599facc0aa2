#include "graph/adjacency_arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "io/checkpoint.h"
#include "util/rng.h"

namespace loom {
namespace graph {
namespace {

// ------------------------------------------------------------ chain walks

// Every page capacity must read back the exact append order; capacity 1
// degenerates to a linked list of single slots, 3 leaves ragged tails,
// 64 is the production default (most chains fit one page).
TEST(AdjacencyArenaTest, WalkMatchesReferenceAcrossPageCapacities) {
  for (const uint32_t cap : {1u, 2u, 3u, 4u, 64u}) {
    AdjacencyArena arena(cap);
    arena.Reserve(4);
    std::vector<std::vector<VertexId>> ref(4);
    util::SplitMix64 rng(0x9E3779B97F4A7C15ull ^ cap);
    for (int i = 0; i < 500; ++i) {
      const VertexId v = static_cast<VertexId>(rng.Next() % 4);
      const VertexId w = static_cast<VertexId>(rng.Next() % 1000);
      arena.Append(v, w);
      ref[v].push_back(w);
    }
    for (VertexId v = 0; v < 4; ++v) {
      ASSERT_EQ(arena.Degree(v), ref[v].size()) << "cap=" << cap;
      EXPECT_EQ(arena.Neighbors(v).ToVector(), ref[v]) << "cap=" << cap;
    }
  }
}

// Iterator walk, chunk walk, and size() must agree — the three ways the
// scoring cores consume a range.
TEST(AdjacencyArenaTest, IteratorAndChunkWalksAgree) {
  AdjacencyArena arena(3);
  arena.Reserve(1);
  std::vector<VertexId> ref;
  for (VertexId w = 0; w < 11; ++w) {  // 3 full pages + 2-slot tail
    arena.Append(0, w);
    ref.push_back(w);
  }
  const NeighborRange range = arena.Neighbors(0);
  EXPECT_EQ(range.size(), ref.size());

  std::vector<VertexId> via_iter;
  for (const VertexId w : range) via_iter.push_back(w);
  EXPECT_EQ(via_iter, ref);

  std::vector<VertexId> via_chunks;
  size_t chunks = 0;
  range.ForEachChunk([&](const VertexId* data, size_t n) {
    via_chunks.insert(via_chunks.end(), data, data + n);
    EXPECT_LE(n, 3u);
    ++chunks;
  });
  EXPECT_EQ(via_chunks, ref);
  EXPECT_EQ(chunks, 4u);  // ceil(11 / 3)
}

TEST(AdjacencyArenaTest, EmptyAndOutOfRangeChainsAreEmptyRanges) {
  AdjacencyArena arena(4);
  arena.Reserve(2);
  EXPECT_EQ(arena.Degree(0), 0u);
  EXPECT_TRUE(arena.Neighbors(0).empty());
  EXPECT_EQ(arena.Neighbors(0).begin(), arena.Neighbors(0).end());
  // Out-of-range ids are degree 0, not UB — Degree/Neighbors bound-check.
  EXPECT_EQ(arena.Degree(999), 0u);
  EXPECT_TRUE(arena.Neighbors(999).empty());
}

// The look-ahead hints read the arena but never write or grow it. They
// run before every append at every page capacity, so they see untouched
// slots, ids past NumSlots, edgeless chains, partial tails and full tails
// (after every append at capacity 1, every fourth at 4, and at counts 4,
// 12, 28, 60, 124 and 188 at 64).
// The hinted arena must match an unhinted twin entry for entry.
TEST(AdjacencyArenaTest, LookaheadHintsNeverChangeTheArena) {
  const VertexId probes[] = {0, 1, 2, 3, 999, kInvalidVertex};
  for (const uint32_t cap : {1u, 3u, 4u, 64u}) {
    AdjacencyArena hinted(cap);
    AdjacencyArena plain(cap);
    hinted.Reserve(3);
    plain.Reserve(3);
    for (VertexId w = 0; w < 200; ++w) {
      for (const VertexId v : probes) {
        hinted.PrefetchChain(v);
        hinted.PrefetchAppend(v);
      }
      ASSERT_EQ(hinted.NumSlots(), 3u) << "cap=" << cap;
      ASSERT_EQ(hinted.Degree(0), w) << "cap=" << cap;
      ASSERT_EQ(hinted.Degree(1), 0u) << "cap=" << cap;
      hinted.Append(0, w);
      plain.Append(0, w);
      if (w % 7 == 0) {
        hinted.Append(2, w);
        plain.Append(2, w);
      }
    }
    EXPECT_EQ(hinted.TotalEntries(), plain.TotalEntries()) << "cap=" << cap;
    for (VertexId v = 0; v < 3; ++v) {
      EXPECT_EQ(hinted.Neighbors(v).ToVector(), plain.Neighbors(v).ToVector())
          << "cap=" << cap << " v=" << v;
    }
  }
}

// A NeighborRange snapshot taken before further appends must keep seeing
// exactly the entries the chain held at snapshot time.
TEST(AdjacencyArenaTest, SnapshotIsStableAcrossLaterAppends) {
  AdjacencyArena arena(2);
  arena.Reserve(1);
  for (VertexId w = 0; w < 3; ++w) arena.Append(0, w);
  const NeighborRange snap = arena.Neighbors(0);
  for (VertexId w = 3; w < 40; ++w) arena.Append(0, w);  // grows the chain
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.ToVector(), (std::vector<VertexId>{0, 1, 2}));
}

// ReserveEntries is an allocation hint only: chain contents, degrees and
// page-chain geometry must be identical with and without pre-sizing, for
// accurate hints, wild over-estimates and zero alike.
TEST(AdjacencyArenaTest, ReserveEntriesNeverChangesContentOrGeometry) {
  constexpr size_t kSlots = 64;
  constexpr int kAppends = 5000;
  for (const uint64_t hint : {uint64_t{0}, uint64_t{kAppends},
                              uint64_t{10} * kAppends, uint64_t{1}}) {
    AdjacencyArena plain(4), hinted(4);
    plain.Reserve(kSlots);
    hinted.Reserve(kSlots);
    hinted.ReserveEntries(hint);
    // Re-hinting mid-life must also be harmless.
    hinted.ReserveEntries(hint / 2);
    util::SplitMix64 rng(0xfeedface);
    for (int i = 0; i < kAppends; ++i) {
      const VertexId v = static_cast<VertexId>(rng.Next() % kSlots);
      const VertexId w = static_cast<VertexId>(rng.Next() % 100000);
      plain.Append(v, w);
      hinted.Append(v, w);
    }
    ASSERT_EQ(plain.TotalEntries(), hinted.TotalEntries()) << hint;
    for (VertexId v = 0; v < kSlots; ++v) {
      ASSERT_EQ(plain.Degree(v), hinted.Degree(v)) << hint;
      EXPECT_EQ(plain.Neighbors(v).ToVector(), hinted.Neighbors(v).ToVector())
          << "hint=" << hint << " v=" << v;
      // Same page-chain geometry: chunk sizes must line up exactly.
      std::vector<size_t> chunks_plain, chunks_hinted;
      plain.Neighbors(v).ForEachChunk(
          [&](const VertexId*, size_t n) { chunks_plain.push_back(n); });
      hinted.Neighbors(v).ForEachChunk(
          [&](const VertexId*, size_t n) { chunks_hinted.push_back(n); });
      EXPECT_EQ(chunks_plain, chunks_hinted) << "hint=" << hint << " v=" << v;
    }
  }
}

// ------------------------------------------------------------- checkpoints

// SaveChain's bytes must equal PodVec of the equivalent vector — that
// identity is what lets pre-arena DynamicGraph checkpoints load
// transparently and equal states hash identically.
TEST(AdjacencyArenaTest, SaveChainBytesMatchPodVecEncoding) {
  AdjacencyArena arena(3);
  arena.Reserve(2);
  std::vector<VertexId> ref;
  for (VertexId w = 100; w < 108; ++w) {
    arena.Append(0, w);
    ref.push_back(w);
  }
  // Chain 1 stays empty: the empty encoding (a lone zero count) matters too.

  io::CheckpointWriter via_arena;
  via_arena.BeginSection("a");
  arena.SaveChain(&via_arena, 0);
  arena.SaveChain(&via_arena, 1);
  via_arena.EndSection();

  io::CheckpointWriter via_podvec;
  via_podvec.BeginSection("a");
  via_podvec.PodVec(ref);
  via_podvec.PodVec(std::vector<VertexId>{});
  via_podvec.EndSection();

  const std::string pa = testing::TempDir() + "/arena_enc_a.loomck";
  const std::string pb = testing::TempDir() + "/arena_enc_b.loomck";
  via_arena.Commit(pa);
  via_podvec.Commit(pb);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string bytes_a = slurp(pa);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, slurp(pb));
}

// Round-trip through a DIFFERENT page capacity: the encoding carries no
// page structure, so a cap-3 arena's chains restore into a cap-64 arena.
TEST(AdjacencyArenaTest, LoadChainRoundTripsAcrossCapacities) {
  AdjacencyArena src(3);
  src.Reserve(2);
  for (VertexId w = 0; w < 10; ++w) src.Append(0, w * 7);
  src.Append(1, 42);

  io::CheckpointWriter w;
  w.BeginSection("a");
  src.SaveChain(&w, 0);
  src.SaveChain(&w, 1);
  w.EndSection();
  const std::string path = testing::TempDir() + "/arena_roundtrip.loomck";
  w.Commit(path);

  io::CheckpointReader r(path);
  r.Open("a");
  AdjacencyArena dst(64);
  dst.Reserve(2);
  dst.LoadChain(&r, 0);
  dst.LoadChain(&r, 1);
  r.Close();

  EXPECT_EQ(dst.Neighbors(0).ToVector(), src.Neighbors(0).ToVector());
  EXPECT_EQ(dst.Neighbors(1).ToVector(), src.Neighbors(1).ToVector());
  EXPECT_EQ(dst.TotalEntries(), src.TotalEntries());
}

}  // namespace
}  // namespace graph
}  // namespace loom
