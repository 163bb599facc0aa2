// The EdgeSource contract, pinned over every implementation: in-memory
// graph walks (GraphEdgeSource), in-memory replay (SpanEdgeSource), file
// replay in both formats (io::FileEdgeSource) and the lazy generator path
// (engine::GeneratorEdgeSource).
//
// Contract legs (the engine's assumptions in Session):
//   * Drain -> Reset -> drain replays the identical element sequence.
//   * An exhausted source stays exhausted (NextBatch keeps returning 0)
//     until Reset.
//   * SizeHint is exact when nonzero (all sources here know their size).
//   * The element sequence is invariant under batch-boundary choice.
// Plus the construction-time validation satellites: malformed edge-order
// permutations are real errors in Release builds, and lazy generator
// sources reject orders that need adjacency.

#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "engine/edge_source.h"
#include "engine/generator_source.h"
#include "io/edge_stream_io.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace {

constexpr double kScale = 0.03;

struct Env {
  datasets::Dataset ds;
  // The BFS stream, built from the graph without any EdgeSource.
  std::vector<stream::StreamEdge> es;
  std::string binary_path, text_path;  // the same stream, on disk

  Env() : ds(datasets::MakeDataset(datasets::DatasetId::kProvGen, kScale)) {
    es = test_util::ReferenceStream(
        ds.graph,
        stream::EdgeOrderFor(ds.graph, stream::StreamOrder::kBreadthFirst));
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "loom_source_contract";
    fs::create_directories(dir);
    binary_path = (dir / "stream.les").string();
    text_path = (dir / "stream.lest").string();
    for (auto [path, format] :
         {std::pair{&binary_path, io::StreamFormat::kBinary},
          std::pair{&text_path, io::StreamFormat::kText}}) {
      auto src = engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
      io::WriteEdgeStream(*path, ds.registry, ds.NumVertices(), src.get(),
                          format);
    }
  }
};

Env& GetEnv() {
  static Env* env = new Env();
  return *env;
}

struct SourceCase {
  std::string name;
  std::function<std::unique_ptr<engine::EdgeSource>()> make;
};

std::vector<SourceCase> AllSources() {
  return {
      {"graph_bfs",
       [] {
         return engine::MakeEdgeSource(GetEnv().ds,
                                       stream::StreamOrder::kBreadthFirst);
       }},
      {"graph_random",
       [] {
         return engine::MakeEdgeSource(GetEnv().ds,
                                       stream::StreamOrder::kRandom, 42);
       }},
      {"graph_canonical",
       [] {
         return engine::MakeEdgeSource(GetEnv().ds,
                                       stream::StreamOrder::kCanonical);
       }},
      {"span",
       [] { return std::make_unique<engine::SpanEdgeSource>(GetEnv().es); }},
      {"file_binary",
       [] {
         return std::make_unique<io::FileEdgeSource>(GetEnv().binary_path);
       }},
      {"file_text",
       [] { return std::make_unique<io::FileEdgeSource>(GetEnv().text_path); }},
      {"generator_canonical",
       [] {
         return std::make_unique<engine::GeneratorEdgeSource>(
             datasets::DatasetId::kProvGen, kScale,
             stream::StreamOrder::kCanonical);
       }},
      {"generator_random",
       [] {
         return std::make_unique<engine::GeneratorEdgeSource>(
             datasets::DatasetId::kProvGen, kScale,
             stream::StreamOrder::kRandom, 42);
       }},
  };
}

std::vector<stream::StreamEdge> Drain(engine::EdgeSource& source,
                                      size_t batch_size) {
  std::vector<stream::StreamEdge> out;
  std::vector<stream::StreamEdge> batch(batch_size);
  for (;;) {
    const size_t n = source.NextBatch(batch);
    if (n == 0) break;
    out.insert(out.end(), batch.begin(), batch.begin() + n);
  }
  return out;
}

bool SameElement(const stream::StreamEdge& a, const stream::StreamEdge& b) {
  return a.id == b.id && a.u == b.u && a.v == b.v && a.label_u == b.label_u &&
         a.label_v == b.label_v;
}

void ExpectSameSequence(const std::vector<stream::StreamEdge>& a,
                        const std::vector<stream::StreamEdge>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameElement(a[i], b[i])) << label << " diverges at " << i;
  }
}

class EdgeSourceContractTest : public testing::TestWithParam<SourceCase> {};

TEST_P(EdgeSourceContractTest, ResetReplaysIdenticalSequence) {
  auto source = GetParam().make();
  const std::vector<stream::StreamEdge> first = Drain(*source, 64);
  ASSERT_GT(first.size(), 0u);
  source->Reset();
  const std::vector<stream::StreamEdge> second = Drain(*source, 64);
  ExpectSameSequence(first, second, GetParam().name);
}

TEST_P(EdgeSourceContractTest, ExhaustionStaysExhaustedUntilReset) {
  auto source = GetParam().make();
  Drain(*source, 64);
  std::vector<stream::StreamEdge> batch(16);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(source->NextBatch(batch), 0u) << GetParam().name;
  }
  source->Reset();
  EXPECT_GT(source->NextBatch(batch), 0u) << GetParam().name;
}

TEST_P(EdgeSourceContractTest, SizeHintIsExact) {
  auto source = GetParam().make();
  const size_t hint = source->SizeHint();
  const std::vector<stream::StreamEdge> all = Drain(*source, 64);
  EXPECT_EQ(hint, all.size()) << GetParam().name;
  // Stream ids are dense positions.
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i].id, static_cast<graph::EdgeId>(i)) << GetParam().name;
  }
}

TEST_P(EdgeSourceContractTest, SequenceInvariantUnderBatchBoundaries) {
  auto source = GetParam().make();
  const std::vector<stream::StreamEdge> reference = Drain(*source, 64);
  for (size_t batch_size : {1u, 3u, 97u, 4096u}) {
    source->Reset();
    ExpectSameSequence(reference, Drain(*source, batch_size),
                       GetParam().name + " @batch " +
                           std::to_string(batch_size));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, EdgeSourceContractTest, testing::ValuesIn(AllSources()),
    [](const testing::TestParamInfo<SourceCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------- SkipTo (resume cursor)

// The checkpoint-resume contract: SkipTo(b) followed by a drain must equal
// the fresh replay's suffix from b — at EVERY batch boundary, both formats.
// A resumed run replays nothing and re-reads nothing, so any off-by-one
// here would silently shift the whole tail of the stream.
TEST(EdgeSourceSkipToTest, ResumeAtEveryBatchBoundaryEqualsFreshReplay) {
  Env& env = GetEnv();
  constexpr size_t kBatch = 64;
  for (const std::string& path : {env.binary_path, env.text_path}) {
    io::FileEdgeSource source(path);
    const std::vector<stream::StreamEdge> reference = Drain(source, kBatch);
    ASSERT_GT(reference.size(), kBatch);  // several boundaries to resume at
    for (size_t boundary = 0; boundary <= reference.size();
         boundary += kBatch) {
      source.SkipTo(boundary);
      const std::vector<stream::StreamEdge> tail = Drain(source, kBatch);
      const std::vector<stream::StreamEdge> expected(
          reference.begin() + static_cast<ptrdiff_t>(boundary),
          reference.end());
      ExpectSameSequence(expected, tail,
                         path + " @skip " + std::to_string(boundary));
    }
    // The exact end is a legal cursor (resume after the last pre-Finish
    // checkpoint): already exhausted, nothing to read.
    source.SkipTo(reference.size());
    std::vector<stream::StreamEdge> batch(8);
    EXPECT_EQ(source.NextBatch(batch), 0u) << path;
  }
}

TEST(EdgeSourceSkipToTest, SkipPastTheDeclaredCountThrows) {
  Env& env = GetEnv();
  for (const std::string& path : {env.binary_path, env.text_path}) {
    io::FileEdgeSource source(path);
    try {
      source.SkipTo(source.info().edge_count + 1);
      FAIL() << path << ": skip past the end should throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot skip"), std::string::npos)
          << e.what();
    }
  }
}

TEST(EdgeSourceSkipToTest, ResetAfterSkipRearmsTheFullStreamChecksum) {
  Env& env = GetEnv();
  // Binary streams verify the payload checksum only over full reads; a
  // mid-stream skip waives it (the prefix was never read), but a Reset must
  // restore the waiver — and a full drain must still verify clean.
  io::FileEdgeSource source(env.binary_path);
  source.SkipTo(env.es.size() / 2);
  Drain(source, 64);  // partial read: checksum deliberately not checked
  source.Reset();
  const std::vector<stream::StreamEdge> full = Drain(source, 64);
  EXPECT_EQ(full.size(), env.es.size());  // full read: checksum verified
}

// ------------------------------------------- cross-source equivalences

TEST(EdgeSourceEquivalenceTest, FileSourcesReplayTheWrittenStream) {
  Env& env = GetEnv();
  for (const std::string& path : {env.binary_path, env.text_path}) {
    io::FileEdgeSource source(path);
    ExpectSameSequence(env.es, Drain(source, 64), path);
  }
}

TEST(EdgeSourceEquivalenceTest, GeneratorSourceMatchesMaterialisedDataset) {
  // The lazy generator path must emit exactly what streaming the built
  // (normalised, isolated-vertex-compacted) graph would — both orders.
  Env& env = GetEnv();
  for (auto order :
       {stream::StreamOrder::kCanonical, stream::StreamOrder::kRandom}) {
    auto in_memory =
        engine::MakeEdgeSource(env.ds, order, stream::kDefaultStreamSeed);
    engine::GeneratorEdgeSource lazy(datasets::DatasetId::kProvGen, kScale,
                                     order, stream::kDefaultStreamSeed);
    EXPECT_EQ(lazy.NumVertices(), env.ds.NumVertices());
    EXPECT_EQ(lazy.NumEdges(), env.ds.NumEdges());
    ExpectSameSequence(Drain(*in_memory, 64), Drain(lazy, 64),
                       "generator/" + stream::ToString(order));
  }
  // Same label table, same ids.
  engine::GeneratorEdgeSource lazy(datasets::DatasetId::kProvGen, kScale);
  ASSERT_EQ(lazy.registry().size(), env.ds.registry.size());
  for (graph::LabelId l = 0; l < env.ds.registry.size(); ++l) {
    EXPECT_EQ(lazy.registry().Name(l), env.ds.registry.Name(l));
  }
}

TEST(EdgeSourceValidationTest, GeneratorSourceRejectsAdjacencyOrders) {
  for (auto order : {stream::StreamOrder::kBreadthFirst,
                     stream::StreamOrder::kDepthFirst}) {
    try {
      engine::GeneratorEdgeSource source(datasets::DatasetId::kProvGen, 0.01,
                                         order);
      FAIL() << "order " << stream::ToString(order) << " should throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(stream::ToString(order)),
                std::string::npos)
          << e.what();
    }
  }
}

// The satellite fix: a malformed permutation must be an actionable error
// in Release builds too (it used to be a debug-only assert).
TEST(EdgeSourceValidationTest, MalformedPermutationIsARealError) {
  datasets::Dataset ds = datasets::MakeFigure1Dataset();
  const size_t m = ds.NumEdges();

  // Wrong length.
  try {
    engine::GraphEdgeSource source(ds.graph, std::vector<graph::EdgeId>(m - 1));
    FAIL() << "short permutation should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("permutation"), std::string::npos);
  }

  // Out-of-range id.
  std::vector<graph::EdgeId> out_of_range(m);
  std::iota(out_of_range.begin(), out_of_range.end(), 0);
  out_of_range[2] = static_cast<graph::EdgeId>(m + 7);
  try {
    engine::GraphEdgeSource source(ds.graph, out_of_range);
    FAIL() << "out-of-range id should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }

  // Duplicate id.
  std::vector<graph::EdgeId> duplicated(m);
  std::iota(duplicated.begin(), duplicated.end(), 0);
  duplicated[1] = duplicated[0];
  try {
    engine::GraphEdgeSource source(ds.graph, duplicated);
    FAIL() << "duplicate id should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("repeats"), std::string::npos);
  }

  // A valid permutation still constructs.
  std::vector<graph::EdgeId> ok(m);
  std::iota(ok.begin(), ok.end(), 0);
  EXPECT_NO_THROW(engine::GraphEdgeSource(ds.graph, ok));
}

}  // namespace
}  // namespace loom
