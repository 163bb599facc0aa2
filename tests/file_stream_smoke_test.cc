// file_stream smoke: generates a dataset, exports its stream (binary and
// text), re-streams it through io::FileEdgeSource and the lazy
// engine::GeneratorEdgeSource, and diffs the quality triple (assignment
// hash, edge-cut, imbalance) against the in-memory GraphEdgeSource path —
// for ALL registered backends. This is the PR's acceptance differential:
// no matter where the edges come from (RAM, file, generator), every
// backend must produce bit-identical partitionings. Registered with ctest
// via the standard glob, so it also rides the ASan/UBSan/TSan CI matrix.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "engine/engine.h"
#include "engine/generator_source.h"
#include "io/edge_stream_io.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace {

namespace fs = std::filesystem;

constexpr double kScale = 0.05;

TEST(FileStreamSmokeTest, AllBackendsBitIdenticalAcrossRamFileAndLazySources) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, kScale);
  const engine::EngineOptions options =
      test_util::OptionsFor(ds, /*k=*/8, /*window_size=*/256);

  // Export once per format, canonical order — the one order every source
  // kind (including the lazy generator) can produce.
  const fs::path dir = fs::path(testing::TempDir()) / "loom_file_stream_smoke";
  fs::create_directories(dir);
  const std::string binary_path = (dir / "stream.les").string();
  const std::string text_path = (dir / "stream_text.les").string();
  for (auto [path, format] :
       {std::pair{binary_path, io::StreamFormat::kBinary},
        std::pair{text_path, io::StreamFormat::kText}}) {
    auto source =
        engine::MakeEdgeSource(ds, stream::StreamOrder::kCanonical);
    io::WriteEdgeStream(path, ds.registry, ds.NumVertices(), source.get(),
                        format);
  }

  const std::vector<std::string> backends =
      engine::PartitionerRegistry::Global().Names();
  ASSERT_GE(backends.size(), 5u);

  for (const std::string& spec : backends) {
    SCOPED_TRACE(spec);
    auto in_memory =
        engine::MakeEdgeSource(ds, stream::StreamOrder::kCanonical);
    const test_util::Quality reference =
        test_util::DriveSpec(spec, ds, options, *in_memory);

    io::FileEdgeSource binary(binary_path);
    EXPECT_EQ(test_util::DriveSpec(spec, ds, options, binary), reference)
        << "binary file stream diverged";

    io::FileEdgeSource text(text_path);
    EXPECT_EQ(test_util::DriveSpec(spec, ds, options, text), reference)
        << "text file stream diverged";

    engine::GeneratorEdgeSource lazy(datasets::DatasetId::kProvGen, kScale,
                                     stream::StreamOrder::kCanonical);
    EXPECT_EQ(test_util::DriveSpec(spec, ds, options, lazy), reference)
        << "lazy generator stream diverged";
  }
}

TEST(FileStreamSmokeTest, FileReplayMatchesBfsPathForAllBackends) {
  // Same differential over the evaluation's default (BFS) arrival order:
  // the written file preserves an arbitrary permutation exactly.
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kLubm100, 0.03);
  const engine::EngineOptions options =
      test_util::OptionsFor(ds, /*k=*/8, /*window_size=*/256);

  const fs::path dir = fs::path(testing::TempDir()) / "loom_file_stream_smoke";
  fs::create_directories(dir);
  const std::string path = (dir / "lubm_bfs.les").string();
  {
    auto source =
        engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
    io::WriteEdgeStream(path, ds.registry, ds.NumVertices(), source.get(),
                        io::StreamFormat::kBinary);
  }

  for (const std::string& spec :
       engine::PartitionerRegistry::Global().Names()) {
    SCOPED_TRACE(spec);
    auto in_memory =
        engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
    const test_util::Quality reference =
        test_util::DriveSpec(spec, ds, options, *in_memory);
    io::FileEdgeSource replay(path);
    EXPECT_EQ(test_util::DriveSpec(spec, ds, options, replay), reference);
  }
}

}  // namespace
}  // namespace loom
