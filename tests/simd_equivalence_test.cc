// Backend-level differential proof for the util::simd dispatch: a finished
// partitioning must be BIT-IDENTICAL — assignment hash, edge-cut, imbalance
// — no matter which kernel level computed it. The kernel-level suite
// (simd_kernels_test.cc) proves each kernel equal on its own inputs; this
// suite proves the composition: whole backends (loom, ldg — every consumer of the signature / equal-opportunism / LDG-tally kernels)
// driven end to end over real datasets under forced-scalar vs the CPU's
// best level, plus the engine-option spelling ("name:simd=scalar") that
// tools and benches use.
//
// A divergence here means a kernel is NOT bit-identical on some input the
// synthetic fuzz missed — quality silently depending on the host CPU — so
// this suite is the dispatch layer's real acceptance gate. It rides the
// ASan/UBSan/TSan ctest matrix like every differential suite.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "datasets/dataset_registry.h"
#include "engine/engine.h"
#include "stream/stream_order.h"
#include "test_util.h"
#include "util/simd.h"

namespace loom {
namespace core {
namespace {

/// Small-but-eviction-heavy scales: cluster allocation traffic is where the
/// double arithmetic lives.
double ScaleFor(datasets::DatasetId id) {
  return id == datasets::DatasetId::kProvGen ? 0.06 : 0.05;
}

using SimdParam = std::tuple<datasets::DatasetId, const char*>;

class SimdEquivalenceTest : public ::testing::TestWithParam<SimdParam> {};

TEST_P(SimdEquivalenceTest, BitIdenticalAcrossEveryDispatchLevel) {
  const auto [dataset, spec] = GetParam();
  const datasets::Dataset ds = datasets::MakeDataset(dataset, ScaleFor(dataset));
  const engine::EngineOptions options = test_util::OptionsFor(ds);
  const uint64_t seed = 0x51D;

  // ForEachSimdLevel visits scalar first (pinned by SimdDispatchTest), so
  // the first drive is the forced-scalar reference; it also restores the
  // pre-test level afterwards.
  std::optional<test_util::Quality> reference;
  test_util::ForEachSimdLevel([&](util::simd::Level level) {
    const test_util::Quality q = test_util::DriveSpec(
        spec, ds, options, stream::StreamOrder::kBreadthFirst, seed,
        /*batch_size=*/256);
    if (!reference.has_value()) {
      ASSERT_EQ(level, util::simd::Level::kScalar);
      reference = q;
      return;
    }
    EXPECT_EQ(q, *reference)
        << spec << " diverged from the scalar twin at dispatch level "
        << util::simd::LevelName(level);
  });
  EXPECT_TRUE(reference.has_value());
}

TEST_P(SimdEquivalenceTest, EngineOptionSpellingForcesTheLevel) {
  const auto [dataset, spec] = GetParam();
  const datasets::Dataset ds = datasets::MakeDataset(dataset, ScaleFor(dataset));
  const engine::EngineOptions options = test_util::OptionsFor(ds);
  const uint64_t seed = 0x51D;

  // The spec-string spelling every CLI/bench surface uses: force each
  // supported level through "name:simd=<level>" and compare.
  std::map<std::string, test_util::Quality> by_level;
  for (util::simd::Level level : util::simd::SupportedLevels()) {
    const std::string forced = std::string(spec) +
                               (std::string(spec).find(':') == std::string::npos
                                    ? ":simd="
                                    : ",simd=") +
                               util::simd::LevelName(level);
    by_level[util::simd::LevelName(level)] = test_util::DriveSpec(
        forced, ds, options, stream::StreamOrder::kBreadthFirst, seed,
        /*batch_size=*/512);
  }
  for (const auto& [name, quality] : by_level) {
    EXPECT_EQ(quality, by_level.at("scalar"))
        << spec << " with simd=" << name << " diverged from simd=scalar";
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndDatasets, SimdEquivalenceTest,
    ::testing::Combine(::testing::Values(datasets::DatasetId::kMusicBrainz,
                                         datasets::DatasetId::kProvGen),
                       ::testing::Values("loom", "ldg")),
    [](const ::testing::TestParamInfo<SimdParam>& info) {
      std::string name =
          datasets::MakeDataset(std::get<0>(info.param), 0.01).meta.name;
      std::string spec = std::get<1>(info.param);
      for (std::string* s : {&name, &spec}) {
        for (char& c : *s) {
          if (!isalnum(static_cast<unsigned char>(c))) c = '_';
        }
      }
      return name + "_" + spec;
    });

}  // namespace
}  // namespace core
}  // namespace loom
