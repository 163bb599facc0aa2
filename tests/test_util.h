// Shared fixtures for the partitioner test suites.
//
// Before this header, every suite hand-rolled the same four steps: size an
// EngineOptions from a dataset, build a backend through the registry,
// stream the dataset through it, and compare the golden quality triple
// (assignment hash, edge-cut, imbalance). Those steps are the definition
// of "bit-identical partitioning" used by the differential suites (SIMD,
// adjacency, batch-split), the contract suite and the bench smoke
// baseline — so they live here, once.

#ifndef LOOM_TESTS_TEST_UTIL_H_
#define LOOM_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "datasets/dataset_registry.h"
#include "engine/engine.h"
#include "partition/partitioner.h"
#include "stream/edge_stream.h"
#include "util/simd.h"

namespace loom {
namespace test_util {

/// EngineOptions sized for `ds`, with the small window the suites use to
/// force real evictions at test scale.
engine::EngineOptions OptionsFor(const datasets::Dataset& ds, uint32_t k = 8,
                                 uint64_t window_size = 128);

/// The registry BuildContext every backend construction needs.
engine::BuildContext ContextFor(const datasets::Dataset& ds);

/// Builds backend `spec` ("name" or "name:key=value,...") for `ds` through
/// the global registry. Registers a gtest failure and returns nullptr on
/// error — callers ASSERT_NE(p, nullptr).
std::unique_ptr<partition::Partitioner> MakeBackend(
    std::string_view spec, const engine::EngineOptions& options,
    const datasets::Dataset& ds);

/// Ingests the whole stream one edge at a time, then finalizes.
void RunAll(partition::Partitioner* p, const stream::EdgeStream& es);

/// The golden quality triple: what "bit-identical partitioning" means in
/// the differential suites and the bench smoke baseline.
struct Quality {
  uint64_t assignment_hash = 0;
  uint64_t edge_cut = 0;
  double imbalance = 0.0;

  friend bool operator==(const Quality&, const Quality&) = default;
};

std::ostream& operator<<(std::ostream& os, const Quality& q);

/// Measures `p`'s finished partitioning against `ds`.
Quality QualityOf(const partition::Partitioner& p, const datasets::Dataset& ds);

/// Runs `fn` once per util::simd level this CPU supports (scalar always
/// included), installing the level before and restoring the previous active
/// level after. The SIMD differential suites wrap whole backend runs in
/// this: every level must produce byte-identical partitioning.
void ForEachSimdLevel(const std::function<void(util::simd::Level)>& fn);

/// One differential leg: builds `spec`, drives `ds` end to end through
/// engine::Drive (pull path) in `batch_size` batches over a fresh lazy
/// source with the given order/seed, finalizes, and returns the quality
/// triple. Returns a default Quality (and a registered gtest failure) if
/// the spec fails to build.
Quality DriveSpec(std::string_view spec, const datasets::Dataset& ds,
                  const engine::EngineOptions& options,
                  stream::StreamOrder order, uint64_t stream_seed,
                  size_t batch_size);

}  // namespace test_util
}  // namespace loom

#endif  // LOOM_TESTS_TEST_UTIL_H_
