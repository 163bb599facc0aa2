// Shared fixtures for the partitioner test suites.
//
// Before this header, every suite hand-rolled the same four steps: size an
// EngineOptions from a dataset, build a backend through the registry,
// stream the dataset through it, and compare the golden quality triple
// (assignment hash, edge-cut, imbalance). Those steps are the definition
// of "bit-identical partitioning" used by the differential suites
// (adjacency, batch-split), the contract suite and the bench smoke
// baseline — so they live here, once.

#ifndef LOOM_TESTS_TEST_UTIL_H_
#define LOOM_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/dataset_registry.h"
#include "engine/engine.h"
#include "partition/partitioner.h"
#include "stream/stream_edge.h"
#include "stream/stream_order.h"

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

/// Pulls `source` dry from its current position into a vector, for suites
/// that slice, mutate or replay a stream edge by edge.
std::vector<stream::StreamEdge> Drain(engine::EdgeSource& source);

/// `g` streamed in `order` (engine::MakeEdgeSource), drained.
std::vector<stream::StreamEdge> Drain(const graph::LabeledGraph& g,
                                      stream::StreamOrder order,
                                      uint64_t seed = stream::kDefaultStreamSeed);

/// The stream a walk of `g` in `order` must produce, built straight from
/// the graph (g.edge(order[i]) with g.label() endpoints, ids = positions)
/// — an independent reference for suites that test the sources themselves.
std::vector<stream::StreamEdge> ReferenceStream(
    const graph::LabeledGraph& g, const std::vector<graph::EdgeId>& order);

/// Ingests the whole stream one edge at a time, then finalizes.
void RunAll(partition::Partitioner* p,
            std::span<const stream::StreamEdge> edges);

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

/// One differential leg: runs `spec` over `ds` end to end through an
/// engine::Session, pulling `source` from the top (Reset) in `batch_size`
/// batches, and returns the quality triple. Returns a default Quality (and
/// a registered gtest failure) if the spec fails to build.
Quality DriveSpec(std::string_view spec, const datasets::Dataset& ds,
                  const engine::EngineOptions& options,
                  engine::EdgeSource& source, size_t batch_size = 512);

/// DriveSpec over a fresh lazy graph source with the given order/seed.
Quality DriveSpec(std::string_view spec, const datasets::Dataset& ds,
                  const engine::EngineOptions& options,
                  stream::StreamOrder order, uint64_t stream_seed,
                  size_t batch_size);

}  // namespace test_util
}  // namespace loom

#endif  // LOOM_TESTS_TEST_UTIL_H_
