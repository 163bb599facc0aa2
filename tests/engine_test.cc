// Coverage for the loom::engine facade: EngineOptions key round-tripping
// and error reporting, registry construction (bit-identical to direct
// construction), backend spec parsing, pull-based edge sources, batched
// Session ingest (including loom's batch-split invariance), and the
// observer event stream.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <tuple>

#include "core/loom_partitioner.h"
#include "datasets/dataset_registry.h"
#include "engine/session.h"
#include "eval/experiment.h"
#include "partition/fennel_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace engine {
namespace {

// ------------------------------------------------------- EngineOptions

TEST(EngineOptionsTest, EveryKeyRoundTripsFromItsStringForm) {
  // Non-default value for every key, exercising each parser (uint, float,
  // bool, hex) — Get must return a string Set parses back to equality.
  EngineOptions original;
  std::string error;
  const std::vector<std::pair<std::string, std::string>> overrides = {
      {"k", "16"},
      {"expected_vertices", "123456"},
      {"expected_edges", "654321"},
      {"max_imbalance", "1.25"},
      {"hub_threshold", "32"},
      {"window_size", "4000"},
      {"support_threshold", "0.35"},
      {"prime", "509"},
      {"signature_seed", "0xDEADBEEF"},
      {"alpha", "0.5"},
      {"balance_b", "1.3"},
      {"neighbor_bid_weight", "0.125"},
      {"disable_rationing", "true"},
      {"max_matches_per_vertex", "32"},
      {"fennel_gamma", "1.7"},
      {"lambda", "2.5"},
      {"epsilon", "0.25"},
      {"threshold_factor", "6.5"},
  };
  ASSERT_EQ(overrides.size(), EngineOptions::KeyNames().size())
      << "new EngineOptions key without round-trip coverage";
  for (const auto& [key, value] : overrides) {
    ASSERT_TRUE(original.Set(key, value, &error)) << key << ": " << error;
  }

  EngineOptions reparsed;
  for (const auto& [key, value] : original.ToFlat()) {
    ASSERT_TRUE(reparsed.Set(key, value, &error))
        << key << "='" << value << "': " << error;
  }
  EXPECT_EQ(original, reparsed);
}

TEST(EngineOptionsTest, DefaultsRoundTripToo) {
  const EngineOptions defaults;
  EngineOptions reparsed;
  std::string error;
  for (const auto& [key, value] : defaults.ToFlat()) {
    ASSERT_TRUE(reparsed.Set(key, value, &error)) << key << ": " << error;
  }
  EXPECT_EQ(defaults, reparsed);
}

TEST(EngineOptionsTest, UnknownKeyErrorIsActionable) {
  EngineOptions o;
  std::string error;
  EXPECT_FALSE(o.Set("windw_size", "100", &error));
  // The message names the offending key and lists the known ones.
  EXPECT_NE(error.find("windw_size"), std::string::npos) << error;
  EXPECT_NE(error.find("window_size"), std::string::npos) << error;
  EXPECT_NE(error.find("known keys"), std::string::npos) << error;
}

TEST(EngineOptionsTest, BadValueErrorNamesKeyValueAndExpectedType) {
  EngineOptions o;
  std::string error;
  EXPECT_FALSE(o.Set("window_size", "lots", &error));
  EXPECT_NE(error.find("window_size"), std::string::npos) << error;
  EXPECT_NE(error.find("lots"), std::string::npos) << error;
  EXPECT_NE(error.find("uint"), std::string::npos) << error;
}

TEST(EngineOptionsTest, OutOfRangeValuesRejected) {
  EngineOptions o;
  std::string error;
  EXPECT_FALSE(o.Set("k", "0", &error));
  EXPECT_FALSE(o.Set("support_threshold", "1.5", &error));
  EXPECT_FALSE(o.Set("alpha", "0", &error));
  EXPECT_FALSE(o.Set("max_imbalance", "0.9", &error));
  EXPECT_FALSE(o.Set("fennel_gamma", "1.0", &error));
  EXPECT_FALSE(o.Set("disable_rationing", "maybe", &error));
  // A failed Set leaves the options untouched.
  EXPECT_EQ(o, EngineOptions());
}

TEST(EngineOptionsTest, ApplyOverridesStopsAtFirstError) {
  EngineOptions o;
  std::string error;
  EXPECT_TRUE(o.ApplyOverrides({"k=4", "window_size=100"}, &error));
  EXPECT_EQ(o.k, 4u);
  EXPECT_EQ(o.window_size, 100u);
  EXPECT_FALSE(o.ApplyOverrides({"k=8", "bogus"}, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  EXPECT_NE(error.find("key=value"), std::string::npos) << error;
}

// ------------------------------------------------------------ registry

TEST(PartitionerRegistryTest, BuiltinsAreRegistered) {
  auto names = PartitionerRegistry::Global().Names();
  ASSERT_GE(names.size(), 7u);
  EXPECT_EQ(names[0], "hash");
  EXPECT_EQ(names[1], "ldg");
  EXPECT_EQ(names[2], "fennel");
  EXPECT_EQ(names[3], "loom");
  // The edge-partitioning family registers after the vertex family.
  EXPECT_EQ(names[4], "hdrf");
  EXPECT_EQ(names[5], "dbh");
  EXPECT_EQ(names[6], "hep");
}

TEST(PartitionerRegistryTest, UnknownBackendErrorListsRegisteredOnes) {
  std::string error;
  auto p = PartitionerRegistry::Global().Create("metis", EngineOptions(), {},
                                                &error);
  EXPECT_EQ(p, nullptr);
  EXPECT_NE(error.find("metis"), std::string::npos) << error;
  EXPECT_NE(error.find("loom"), std::string::npos) << error;
}

TEST(PartitionerRegistryTest, LoomWithoutWorkloadFailsWithActionableError) {
  std::string error;
  auto p = PartitionerRegistry::Global().Create("loom", EngineOptions(), {},
                                                &error);
  EXPECT_EQ(p, nullptr);
  EXPECT_NE(error.find("workload"), std::string::npos) << error;
}

TEST(PartitionerRegistryTest, RegisterRejectsDuplicatesAcceptsNew) {
  PartitionerRegistry registry;  // fresh, no builtins
  auto factory = [](const EngineOptions& o, const BuildContext&,
                    std::string*) -> std::unique_ptr<partition::Partitioner> {
    return std::make_unique<partition::HashPartitioner>(o.BaseConfig());
  };
  EXPECT_TRUE(registry.Register("mine", factory));
  EXPECT_FALSE(registry.Register("mine", factory));
  EXPECT_TRUE(registry.Contains("mine"));
  std::string error;
  auto p = registry.Create("mine", EngineOptions(), {}, &error);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "hash");
}

TEST(PartitionerRegistryTest,
     RegistryBuiltPartitionersMatchDirectConstructionBitForBit) {
  // The Fig. 1 dataset, streamed BFS through (a) directly-constructed
  // partitioners and (b) registry-built ones with equivalent options: the
  // assignment hashes must be identical.
  datasets::Dataset ds = datasets::MakeFigure1Dataset();
  const std::vector<stream::StreamEdge> es =
      test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);

  const EngineOptions options =
      test_util::OptionsFor(ds, /*k=*/2, /*window_size=*/6);

  const partition::PartitionerConfig base = options.BaseConfig();
  core::LoomOptions loom_options;
  loom_options.base = base;
  loom_options.window_size = 6;

  std::vector<std::unique_ptr<partition::Partitioner>> direct;
  direct.push_back(std::make_unique<partition::HashPartitioner>(base));
  direct.push_back(std::make_unique<partition::LdgPartitioner>(base));
  direct.push_back(std::make_unique<partition::FennelPartitioner>(base));
  direct.push_back(std::make_unique<core::LoomPartitioner>(
      loom_options, ds.workload, ds.registry.size()));

  for (auto& d : direct) {
    auto r = test_util::MakeBackend(d->name(), options, ds);
    ASSERT_NE(r, nullptr);
    for (const stream::StreamEdge& e : es) {
      d->Ingest(e);
      r->Ingest(e);
    }
    d->Finalize();
    r->Finalize();
    EXPECT_EQ(eval::HashAssignment(d->partitioning(), ds.NumVertices()),
              eval::HashAssignment(r->partitioning(), ds.NumVertices()))
        << d->name();
  }
}

// ---------------------------------------------------------- spec parse

TEST(BackendSpecTest, ParsesNameAndOverrides) {
  BackendSpec spec;
  std::string error;
  ASSERT_TRUE(ParseBackendSpec("loom:window_size=4000,alpha=0.5", &spec,
                               &error));
  EXPECT_EQ(spec.name, "loom");
  ASSERT_EQ(spec.overrides.size(), 2u);
  EXPECT_EQ(spec.overrides[0], "window_size=4000");
  EXPECT_EQ(spec.overrides[1], "alpha=0.5");

  ASSERT_TRUE(ParseBackendSpec("hash", &spec, &error));
  EXPECT_EQ(spec.name, "hash");
  EXPECT_TRUE(spec.overrides.empty());

  EXPECT_FALSE(ParseBackendSpec(":k=2", &spec, &error));
  EXPECT_NE(error.find("name"), std::string::npos) << error;
}

TEST(BackendSpecTest, BuildPartitionerAppliesSpecOverrides) {
  datasets::Dataset ds = datasets::MakeFigure1Dataset();
  EngineOptions base;
  base.expected_vertices = ds.NumVertices();
  base.expected_edges = ds.NumEdges();
  std::string error;
  auto p = BuildPartitioner("loom:k=2,window_size=6", base,
                            {&ds.workload, ds.registry.size()}, &error);
  ASSERT_NE(p, nullptr) << error;
  EXPECT_EQ(p->partitioning().k(), 2u);

  EXPECT_EQ(BuildPartitioner("loom:frobnicate=1", base,
                             {&ds.workload, ds.registry.size()}, &error),
            nullptr);
  EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;
}

// --------------------------------------------------------- edge source

TEST(EdgeSourceTest, GraphSourceMatchesMaterializedStream) {
  datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  for (auto order : {stream::StreamOrder::kBreadthFirst,
                     stream::StreamOrder::kDepthFirst,
                     stream::StreamOrder::kRandom}) {
    // The expected sequence comes straight from the graph, not from any
    // EdgeSource.
    const std::vector<stream::StreamEdge> es = test_util::ReferenceStream(
        ds.graph, stream::EdgeOrderFor(ds.graph, order, 0x10c5));
    auto source = MakeEdgeSource(ds, order, 0x10c5);
    EXPECT_EQ(source->SizeHint(), es.size());

    std::vector<stream::StreamEdge> batch(64);
    size_t pos = 0;
    for (;;) {
      const size_t n = source->NextBatch(batch);
      if (n == 0) break;
      for (size_t i = 0; i < n; ++i, ++pos) {
        ASSERT_LT(pos, es.size());
        EXPECT_EQ(batch[i].id, es[pos].id);
        EXPECT_EQ(batch[i].u, es[pos].u);
        EXPECT_EQ(batch[i].v, es[pos].v);
        EXPECT_EQ(batch[i].label_u, es[pos].label_u);
        EXPECT_EQ(batch[i].label_v, es[pos].label_v);
      }
    }
    EXPECT_EQ(pos, es.size());
    // Exhausted stays exhausted; Reset replays from the top.
    EXPECT_EQ(source->NextBatch(batch), 0u);
    source->Reset();
    ASSERT_GT(source->NextBatch(batch), 0u);
    EXPECT_EQ(batch[0].id, es[0].id);
  }
}

// ------------------------------------------ session ingest and observers

std::unique_ptr<Session> MustCreateSession(const std::string& spec,
                                           const EngineOptions& options,
                                           const datasets::Dataset& ds,
                                           size_t batch_size = 512) {
  SessionConfig config;
  config.spec = spec;
  config.options = options;
  config.drive.batch_size = batch_size;
  std::string error;
  auto session = Session::Create(config, test_util::ContextFor(ds), &error);
  EXPECT_NE(session, nullptr) << error;
  return session;
}

TEST(SessionIngestTest, BatchedRunMatchesPerEdgeIngest) {
  datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const std::vector<stream::StreamEdge> es =
      test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);

  eval::ExperimentConfig cfg;
  cfg.window_size = 256;
  const EngineOptions options = eval::ToEngineOptions(cfg, ds);

  // Per-edge reference.
  auto reference = test_util::MakeBackend("loom", options, ds);
  for (const stream::StreamEdge& e : es) reference->Ingest(e);
  reference->Finalize();

  // Batched run with an awkward batch size.
  auto session = MustCreateSession("loom", options, ds, /*batch_size=*/37);
  ASSERT_NE(session, nullptr);
  SpanEdgeSource source(es);
  const RunReport report = session->Run(source);
  EXPECT_EQ(report.edges, es.size());
  EXPECT_EQ(eval::HashAssignment(reference->partitioning(), ds.NumVertices()),
            eval::HashAssignment(session->partitioning(), ds.NumVertices()));
}

// Loom's IngestBatch hoists the admission probe per batch and prefetches
// a fixed number of edges ahead, so how the stream is cut into batches
// must never reach the output. Every dataset and order, at batch sizes
// from per-edge to larger than the eviction-heavy window, against a
// reference batch size none of the legs share. Sizes 3-9 straddle both
// look-ahead distances (4 and 8): a hint that read past a batch's end
// would fail here under ASan, and one that changed a result would move
// the quality triple.
double BatchGridScale(datasets::DatasetId id) {
  switch (id) {
    case datasets::DatasetId::kLubm100:
      return 0.04;
    case datasets::DatasetId::kMusicBrainz:
      return 0.05;
    case datasets::DatasetId::kDblp:
      return 0.04;
    case datasets::DatasetId::kProvGen:
    default:
      return 0.06;
  }
}

using BatchGridParam = std::tuple<datasets::DatasetId, stream::StreamOrder>;

class LoomBatchSplitTest : public testing::TestWithParam<BatchGridParam> {};

TEST_P(LoomBatchSplitTest, EveryBatchSizeMatchesTheReferenceSplit) {
  const auto [dataset, order] = GetParam();
  const datasets::Dataset ds =
      datasets::MakeDataset(dataset, BatchGridScale(dataset));
  const EngineOptions options = test_util::OptionsFor(ds);
  const uint64_t seed = 0x5eed;
  const test_util::Quality reference =
      test_util::DriveSpec("loom", ds, options, order, seed,
                           /*batch_size=*/97);
  for (const size_t batch : {size_t{1}, size_t{3}, size_t{4}, size_t{5},
                             size_t{8}, size_t{9}, size_t{64}, size_t{4096}}) {
    EXPECT_EQ(test_util::DriveSpec("loom", ds, options, order, seed, batch),
              reference)
        << "batch_size=" << batch << " on " << datasets::ToString(dataset)
        << "/" << stream::ToString(order);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasetsAllOrders, LoomBatchSplitTest,
    testing::Combine(testing::Values(datasets::DatasetId::kProvGen,
                                     datasets::DatasetId::kMusicBrainz,
                                     datasets::DatasetId::kLubm100,
                                     datasets::DatasetId::kDblp),
                     testing::Values(stream::StreamOrder::kBreadthFirst,
                                     stream::StreamOrder::kDepthFirst,
                                     stream::StreamOrder::kRandom)),
    [](const auto& info) {
      std::string name =
          std::string(datasets::ToString(std::get<0>(info.param))) + "_" +
          stream::ToString(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SessionIngestTest, ObserverSeesAssignmentsEvictionsAndProgress) {
  datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  eval::ExperimentConfig cfg;
  cfg.window_size = 64;  // small window forces evictions
  const EngineOptions options = eval::ToEngineOptions(cfg, ds);
  auto session = MustCreateSession("loom", options, ds);
  ASSERT_NE(session, nullptr);

  StatsObserver stats;
  session->AddObserver(&stats);
  auto source = MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  const RunReport report = session->Run(*source);

  const StatsObserver::Totals& t = stats.totals();
  // Every streamed vertex got exactly one OnAssign.
  EXPECT_EQ(t.vertices_assigned, session->partitioning().NumAssigned());
  // Evictions and cluster decisions arrive as final stats.
  EXPECT_EQ(stats.final_stats().counters, report.backend_stats);
  const uint64_t evictions = report.Stat("evictions");
  const uint64_t clusters = report.Stat("clusters_allocated");
  EXPECT_GT(clusters, 0u);
  EXPECT_EQ(evictions, clusters + report.Stat("empty_cluster_evictions"));
  EXPECT_LE(report.Stat("fallback_clusters"), clusters);
  EXPECT_GE(report.Stat("cluster_edges_assigned"), clusters);
  EXPECT_TRUE(t.last_progress.finalizing);
  EXPECT_EQ(t.last_progress.edges_ingested, source->SizeHint());
  EXPECT_GT(t.last_progress.edges_bypassed, 0u);
  EXPECT_EQ(t.last_progress.window_population, 0u);  // drained by Finalize

  // Baselines emit assigns through the same channel.
  auto hash = MustCreateSession("hash", options, ds);
  ASSERT_NE(hash, nullptr);
  StatsObserver hash_stats;
  hash->AddObserver(&hash_stats);
  source->Reset();
  hash->Run(*source);
  EXPECT_EQ(hash_stats.totals().vertices_assigned,
            hash->partitioning().NumAssigned());
  EXPECT_TRUE(hash_stats.final_stats().counters.empty());
}

}  // namespace
}  // namespace engine
}  // namespace loom
