// engine::Session coverage: run lifecycle (Run vs IngestSome+Finish vs a
// checkpoint/resume, bit identical for every backend), RunReports (totals,
// final stats, no backend getters anywhere), sinks bound to the backend,
// the decision-latency histogram, spec error reporting — plus the eval
// harness's generic backend_stats (SystemResult carries whatever the
// backend reported, nothing else).

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "engine/session.h"
#include "eval/experiment.h"
#include "io/assignment_sink.h"
#include "partition/partition_metrics.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace engine {
namespace {

datasets::Dataset& TestDataset() {
  static datasets::Dataset* ds = new datasets::Dataset(
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.03));
  return *ds;
}

SessionConfig ConfigFor(const std::string& spec, const datasets::Dataset& ds,
                        uint64_t window = 128) {
  SessionConfig config;
  config.spec = spec;
  config.options = test_util::OptionsFor(ds, /*k=*/8, window);
  return config;
}

std::unique_ptr<Session> MustCreate(const std::string& spec,
                                    const datasets::Dataset& ds,
                                    uint64_t window = 128) {
  std::string error;
  auto session = Session::Create(ConfigFor(spec, ds, window),
                                 test_util::ContextFor(ds), &error);
  EXPECT_NE(session, nullptr) << error;
  return session;
}

TEST(SessionTest, CreateReportsActionableErrors) {
  const datasets::Dataset& ds = TestDataset();
  std::string error;

  EXPECT_EQ(Session::Create(ConfigFor("metis", ds),
                            test_util::ContextFor(ds), &error),
            nullptr);
  EXPECT_NE(error.find("metis"), std::string::npos) << error;

  EXPECT_EQ(Session::Create(ConfigFor("loom:frobnicate=1", ds),
                            test_util::ContextFor(ds), &error),
            nullptr);
  EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;

  EXPECT_EQ(Session::Create(ConfigFor("loom", ds), BuildContext{}, &error),
            nullptr);
  EXPECT_NE(error.find("workload"), std::string::npos) << error;
}

TEST(SessionTest, RunReportIsComplete) {
  const datasets::Dataset& ds = TestDataset();
  auto session = MustCreate("loom", ds);
  auto source = MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  const RunReport report = session->Run(*source);

  EXPECT_EQ(report.backend, "loom");
  EXPECT_EQ(report.edges, ds.NumEdges());
  EXPECT_GT(report.ms, 0.0);
  EXPECT_GT(report.edges_per_sec, 0.0);
  EXPECT_EQ(report.vertices_assigned, session->partitioning().NumAssigned());
  EXPECT_GT(report.edges_bypassed, 0u);
  EXPECT_EQ(session->latency().Snapshot().Count(), report.edges);

  // Final stats arrived through the generic FillFinalStats, not a getter.
  EXPECT_GT(report.Stat("match_allocs_fresh"), 0u);
  EXPECT_GT(report.Stat("matcher_edges_admitted"), 0u);
  EXPECT_GT(report.Stat("evictions"), 0u);
  EXPECT_EQ(report.Stat("no_such_counter", 1234u), 1234u);
}

TEST(SessionTest, BaselinesReportNoBackendStats) {
  const datasets::Dataset& ds = TestDataset();
  for (const char* spec : {"hash", "ldg", "fennel"}) {
    auto session = MustCreate(spec, ds);
    auto source = MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
    const RunReport report = session->Run(*source);
    EXPECT_TRUE(report.backend_stats.empty()) << spec;
    EXPECT_EQ(report.vertices_assigned, session->partitioning().NumAssigned())
        << spec;
    EXPECT_EQ(report.edges_bypassed, 0u) << spec;
  }
}

TEST(SessionTest, StepDrivenAndResumedStreamsMatchOneShotRunBitForBit) {
  // Three ways through the same stream, for every built-in backend: one
  // Run; uneven IngestSome steps then Finish; and half the stream, a
  // checkpoint, a resume into a fresh session, then Run over the rest.
  // Each must end with the same assignments, counters and lifetime edge
  // count. The one-shot run's sinks must record each placement exactly
  // once and agree with the partition table.
  const datasets::Dataset& ds = TestDataset();
  const std::vector<stream::StreamEdge> es =
      test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  const uint64_t m = es.size();
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "resumed_run.loomck")
          .string();

  for (const std::string& spec : PartitionerRegistry::Global().Names()) {
    SCOPED_TRACE(spec);
    auto one_shot = MustCreate(spec, ds);
    ASSERT_NE(one_shot, nullptr);
    io::MemoryAssignmentSink sink;
    io::MemoryEdgeAssignmentSink edge_sink;
    one_shot->AddSink(&sink);
    const bool edge_backend = spec == "hdrf" || spec == "dbh" || spec == "hep";
    if (edge_backend) one_shot->AddEdgeSink(&edge_sink);
    SpanEdgeSource source_a(es);
    const RunReport run_report = one_shot->Run(source_a);

    const partition::Partitioning& p = one_shot->partitioning();
    EXPECT_EQ(run_report.vertices_assigned, p.NumAssigned());
    EXPECT_EQ(sink.assignments().size(), p.NumAssigned());
    std::vector<bool> seen(ds.NumVertices(), false);
    for (const auto& [vertex, partition] : sink.assignments()) {
      ASSERT_LT(vertex, ds.NumVertices());
      EXPECT_FALSE(seen[vertex]) << "vertex " << vertex << " recorded twice";
      seen[vertex] = true;
      EXPECT_EQ(partition, p.PartitionOf(vertex)) << vertex;
    }
    if (edge_backend) {
      // One record per edge in stream order; their placements hash to the
      // backend's own FNV-1a edge assignment hash.
      ASSERT_EQ(edge_sink.records().size(), m);
      uint64_t edge_hash = 0xcbf29ce484222325ULL;
      for (size_t i = 0; i < m; ++i) {
        const io::MemoryEdgeAssignmentSink::Record& r = edge_sink.records()[i];
        EXPECT_EQ(r.edge, es[i].id);
        EXPECT_EQ(r.u, es[i].u);
        EXPECT_EQ(r.v, es[i].v);
        edge_hash = (edge_hash ^ r.partition) * 0x100000001b3ULL;
      }
      EXPECT_EQ(run_report.Stat("edge_assignment_hash"), edge_hash);
    }

    auto stepped = MustCreate(spec, ds);
    SpanEdgeSource source_b(es);
    size_t total = 0;
    for (size_t chunk : {1u, 7u, 500u}) {  // awkward, uneven strides
      total += stepped->IngestSome(source_b, chunk);
    }
    // Drain the rest in one large gulp, then checkpoint.
    total += stepped->IngestSome(source_b, es.size());
    const RunReport step_report = stepped->Finish();
    EXPECT_EQ(total, es.size());

    SpanEdgeSource source_c(es);
    {
      auto first_half = MustCreate(spec, ds);
      first_half->IngestSome(source_c, m / 2);
      std::string error;
      ASSERT_TRUE(first_half->Checkpoint(path, &error)) << error;
    }
    auto resumed = MustCreate(spec, ds);
    std::string error;
    ASSERT_TRUE(resumed->Resume(path, &error)) << error;
    const RunReport resumed_report = resumed->Run(source_c);

    const uint64_t hash =
        partition::AssignmentHash(one_shot->partitioning(), ds.NumVertices());
    for (const auto& [leg, session, report] :
         {std::tuple{"stepped", stepped.get(), &step_report},
          std::tuple{"resumed", resumed.get(), &resumed_report},
          std::tuple{"one-shot", one_shot.get(), &run_report}}) {
      SCOPED_TRACE(leg);
      EXPECT_EQ(report->edges, m);
      EXPECT_EQ(
          partition::AssignmentHash(session->partitioning(), ds.NumVertices()),
          hash);
      EXPECT_EQ(report->backend_stats, run_report.backend_stats);
      EXPECT_EQ(report->vertices_assigned, run_report.vertices_assigned);
      EXPECT_EQ(report->edges_bypassed, run_report.edges_bypassed);
    }
    // The latency histogram holds one sample per edge this session
    // ingested: the resumed session only saw the suffix.
    EXPECT_EQ(one_shot->latency().Snapshot().Count(), m);
    EXPECT_EQ(stepped->latency().Snapshot().Count(), m);
    EXPECT_EQ(resumed->latency().Snapshot().Count(), m - m / 2);
  }
  std::filesystem::remove(path);
}

TEST(SessionTest, CheckpointFlushesSinksExactlyOnce) {
  // The durability contract: when Checkpoint() commits, everything the
  // snapshot claims as assigned must already have been flushed to the
  // sinks — and checkpointing must never replay an assignment into them.
  class CountingSink : public io::AssignmentSink {
   public:
    void Append(graph::VertexId v, graph::PartitionId) override {
      ++appends_per_vertex_[v];
      ++unflushed_;
    }
    void Flush() override {
      ++flushes_;
      unflushed_ = 0;
    }
    std::map<graph::VertexId, int> appends_per_vertex_;
    int flushes_ = 0;
    int unflushed_ = 0;
  };

  const datasets::Dataset& ds = TestDataset();
  auto session = MustCreate("loom", ds);
  CountingSink sink;
  session->AddSink(&sink);
  const std::vector<stream::StreamEdge> es =
      test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  SpanEdgeSource source(es);
  session->IngestSome(source, es.size() / 2);

  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "flush.loomck").string();
  std::string error;
  ASSERT_TRUE(session->Checkpoint(path, &error)) << error;
  EXPECT_EQ(sink.flushes_, 1);
  EXPECT_EQ(sink.unflushed_, 0)
      << "assignments appended after the checkpoint's flush";
  const size_t at_checkpoint = sink.appends_per_vertex_.size();
  EXPECT_EQ(at_checkpoint, session->partitioning().NumAssigned());

  // Drive to the end: the sink sees each remaining vertex once — nothing
  // is replayed by the checkpoint machinery.
  session->IngestSome(source, es.size());
  session->Finish();
  EXPECT_EQ(sink.appends_per_vertex_.size(),
            session->partitioning().NumAssigned());
  for (const auto& [vertex, count] : sink.appends_per_vertex_) {
    ASSERT_EQ(count, 1) << "vertex " << vertex << " appended " << count
                        << " times";
  }
  std::filesystem::remove(path);
}

// ------------------------------------------------- eval satellite checks

TEST(EvalBackendStatsTest, SystemResultCarriesGenericStatsOnly) {
  const datasets::Dataset& ds = TestDataset();
  eval::ExperimentConfig cfg;
  cfg.options.window_size = 128;

  auto source = MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
  const eval::SystemResult loom =
      eval::RunSystem("loom", ds, *source, cfg, /*run_queries=*/false);
  EXPECT_GT(loom.BackendStat("match_allocs_fresh"), 0u);
  EXPECT_GT(loom.BackendStat("matcher_edges_admitted"), 0u);
  EXPECT_EQ(loom.BackendStat("never_reported"), 0u);

  const eval::SystemResult hash =
      eval::RunSystem("hash", ds, *source, cfg, /*run_queries=*/false);
  // No more per-backend magic zeros: backends that report nothing carry
  // nothing.
  EXPECT_TRUE(hash.backend_stats.empty());
}

}  // namespace
}  // namespace engine
}  // namespace loom
