// Checkpoint/restore under crash-fault injection.
//
// The recovery contract this suite pins: a run that is cut off at ANY
// point, restored from its last LOOMCK checkpoint into a fresh process
// state, and driven to the end must finish bit-identically to the run
// that was never interrupted — same assignments (quality triple), same
// deterministic backend counters (FinalStatsEvent), same observer event
// totals. And the failure half: every corrupted, truncated or
// version/configuration-skewed checkpoint must be REJECTED with an
// actionable error — a checkpoint that loads and silently diverges is the
// one unacceptable outcome. The two-slot rotation means rejection of the
// newest checkpoint falls back to the previous good one.
//
// The kill-point matrix here cuts runs in-process (build state to edge b,
// checkpoint, throw the session away — exactly what SIGKILL leaves on
// disk, since Commit is atomic); tools/crash_harness.sh kills a real
// loom_partition child with SIGKILL for the full out-of-process story.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "engine/session.h"
#include "graph/dynamic_graph.h"
#include "io/checkpoint.h"
#include "motif/match_list.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / "loom_crash_recovery";
  fs::create_directories(dir);
  return (dir / name).string();
}

// ------------------------------------------------ LOOMCK format basics

TEST(CheckpointFormatTest, RoundTripsEveryFieldKind) {
  const std::string path = TempPath("roundtrip.loomck");
  io::CheckpointWriter w;
  w.BeginSection("alpha");
  w.U8(7);
  w.U16(65535);
  w.U32(123456789);
  w.U64(0xDEADBEEFCAFEF00DULL);
  w.F64(-0.1);
  w.Str("hello checkpoint");
  w.PodVec(std::vector<uint32_t>{1, 2, 3});
  w.EndSection();
  w.BeginSection("beta");
  w.U64(42);
  w.EndSection();
  w.Commit(path);

  io::CheckpointReader r(path);
  EXPECT_TRUE(r.Has("alpha"));
  EXPECT_TRUE(r.Has("beta"));
  EXPECT_FALSE(r.Has("gamma"));
  r.Open("alpha");
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U16(), 65535);
  EXPECT_EQ(r.U32(), 123456789u);
  EXPECT_EQ(r.U64(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(r.F64(), -0.1);
  EXPECT_EQ(r.Str(), "hello checkpoint");
  std::vector<uint32_t> v;
  r.PodVec(&v);
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 2, 3}));
  r.Close();
  // Sections open in any order.
  r.Open("beta");
  EXPECT_EQ(r.U64(), 42u);
  r.Close();
}

TEST(CheckpointFormatTest, LayoutSkewIsAnError) {
  const std::string path = TempPath("skew.loomck");
  io::CheckpointWriter w;
  w.BeginSection("s");
  w.U64(1);
  w.U64(2);
  w.EndSection();
  w.Commit(path);

  io::CheckpointReader r(path);
  r.Open("s");
  r.U64();
  // Closing with unread bytes = this build expects a shorter layout than
  // the writer produced — must be an error, not silent padding.
  EXPECT_THROW(r.Close(), std::runtime_error);

  io::CheckpointReader r2(path);
  r2.Open("s");
  r2.U64();
  r2.U64();
  // Reading past the end = this build expects a longer layout.
  EXPECT_THROW(r2.U64(), std::runtime_error);

  io::CheckpointReader r3(path);
  try {
    r3.Open("missing");
    FAIL() << "opening an absent section should throw";
  } catch (const std::runtime_error& e) {
    // The error names what IS there — actionable, not just "not found".
    EXPECT_NE(std::string(e.what()).find("s"), std::string::npos) << e.what();
  }
}

// A corrupt count whose byte size wraps 64 bits (n * 4 == 4 here) must fail
// the bound check, not reach vector::resize.
TEST(CheckpointFormatTest, WrappingVectorCountIsRejected) {
  const std::string path = TempPath("wrap.loomck");
  io::CheckpointWriter w;
  w.BeginSection("s");
  w.U64((uint64_t{1} << 62) + 1);
  w.U32(7);
  w.EndSection();
  w.Commit(path);

  io::CheckpointReader r(path);
  r.Open("s");
  std::vector<uint32_t> v;
  try {
    r.PodVec(&v);
    FAIL() << "a count past the section end should throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("vector payload"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------- kill-point matrix

struct RunOutcome {
  test_util::Quality quality;
  engine::StatCounters backend_stats;
  engine::StatsObserver::Totals totals;
};

engine::SessionConfig ConfigFor(const std::string& spec,
                                const datasets::Dataset& ds) {
  engine::SessionConfig config;
  config.spec = spec;
  config.options = test_util::OptionsFor(ds, /*k=*/8, /*window=*/128);
  return config;
}

std::unique_ptr<engine::Session> MustCreate(const std::string& spec,
                                            const datasets::Dataset& ds) {
  std::string error;
  auto session = engine::Session::Create(ConfigFor(spec, ds),
                                         test_util::ContextFor(ds), &error);
  EXPECT_NE(session, nullptr) << error;
  return session;
}

// Advances `source` past `n` edges without ingesting them — what a resumed
// driver does to reach the checkpoint's stream cursor.
void SkipEdges(engine::EdgeSource& source, uint64_t n) {
  std::vector<stream::StreamEdge> scratch(256);
  uint64_t done = 0;
  while (done < n) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(scratch.size(), n - done));
    const size_t got =
        source.NextBatch(std::span<stream::StreamEdge>(scratch.data(), want));
    ASSERT_GT(got, 0u) << "stream ran dry while skipping to " << n;
    done += got;
  }
}

RunOutcome Outcome(engine::Session& session, const engine::RunReport& report,
                   const datasets::Dataset& ds) {
  return {test_util::QualityOf(session.backend(), ds), report.backend_stats,
          report.events};
}

// Everything deterministic must match.
void ExpectSameOutcome(const RunOutcome& resumed, const RunOutcome& baseline,
                       const std::string& label) {
  EXPECT_EQ(resumed.quality, baseline.quality) << label;
  EXPECT_EQ(resumed.backend_stats, baseline.backend_stats) << label;
  const engine::StatsObserver::Totals& a = resumed.totals;
  const engine::StatsObserver::Totals& b = baseline.totals;
  EXPECT_EQ(a.vertices_assigned, b.vertices_assigned) << label;
  EXPECT_EQ(a.last_progress.edges_ingested, b.last_progress.edges_ingested)
      << label;
  EXPECT_EQ(a.last_progress.edges_bypassed, b.last_progress.edges_bypassed)
      << label;
  EXPECT_EQ(a.last_progress.window_population,
            b.last_progress.window_population)
      << label;
}

struct MatrixCase {
  std::string name;
  std::string spec;
  datasets::DatasetId dataset;
  double scale;
};

class KillPointMatrixTest : public testing::TestWithParam<MatrixCase> {};

TEST_P(KillPointMatrixTest, ResumeFinishesBitIdenticallyFromEveryKillPoint) {
  const MatrixCase& c = GetParam();
  const datasets::Dataset ds = datasets::MakeDataset(c.dataset, c.scale);
  const std::vector<stream::StreamEdge> es =
      test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  const uint64_t m = es.size();
  ASSERT_GT(m, 12u);

  auto baseline_session = MustCreate(c.spec, ds);
  ASSERT_NE(baseline_session, nullptr);
  engine::SpanEdgeSource baseline_source(es);
  baseline_session->IngestSome(baseline_source, m);
  const RunOutcome baseline =
      Outcome(*baseline_session, baseline_session->Finish(), ds);

  // Kill points: the stream's start, interior points including awkward
  // non-boundary offsets, and the very last edge.
  const std::vector<uint64_t> kill_points = {0,         m / 6,     m / 3,
                                             m / 2 + 1, 5 * m / 6, m - 1};
  for (const uint64_t b : kill_points) {
    const std::string label = c.name + " @kill " + std::to_string(b);
    const std::string path = TempPath(c.name + ".loomck");

    // Phase 1: the doomed run — ingest to b, checkpoint, die (session
    // destroyed with all in-memory state; only the file survives).
    {
      auto doomed = MustCreate(c.spec, ds);
      ASSERT_NE(doomed, nullptr) << label;
      engine::SpanEdgeSource source(es);
      ASSERT_EQ(doomed->IngestSome(source, b), b) << label;
      std::string error;
      ASSERT_TRUE(doomed->Checkpoint(path, &error)) << label << ": " << error;
    }

    // Phase 2: recover into a fresh session and finish the stream.
    auto resumed = MustCreate(c.spec, ds);
    ASSERT_NE(resumed, nullptr) << label;
    std::string error;
    ASSERT_TRUE(resumed->Resume(path, &error)) << label << ": " << error;
    EXPECT_EQ(resumed->edges_ingested(), b) << label;
    engine::SpanEdgeSource source(es);
    SkipEdges(source, b);
    resumed->IngestSome(source, m);
    ExpectSameOutcome(Outcome(*resumed, resumed->Finish(), ds), baseline,
                      label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndDatasets, KillPointMatrixTest,
    testing::ValuesIn(std::vector<MatrixCase>{
        {"loom_provgen", "loom", datasets::DatasetId::kProvGen, 0.05},
        {"loom_musicbrainz", "loom", datasets::DatasetId::kMusicBrainz, 0.05},
        // The hub cache is not checkpointed: a resumed run starts with no
        // rows and must refill them without moving a single decision.
        {"loom_hub3_musicbrainz", "loom:hub_threshold=3",
         datasets::DatasetId::kMusicBrainz, 0.05},
        // Edge partitioners: backend_stats carries the whole quality triple
        // (replica_total, max/min part edges, edge_assignment_hash), so the
        // same EXPECT_EQ proves RF/balance/hash survive a kill -9.
        {"hdrf_provgen", "hdrf:lambda=1.1", datasets::DatasetId::kProvGen,
         0.05},
        {"dbh_musicbrainz", "dbh", datasets::DatasetId::kMusicBrainz, 0.05},
        // hep adds core adjacency + promotion bitset to the checkpoint; the
        // kill-point matrix proves a resume mid-promotion stays bit-exact.
        {"hep_provgen", "hep:threshold_factor=4", datasets::DatasetId::kProvGen,
         0.05},
    }),
    [](const testing::TestParamInfo<MatrixCase>& info) {
      return info.param.name;
    });

// Baselines ride the same machinery through their own SaveState paths:
// hash restores the table alone, ldg/fennel also restore the seen graph
// (their placement decisions read adjacency, so table-only would diverge).
// ldg:hub_threshold=3 resumes with an empty hub cache that must refill.
TEST(BaselineRecoveryTest, TableAndSeenGraphBackendsResumeIdentically) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const std::vector<stream::StreamEdge> es =
      test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  const uint64_t m = es.size();
  for (const char* spec : {"hash", "ldg", "fennel", "ldg:hub_threshold=3"}) {
    auto baseline_session = MustCreate(spec, ds);
    engine::SpanEdgeSource baseline_source(es);
    baseline_session->IngestSome(baseline_source, m);
    const RunOutcome baseline =
        Outcome(*baseline_session, baseline_session->Finish(), ds);

    const std::string path = TempPath(std::string(spec) + ".loomck");
    {
      auto doomed = MustCreate(spec, ds);
      engine::SpanEdgeSource source(es);
      doomed->IngestSome(source, m / 2);
      std::string error;
      ASSERT_TRUE(doomed->Checkpoint(path, &error)) << spec << ": " << error;
    }
    auto resumed = MustCreate(spec, ds);
    std::string error;
    ASSERT_TRUE(resumed->Resume(path, &error)) << spec << ": " << error;
    engine::SpanEdgeSource source(es);
    SkipEdges(source, m / 2);
    resumed->IngestSome(source, m);
    ExpectSameOutcome(Outcome(*resumed, resumed->Finish(), ds), baseline,
                      spec);
  }
}

// ------------------------------------------- open alphabet mid-stream

// A service stream need not respect the label alphabet the run started
// with. New labels must (a) grow the signature value table chunk-wise
// without perturbing earlier labels' values, (b) re-fit the matcher's
// admission memos, and (c) replay identically through checkpoint/restore
// (the checkpoint stores the grown count; restore re-draws the values
// from the retained RNG).
TEST(OpenAlphabetTest, LabelsBeyondTheCtorAlphabetGrowAndRecover) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const auto base_labels = static_cast<graph::LabelId>(ds.registry.size());

  // Rewrite a slice of the stream to carry labels the run has never seen —
  // starting early, so the grown state is behind the checkpoint too. Labels
  // are a per-vertex property, so the override must hold at every occurrence
  // of a relabelled vertex, not just the edge that introduced it.
  std::vector<stream::StreamEdge> edges =
      test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  std::map<graph::VertexId, graph::LabelId> relabel;
  for (size_t i = 10; i < edges.size(); i += 7) {
    relabel.emplace(edges[i].u,
                    static_cast<graph::LabelId>(base_labels + (i % 5)));
  }
  for (stream::StreamEdge& e : edges) {
    if (auto it = relabel.find(e.u); it != relabel.end()) {
      e.label_u = it->second;
    }
    if (auto it = relabel.find(e.v); it != relabel.end()) {
      e.label_v = it->second;
    }
  }

  const uint64_t m = edges.size();
  auto baseline_session = MustCreate("loom", ds);
  ASSERT_NE(baseline_session, nullptr);
  engine::SpanEdgeSource baseline_source(edges);
  baseline_session->IngestSome(baseline_source, m);
  const RunOutcome baseline =
      Outcome(*baseline_session, baseline_session->Finish(), ds);

  const std::string path = TempPath("open_alphabet.loomck");
  {
    auto doomed = MustCreate("loom", ds);
    engine::SpanEdgeSource source(edges);
    doomed->IngestSome(source, m / 2);
    std::string error;
    ASSERT_TRUE(doomed->Checkpoint(path, &error)) << error;
  }
  auto resumed = MustCreate("loom", ds);
  std::string error;
  ASSERT_TRUE(resumed->Resume(path, &error)) << error;
  engine::SpanEdgeSource source(edges);
  SkipEdges(source, m / 2);
  resumed->IngestSome(source, m);
  ExpectSameOutcome(Outcome(*resumed, resumed->Finish(), ds), baseline,
                    "open alphabet");
}

// ---------------------------------------------- corruption & skew legs

class CorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    ds_ = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
    es_ = test_util::Drain(ds_.graph, stream::StreamOrder::kBreadthFirst);
    path_ = TempPath("victim.loomck");
    auto session = MustCreate("loom", ds_);
    ASSERT_NE(session, nullptr);
    engine::SpanEdgeSource source(es_);
    session->IngestSome(source, es_.size() / 2);
    std::string error;
    ASSERT_TRUE(session->Checkpoint(path_, &error)) << error;
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 64u);
  }

  std::string WriteVariant(const std::string& name,
                           const std::vector<char>& bytes) {
    const std::string path = TempPath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  // Every rejection must (a) fail, (b) say which file, (c) not be empty
  // boilerplate. Rejection may surface at reader construction or at
  // restore — both end in Resume returning false.
  void ExpectRejected(const std::string& path, const std::string& label) {
    auto session = MustCreate("loom", ds_);
    ASSERT_NE(session, nullptr) << label;
    std::string error;
    EXPECT_FALSE(session->Resume(path, &error)) << label;
    EXPECT_NE(error.find(path), std::string::npos)
        << label << ": error does not name the file: " << error;
    EXPECT_GT(error.size(), path.size() + 10) << label << ": " << error;
  }

  datasets::Dataset ds_;
  std::vector<stream::StreamEdge> es_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(CorruptionTest, EveryTruncationIsRejected) {
  // Sweep cut points across the whole file, plus the pathological sizes.
  std::vector<size_t> cuts = {0, 1, 5, 7};  // inside magic/version/header
  for (size_t i = 1; i <= 16; ++i) cuts.push_back(bytes_.size() * i / 17);
  cuts.push_back(bytes_.size() - 1);
  for (const size_t cut : cuts) {
    if (cut >= bytes_.size()) continue;
    const std::vector<char> truncated(bytes_.begin(),
                                      bytes_.begin() + static_cast<ptrdiff_t>(cut));
    ExpectRejected(WriteVariant("truncated.loomck", truncated),
                   "truncated at " + std::to_string(cut));
  }
}

TEST_F(CorruptionTest, EveryFlippedByteIsDetected) {
  // A single flipped bit anywhere — framing, section names, payloads,
  // checksums — must never restore: flip one byte at offsets spread over
  // the file and expect rejection each time.
  for (size_t i = 0; i < 23; ++i) {
    const size_t offset = bytes_.size() * i / 23;
    std::vector<char> flipped = bytes_;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x5a);
    ExpectRejected(WriteVariant("flipped.loomck", flipped),
                   "byte flipped at " + std::to_string(offset));
  }
}

TEST_F(CorruptionTest, BadMagicAndFutureVersionAreActionable) {
  std::vector<char> bad_magic = bytes_;
  bad_magic[0] = 'X';
  ExpectRejected(WriteVariant("magic.loomck", bad_magic), "bad magic");

  std::vector<char> future = bytes_;
  // The u16 format version sits right after the 6-byte magic.
  future[6] = 99;
  future[7] = 0;
  const std::string path = WriteVariant("future.loomck", future);
  auto session = MustCreate("loom", ds_);
  std::string error;
  EXPECT_FALSE(session->Resume(path, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// Older files carry a session section this build no longer reads: v1 has
// three progress fields and two option keys that v2 dropped, v2 has the
// "simd" option key that v3 dropped, v3 has the "adj_page" option key that
// v4 dropped, v4 has the eviction/cluster totals and the "compact_interval"
// key that v5 dropped. They must fail on the version check, naming both
// versions, not on a confusing layout or arity error further in.
TEST_F(CorruptionTest, VersionOneCheckpointIsRejectedByVersion) {
  for (const uint16_t old_version : {1, 2, 3, 4}) {
    SCOPED_TRACE("v" + std::to_string(old_version));
    std::vector<char> old = bytes_;
    old[6] = static_cast<char>(old_version);
    old[7] = 0;
    const std::string path = WriteVariant(
        "v" + std::to_string(old_version) + ".loomck", old);
    ExpectRejected(path, "v" + std::to_string(old_version) + " header");
    auto session = MustCreate("loom", ds_);
    std::string error;
    EXPECT_FALSE(session->Resume(path, &error));
    EXPECT_NE(error.find("version " + std::to_string(old_version)),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("v" + std::to_string(io::kCheckpointVersion)),
              std::string::npos)
        << error;
  }
}

TEST_F(CorruptionTest, ConfigurationSkewIsNamedNotSilent) {
  // Different window size: the rejection must name the offending knob.
  {
    engine::SessionConfig config = ConfigFor("loom", ds_);
    config.options.window_size = 64;
    std::string error;
    auto session = engine::Session::Create(config, test_util::ContextFor(ds_),
                                           &error);
    ASSERT_NE(session, nullptr) << error;
    EXPECT_FALSE(session->Resume(path_, &error));
    EXPECT_NE(error.find("window_size"), std::string::npos) << error;
  }
  // Different backend entirely.
  {
    auto session = MustCreate("hash", ds_);
    std::string error;
    EXPECT_FALSE(session->Resume(path_, &error));
    EXPECT_NE(error.find("backend mismatch"), std::string::npos) << error;
    EXPECT_NE(error.find("loom"), std::string::npos) << error;
  }
  // Different label space (same options, drifted label registry).
  {
    std::string error;
    engine::BuildContext skewed{&ds_.workload, ds_.registry.size() + 3};
    auto session =
        engine::Session::Create(ConfigFor("loom", ds_), skewed, &error);
    ASSERT_NE(session, nullptr) << error;
    EXPECT_FALSE(session->Resume(path_, &error));
    EXPECT_NE(error.find("label-space mismatch"), std::string::npos) << error;
  }
  // A used session cannot Resume (restore assumes pristine structures).
  {
    auto session = MustCreate("loom", ds_);
    engine::SpanEdgeSource source(es_);
    session->IngestSome(source, 8);
    std::string error;
    EXPECT_FALSE(session->Resume(path_, &error));
    EXPECT_NE(error.find("fresh"), std::string::npos) << error;
  }
}

// ------------------------------------ semantic validation beyond checksums

// The flip/truncation sweeps above are caught by FRAMING (section lengths,
// FNV checksums). But FNV is not cryptographic and checkpoints are plain
// files: a hand-edited or tool-rewritten file arrives with checksums that
// match its lying payload. Counters that travel alongside the tables they
// describe (graph vertex/edge counts, the cut tracker's pending counter)
// must therefore be recomputed at load — this pins the graph loader's
// recompute-or-reject against a file whose framing is INTACT.
TEST(SemanticCorruptionTest, SelfConsistentButDesyncedCountersAreRejected) {
  const auto write = [](uint64_t num_vertices, uint64_t num_edges) {
    io::CheckpointWriter w;
    w.BeginSection("seen_graph");
    w.U64(num_vertices);
    w.U64(num_edges);
    w.PodVec(std::vector<graph::LabelId>{0, 0});
    w.U64(2);
    w.PodVec(std::vector<graph::VertexId>{1});  // adj(0) = {1}
    w.PodVec(std::vector<graph::VertexId>{0});  // adj(1) = {0}
    w.EndSection();
    const std::string path = TempPath("desynced_counters.loomck");
    w.Commit(path);
    return path;
  };

  // Control: the true counters (2 vertices, 1 edge) restore cleanly —
  // rejection below is the counter check, not framing.
  {
    io::CheckpointReader r(write(2, 1));
    graph::DynamicGraph g;
    g.LoadFrom(&r, "seen_graph");
    EXPECT_EQ(g.NumVertices(), 2u);
    EXPECT_EQ(g.NumEdges(), 1u);
  }
  // Same tables, lying counters, valid checksums.
  for (const auto& [nv, ne] : std::vector<std::pair<uint64_t, uint64_t>>{
           {3, 1}, {2, 9}, {0, 1}, {2, 0}}) {
    io::CheckpointReader r(write(nv, ne));
    EXPECT_TRUE(r.Has("seen_graph"));  // framing and checksums intact
    graph::DynamicGraph g;
    try {
      g.LoadFrom(&r, "seen_graph");
      FAIL() << "counter desync (" << nv << "," << ne
             << ") restored silently";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("counter desync"),
                std::string::npos)
          << e.what();
    }
  }
}

// The "matches" section sizes its allocations from numbers in the file and
// Kill later indexes the vertex index by each live match's vertices, so a
// hand-edited section must be rejected before either goes wrong. Each case
// below rewrites one field of a small valid section; framing and checksums
// stay intact.
struct MatchesSection {
  uint32_t next_index = 2;
  std::vector<uint32_t> free_list{1};
  uint32_t live_generation = 0;
  uint32_t free_generation = 1;
  std::vector<graph::VertexId> match_vertices{1, 2};
  uint64_t num_vertices = 3;
  graph::VertexId extra_posting_vertex = graph::kInvalidVertex;

  std::string Write() const {
    io::CheckpointWriter w;
    w.BeginSection("matches");
    w.U32(next_index);
    w.U64(2);  // fresh allocations
    w.U64(0);  // reused allocations
    w.PodVec(free_list);
    w.U32(live_generation);  // slot 0: live, edges {7}
    w.U8(1);
    w.PodVec(std::vector<graph::EdgeId>{7});
    w.PodVec(match_vertices);
    w.PodVec(std::vector<uint8_t>(match_vertices.size(), 1));
    w.U32(0);  // node id
    w.U32(free_generation);  // slot 1: released, free
    w.U8(0);
    w.U64(num_vertices);
    for (graph::VertexId v = 0; v < 3; ++v) {
      const bool listed = v == 1 || v == 2 || v == extra_posting_vertex;
      w.PodVec(listed ? std::vector<motif::MatchHandle>{0}
                      : std::vector<motif::MatchHandle>{});
    }
    w.U64(1);  // one edge key: 7 -> {slot 0}
    w.U32(7);
    w.PodVec(std::vector<motif::MatchHandle>{0});
    w.EndSection();
    const std::string path = TempPath("matches_section.loomck");
    w.Commit(path);
    return path;
  }
};

TEST(SemanticCorruptionTest, MatchesSectionRejectsImpossiblePayloads) {
  // Control: the unedited section restores, and the pool recounts its one
  // live match from the slots.
  {
    io::CheckpointReader r(MatchesSection().Write());
    motif::MatchList ml;
    ml.LoadFrom(&r);
    EXPECT_EQ(ml.NumLive(), 1u);
    EXPECT_EQ(ml.LiveAt(1), (std::vector<motif::MatchHandle>{0}));
    EXPECT_EQ(ml.LiveWithEdge(7), (std::vector<motif::MatchHandle>{0}));
    ml.RemoveMatchesWithEdge(7);
    EXPECT_EQ(ml.NumLive(), 0u);
    EXPECT_EQ(ml.IndexEntriesAt(1), 0u);
  }
  std::vector<std::pair<std::string, MatchesSection>> cases;
  const auto add = [&cases](const std::string& name,
                            const std::function<void(MatchesSection*)>& edit) {
    MatchesSection s;
    edit(&s);
    cases.emplace_back(name, s);
  };
  add("slot count beyond the handle space",
      [](MatchesSection* s) { s->next_index = 0xFFFFFFFFu; });
  add("slot count beyond the section's bytes",
      [](MatchesSection* s) { s->next_index = 1u << 22; });
  add("free entry out of range", [](MatchesSection* s) { s->free_list = {5}; });
  add("free entry live", [](MatchesSection* s) { s->free_list = {0}; });
  add("free entry repeated", [](MatchesSection* s) { s->free_list = {1, 1}; });
  add("free entry retired", [](MatchesSection* s) {
    s->free_generation = motif::kMatchGenerationLimit;
  });
  add("live slot past the generation space", [](MatchesSection* s) {
    s->live_generation = motif::kMatchGenerationLimit;
  });
  add("vertex index beyond the section's bytes",
      [](MatchesSection* s) { s->num_vertices = uint64_t{1} << 40; });
  add("live match outside the vertex index",
      [](MatchesSection* s) { s->match_vertices = {1, 2, 9}; });
  add("posting entry at a vertex its match lacks",
      [](MatchesSection* s) { s->extra_posting_vertex = 0; });
  for (const auto& [name, section] : cases) {
    io::CheckpointReader r(section.Write());
    EXPECT_TRUE(r.Has("matches"));  // framing and checksums intact
    motif::MatchList ml;
    try {
      ml.LoadFrom(&r);
      ADD_FAILURE() << name << ": restored silently";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt match"), std::string::npos)
          << name << ": " << e.what();
    }
  }
}

// ------------------------------------------------- two-slot rotation

TEST(RotationTest, CorruptNewestFallsBackToPreviousAndStillFinishesRight) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const std::vector<stream::StreamEdge> es =
      test_util::Drain(ds.graph, stream::StreamOrder::kBreadthFirst);
  const uint64_t m = es.size();

  auto baseline_session = MustCreate("loom", ds);
  engine::SpanEdgeSource baseline_source(es);
  baseline_session->IngestSome(baseline_source, m);
  const RunOutcome baseline =
      Outcome(*baseline_session, baseline_session->Finish(), ds);

  const std::string path = TempPath("rotating.loomck");
  fs::remove(path);
  fs::remove(path + ".prev");
  {
    auto doomed = MustCreate("loom", ds);
    engine::SpanEdgeSource source(es);
    std::string error;
    doomed->IngestSome(source, m / 3);
    ASSERT_TRUE(engine::CheckpointSessionRotating(doomed.get(), path, &error))
        << error;
    doomed->IngestSome(source, m / 3);
    ASSERT_TRUE(engine::CheckpointSessionRotating(doomed.get(), path, &error))
        << error;
  }
  ASSERT_TRUE(fs::exists(path));
  ASSERT_TRUE(fs::exists(path + ".prev"));

  // Torch the newest slot (torn tail: chop the last quarter off).
  const auto size = static_cast<size_t>(fs::file_size(path));
  fs::resize_file(path, size - size / 4);

  const auto make = [&](std::string* err) {
    return engine::Session::Create(ConfigFor("loom", ds),
                                   test_util::ContextFor(ds), err);
  };
  std::string error;
  bool used_fallback = false;
  auto resumed =
      engine::ResumeSessionWithFallback(make, path, &error, &used_fallback);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_TRUE(used_fallback);
  EXPECT_EQ(resumed->edges_ingested(), m / 3);

  engine::SpanEdgeSource source(es);
  SkipEdges(source, m / 3);
  resumed->IngestSome(source, m);
  ExpectSameOutcome(Outcome(*resumed, resumed->Finish(), ds), baseline,
                    "rotation fallback");

  // Both slots dead -> both errors surface, joined.
  fs::resize_file(path + ".prev", 10);
  auto dead = engine::ResumeSessionWithFallback(make, path, &error);
  EXPECT_EQ(dead, nullptr);
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find(".prev"), std::string::npos) << error;
}

}  // namespace
}  // namespace loom
