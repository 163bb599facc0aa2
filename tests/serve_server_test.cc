// serve::Server acceptance: a served stream must be indistinguishable from
// an offline loom_partition run over the same edge sequence.
//
//   * One socket writer, every edge INGESTed, FINALIZE -> the quality
//     triple (assignment hash, edge cut, imbalance) is bit-identical to a
//     Session driven directly over the same vector.
//   * N concurrent writers + M concurrent GET/STATS readers: arrival order
//     is whatever the scheduler makes it, so the proof obligation shifts to
//     the ingest log — replaying the log offline must reproduce the
//     server's triple exactly.
//   * Crash analog (destruction without Shutdown — what SIGKILL leaves) +
//     --resume from the rotating checkpoint, clients re-sending from the
//     resume cursor: the finished triple again matches the uninterrupted
//     reference, including the restored cut-tracker state.
//   * Malformed and oversize lines over a real socket produce ERR replies
//     and never take down the connection, let alone the server.
//
// Everything here runs under the ThreadSanitizer ctest leg too — the
// wait-free AssignmentTable reads and the MPSC queue are exactly the kind
// of code TSan exists for.

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "engine/engine.h"
#include "engine/session.h"
#include "io/edge_stream_io.h"
#include "partition/partition_metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace serve {
namespace {

namespace fs = std::filesystem;

fs::path TempDir(const std::string& leaf) {
  const fs::path dir = fs::path(testing::TempDir()) / "loom_serve_test" / leaf;
  fs::create_directories(dir);
  return dir;
}

/// EdgeSource over a vector, for the offline reference runs.
class VecSource : public engine::EdgeSource {
 public:
  explicit VecSource(const std::vector<stream::StreamEdge>& edges)
      : edges_(edges) {}
  size_t NextBatch(std::span<stream::StreamEdge> out) override {
    const size_t n = std::min(out.size(), edges_.size() - pos_);
    std::copy_n(edges_.begin() + static_cast<ptrdiff_t>(pos_), n, out.begin());
    pos_ += n;
    return n;
  }
  size_t SizeHint() const override { return edges_.size(); }
  void Reset() override { pos_ = 0; }

 private:
  const std::vector<stream::StreamEdge>& edges_;
  size_t pos_ = 0;
};

struct Fixture {
  datasets::Dataset ds;
  std::vector<stream::StreamEdge> edges;
  engine::SessionConfig session_config;
};

/// musicbrainz at suite scale, streamed BFS — the sequence every leg
/// (offline reference, served, replayed, resumed) must agree on.
Fixture MakeFixture(const std::string& spec) {
  Fixture f;
  f.ds = datasets::MakeDataset(datasets::DatasetId::kMusicBrainz, 0.05);
  auto source = engine::MakeEdgeSource(
      f.ds.graph, stream::StreamOrder::kBreadthFirst, /*seed=*/0x5eed);
  std::vector<stream::StreamEdge> batch(1024);
  for (;;) {
    const size_t n = source->NextBatch(batch);
    if (n == 0) break;
    f.edges.insert(f.edges.end(), batch.begin(), batch.begin() + n);
  }
  f.session_config.spec = spec;
  f.session_config.options = test_util::OptionsFor(f.ds, /*k=*/8,
                                                   /*window_size=*/128);
  return f;
}

struct Triple {
  uint64_t hash = 0;
  uint64_t cut = 0;
  double imbalance = 0.0;
  friend bool operator==(const Triple&, const Triple&) = default;
};

std::ostream& operator<<(std::ostream& os, const Triple& t) {
  return os << "{hash=" << t.hash << " cut=" << t.cut
            << " imbalance=" << t.imbalance << "}";
}

Triple TripleOf(const partition::Partitioning& p,
                const std::vector<stream::StreamEdge>& edges,
                size_t num_vertices) {
  Triple t;
  t.hash = partition::AssignmentHash(p, num_vertices);
  for (const stream::StreamEdge& e : edges) {
    if (p.PartitionOf(e.u) != p.PartitionOf(e.v)) ++t.cut;
  }
  t.imbalance = partition::Imbalance(p);
  return t;
}

/// The offline ground truth: a plain Session driven over the vector.
Triple OfflineReference(const Fixture& f) {
  std::string error;
  auto session = engine::Session::Create(
      f.session_config, test_util::ContextFor(f.ds), &error);
  EXPECT_NE(session, nullptr) << error;
  VecSource source(f.edges);
  session->Run(source);
  return TripleOf(session->partitioning(), f.edges, f.ds.NumVertices());
}

/// Sends edges [from, to) as INGEST lines, pipelined `depth` deep.
void SendRange(Client* client, const std::vector<stream::StreamEdge>& edges,
               size_t from, size_t to, size_t depth = 256) {
  std::string error, reply;
  size_t in_flight = 0;
  for (size_t i = from; i < to; ++i) {
    Command c;
    c.type = CommandType::kIngest;
    c.edge = edges[i];
    if (in_flight >= depth) {
      ASSERT_TRUE(client->ReadReply(&reply, &error)) << error;
      ASSERT_TRUE(IsOk(reply)) << reply;
      --in_flight;
    }
    ASSERT_TRUE(client->SendLine(FormatCommand(c), &error)) << error;
    ++in_flight;
  }
  while (in_flight > 0) {
    ASSERT_TRUE(client->ReadReply(&reply, &error)) << error;
    ASSERT_TRUE(IsOk(reply)) << reply;
    --in_flight;
  }
}

class ServeServerTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeServerTest, SingleWriterBitIdenticalToOffline) {
  const Fixture f = MakeFixture(GetParam());
  const Triple reference = OfflineReference(f);
  const fs::path dir = TempDir("single_" + std::to_string(f.edges.size()));

  ServerConfig config;
  config.socket_path = (dir / "loom.sock").string();
  config.session = f.session_config;
  config.registry = &f.ds.registry;
  std::string error;
  auto server = Server::Create(config, test_util::ContextFor(f.ds), &error);
  ASSERT_NE(server, nullptr) << error;
  server->Start();

  Client client;
  ASSERT_TRUE(client.Connect(config.socket_path, &error)) << error;
  SendRange(&client, f.edges, 0, f.edges.size());
  std::string reply;
  ASSERT_TRUE(client.Roundtrip("FINALIZE", &reply, &error)) << error;
  EXPECT_TRUE(IsOk(reply)) << reply;
  ASSERT_TRUE(client.Roundtrip("SNAPSHOT-QUALITY", &reply, &error)) << error;
  EXPECT_TRUE(IsOk(reply)) << reply;
  ASSERT_TRUE(client.Roundtrip("STATS", &reply, &error)) << error;
  EXPECT_TRUE(IsOk(reply)) << reply;
  client.Close();
  server->Shutdown();

  const Triple served =
      TripleOf(server->session().partitioning(), f.edges, f.ds.NumVertices());
  EXPECT_EQ(served, reference);
  // The served cut was maintained stream-side by the tracker — it must
  // agree with the replay-counted cut.
  EXPECT_EQ(server->tracker().cut(), reference.cut);
  EXPECT_EQ(server->edges_ingested(), f.edges.size());

  // The wait-free table is the GET fast path: it must agree with the
  // session's partitioning everywhere.
  const partition::Partitioning& p = server->session().partitioning();
  for (size_t v = 0; v < f.ds.NumVertices(); v += 7) {
    EXPECT_EQ(server->table().Get(static_cast<graph::VertexId>(v)),
              p.PartitionOf(static_cast<graph::VertexId>(v)))
        << "vertex " << v;
  }
}

TEST_P(ServeServerTest, ConcurrentWritersMatchIngestLogReplay) {
  const Fixture f = MakeFixture(GetParam());
  const fs::path dir = TempDir("writers_" + GetParam().substr(0, 4));
  const std::string log_path = (dir / "ingest.les").string();

  ServerConfig config;
  config.socket_path = (dir / "loom.sock").string();
  config.session = f.session_config;
  config.ingest_log_path = log_path;
  config.registry = &f.ds.registry;
  // Small queue so writers actually hit backpressure.
  config.queue_capacity = 1024;
  std::string error;
  auto server = Server::Create(config, test_util::ContextFor(f.ds), &error);
  ASSERT_NE(server, nullptr) << error;
  server->Start();

  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 2;
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Client client;
      std::string err;
      ASSERT_TRUE(client.Connect(config.socket_path, &err)) << err;
      // Writer w sends the slice [w*stride, (w+1)*stride).
      const size_t stride = (f.edges.size() + kWriters - 1) / kWriters;
      const size_t from = w * stride;
      const size_t to = std::min(f.edges.size(), from + stride);
      SendRange(&client, f.edges, from, to);
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Client client;
      std::string err, reply;
      ASSERT_TRUE(client.Connect(config.socket_path, &err)) << err;
      uint64_t probes = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        const graph::VertexId v =
            static_cast<graph::VertexId>((probes * 37 + r) %
                                         std::max<size_t>(f.ds.NumVertices(),
                                                          1));
        ASSERT_TRUE(client.Roundtrip("GET " + std::to_string(v), &reply,
                                     &err))
            << err;
        EXPECT_TRUE(IsOk(reply)) << reply;
        ASSERT_TRUE(client.Roundtrip("STATS", &reply, &err)) << err;
        EXPECT_TRUE(IsOk(reply)) << reply;
        ++probes;
      }
    });
  }
  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t r = kWriters; r < threads.size(); ++r) threads[r].join();

  Client ctl;
  std::string reply;
  ASSERT_TRUE(ctl.Connect(config.socket_path, &error)) << error;
  ASSERT_TRUE(ctl.Roundtrip("FINALIZE", &reply, &error)) << error;
  EXPECT_TRUE(IsOk(reply)) << reply;
  ctl.Close();
  server->Shutdown();
  ASSERT_EQ(server->edges_ingested(), f.edges.size());

  // Decision order was scheduler-dependent — but the ingest log recorded
  // it. An offline session over the log must land on the same triple.
  io::FileEdgeSource log(log_path);
  std::vector<stream::StreamEdge> logged;
  std::vector<stream::StreamEdge> batch(1024);
  for (;;) {
    const size_t n = log.NextBatch(batch);
    if (n == 0) break;
    logged.insert(logged.end(), batch.begin(), batch.begin() + n);
  }
  ASSERT_EQ(logged.size(), f.edges.size());

  auto offline = engine::Session::Create(f.session_config,
                                         test_util::ContextFor(f.ds), &error);
  ASSERT_NE(offline, nullptr) << error;
  VecSource replay(logged);
  offline->Run(replay);
  const Triple replayed =
      TripleOf(offline->partitioning(), logged, f.ds.NumVertices());
  const Triple served = TripleOf(server->session().partitioning(), logged,
                                 f.ds.NumVertices());
  EXPECT_EQ(served, replayed);
  EXPECT_EQ(server->tracker().cut(), replayed.cut);
}

TEST_P(ServeServerTest, CrashAnalogThenResumeRecoversBitIdentically) {
  const Fixture f = MakeFixture(GetParam());
  const Triple reference = OfflineReference(f);
  const fs::path dir = TempDir("crash_" + GetParam().substr(0, 4));
  const std::string ck_path = (dir / "serve.loomck").string();

  const size_t cut_at = f.edges.size() * 3 / 5;
  const size_t lose_to = f.edges.size() * 4 / 5;
  {
    ServerConfig config;
    config.socket_path = (dir / "a.sock").string();
    config.session = f.session_config;
    config.checkpoint_path = ck_path;
    config.registry = &f.ds.registry;
    std::string error;
    auto server = Server::Create(config, test_util::ContextFor(f.ds), &error);
    ASSERT_NE(server, nullptr) << error;
    server->Start();
    Client client;
    ASSERT_TRUE(client.Connect(config.socket_path, &error)) << error;
    // A checkpointed prefix, then more edges the crash will throw away.
    SendRange(&client, f.edges, 0, cut_at);
    std::string reply;
    ASSERT_TRUE(client.Roundtrip("CHECKPOINT", &reply, &error)) << error;
    ASSERT_TRUE(IsOk(reply)) << reply;
    SendRange(&client, f.edges, cut_at, lose_to);
    client.Close();
    // Destruction WITHOUT Shutdown: the in-process SIGKILL. Everything
    // after the checkpoint is gone.
  }

  ServerConfig config;
  config.socket_path = (dir / "b.sock").string();
  config.session = f.session_config;
  config.checkpoint_path = ck_path;
  config.resume_path = ck_path;
  config.registry = &f.ds.registry;
  std::string error;
  auto server = Server::Create(config, test_util::ContextFor(f.ds), &error);
  ASSERT_NE(server, nullptr) << error;
  // The resume cursor is the client's re-send position — exactly what
  // STATS edges= would tell a remote writer.
  const uint64_t cursor = server->edges_ingested();
  ASSERT_EQ(cursor, cut_at);
  server->Start();

  Client client;
  ASSERT_TRUE(client.Connect(config.socket_path, &error)) << error;
  SendRange(&client, f.edges, static_cast<size_t>(cursor), f.edges.size());
  std::string reply;
  ASSERT_TRUE(client.Roundtrip("FINALIZE", &reply, &error)) << error;
  EXPECT_TRUE(IsOk(reply)) << reply;
  client.Close();
  server->Shutdown();

  const Triple resumed =
      TripleOf(server->session().partitioning(), f.edges, f.ds.NumVertices());
  EXPECT_EQ(resumed, reference);
  // The cut tracker's parked edges crossed the crash inside the LOOMCK —
  // the stream-side count must still agree with the replayed one.
  EXPECT_EQ(server->tracker().cut(), reference.cut);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServeServerTest,
                         ::testing::Values("loom"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return name;
                         });

TEST(ServeServerIdempotencyTest, SeqNumberedResendsAreDroppedNotReapplied) {
  // The at-least-once hole: a writer that times out and re-sends (the
  // documented recovery protocol) must not double-ingest. With the optional
  // INGEST seq field the server drops exact re-sends ("OK dup"), so the
  // finished triple is STILL bit-identical to the offline reference even
  // though a third of the stream was sent twice.
  const Fixture f = MakeFixture("loom");
  const Triple reference = OfflineReference(f);
  const fs::path dir = TempDir("idempotent");

  ServerConfig config;
  config.socket_path = (dir / "loom.sock").string();
  config.session = f.session_config;
  config.registry = &f.ds.registry;
  std::string error;
  auto server = Server::Create(config, test_util::ContextFor(f.ds), &error);
  ASSERT_NE(server, nullptr) << error;
  server->Start();

  Client client;
  ASSERT_TRUE(client.Connect(config.socket_path, &error)) << error;
  auto send_seq = [&](size_t i) -> std::string {
    Command c;
    c.type = CommandType::kIngest;
    c.edge = f.edges[i];
    c.has_seq = true;
    c.seq = i;
    std::string reply, err;
    EXPECT_TRUE(client.Roundtrip(FormatCommand(c), &reply, &err)) << err;
    return reply;
  };

  const size_t resend_from = f.edges.size() / 3;
  const size_t resend_to = 2 * f.edges.size() / 3;
  for (size_t i = 0; i < resend_to; ++i) {
    const std::string reply = send_seq(i);
    EXPECT_TRUE(IsOk(reply)) << reply;
  }
  // The writer "crashes" and replays from an old cursor: every re-send is
  // acknowledged (so a dumb retry loop keeps walking) but dropped.
  for (size_t i = resend_from; i < resend_to; ++i) {
    const std::string reply = send_seq(i);
    EXPECT_TRUE(IsOk(reply)) << reply;
    EXPECT_NE(reply.find("dup"), std::string::npos) << reply;
  }
  std::string reply;
  // INGEST acks on enqueue. SNAPSHOT-QUALITY rides the decision queue behind
  // every edge queued before it, so once it replies STATS reads the applied
  // total rather than a mid-drain count.
  ASSERT_TRUE(client.Roundtrip("SNAPSHOT-QUALITY", &reply, &error)) << error;
  ASSERT_TRUE(client.Roundtrip("STATS", &reply, &error)) << error;
  EXPECT_NE(reply.find("edges=" + std::to_string(resend_to)),
            std::string::npos)
      << reply;

  // Jumping AHEAD of the cursor is a hole in the stream, not a re-send:
  // rejected, and the error names the seq to re-send from.
  {
    Command c;
    c.type = CommandType::kIngest;
    c.edge = f.edges[resend_to];
    c.has_seq = true;
    c.seq = resend_to + 7;
    ASSERT_TRUE(client.Roundtrip(FormatCommand(c), &reply, &error)) << error;
    EXPECT_FALSE(IsOk(reply)) << reply;
    EXPECT_NE(reply.find("expected " + std::to_string(resend_to)),
              std::string::npos)
        << reply;
  }

  // Seq-less INGEST still works mid-stream (the tail/legacy path).
  for (size_t i = resend_to; i < f.edges.size(); ++i) {
    Command c;
    c.type = CommandType::kIngest;
    c.edge = f.edges[i];
    ASSERT_TRUE(client.Roundtrip(FormatCommand(c), &reply, &error)) << error;
    EXPECT_TRUE(IsOk(reply)) << reply;
  }
  ASSERT_TRUE(client.Roundtrip("FINALIZE", &reply, &error)) << error;
  EXPECT_TRUE(IsOk(reply)) << reply;
  client.Close();
  server->Shutdown();

  EXPECT_EQ(server->edges_ingested(), f.edges.size());
  const Triple served =
      TripleOf(server->session().partitioning(), f.edges, f.ds.NumVertices());
  EXPECT_EQ(served, reference);
}

TEST(ServeServerRobustnessTest, MalformedLinesGetErrRepliesNotDisconnects) {
  const Fixture f = MakeFixture("loom");
  const fs::path dir = TempDir("malformed");
  ServerConfig config;
  config.socket_path = (dir / "loom.sock").string();
  config.session = f.session_config;
  config.registry = &f.ds.registry;
  std::string error;
  auto server = Server::Create(config, test_util::ContextFor(f.ds), &error);
  ASSERT_NE(server, nullptr) << error;
  server->Start();

  Client client;
  ASSERT_TRUE(client.Connect(config.socket_path, &error)) << error;
  std::string reply;
  const char* kGarbage[] = {
      "INGEST 1 1 0 0",       // self-loop
      "INGEST a b c d",       // non-numeric
      "INGEST 1 2 0",         // wrong arity
      "FROBNICATE",           // unknown verb
      "",                     // empty line
      "GET 99999999999999",   // overflows VertexId
      "INGEST 999999999 1 0 0",  // past expected_vertices
      "INGEST 1 2 99 0",      // label outside the table
  };
  for (const char* line : kGarbage) {
    ASSERT_TRUE(client.Roundtrip(line, &reply, &error)) << error;
    EXPECT_FALSE(IsOk(reply)) << line << " -> " << reply;
  }
  // An oversize line (no newline until way past the cap) gets one ERR.
  ASSERT_TRUE(client.Roundtrip(std::string(2 * kMaxLineBytes, 'x'), &reply,
                               &error))
      << error;
  EXPECT_FALSE(IsOk(reply)) << reply;
  // Nothing above reached the engine...
  ASSERT_TRUE(client.Roundtrip("STATS", &reply, &error)) << error;
  EXPECT_TRUE(IsOk(reply)) << reply;
  EXPECT_NE(reply.find("edges=0"), std::string::npos) << reply;
  // ...and the same connection still ingests fine.
  ASSERT_TRUE(
      client.Roundtrip(FormatCommand(Command{
                           .type = CommandType::kIngest,
                           .edge = f.edges.front(),
                       }),
                       &reply, &error))
      << error;
  EXPECT_TRUE(IsOk(reply)) << reply;
  client.Close();
  server->Shutdown();
  EXPECT_EQ(server->edges_ingested(), 1u);
}

TEST(ServeServerRobustnessTest, ControlCommandsWorkWithoutSocket) {
  // HandleLine is the whole protocol surface — a tail-only (or embedded)
  // server answers it without any listener running.
  const Fixture f = MakeFixture("loom");
  ServerConfig config;
  config.session = f.session_config;
  config.registry = &f.ds.registry;
  std::string error;
  auto server = Server::Create(config, test_util::ContextFor(f.ds), &error);
  ASSERT_NE(server, nullptr) << error;
  EXPECT_TRUE(IsOk(server->HandleLine("STATS")));
  EXPECT_TRUE(IsOk(server->HandleLine("SNAPSHOT-QUALITY")));
  EXPECT_FALSE(IsOk(server->HandleLine("CHECKPOINT")));  // not configured
  EXPECT_TRUE(IsOk(server->HandleLine("GET 0")));
  EXPECT_FALSE(IsOk(server->HandleLine("GET")));
}

}  // namespace
}  // namespace serve
}  // namespace loom
