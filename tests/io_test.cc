// loom::io coverage: edge-stream write -> read round trips for both
// formats (byte-exact determinism, header metadata, label tables), the
// actionable error paths (bad magic, unsupported version, truncation,
// checksum drift, label-space mismatch), and the assignment sinks.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "engine/edge_source.h"
#include "io/assignment_sink.h"
#include "io/edge_stream_io.h"
#include "stream/stream_order.h"

namespace loom {
namespace {

namespace fs = std::filesystem;

fs::path TempDir() {
  const fs::path dir = fs::path(testing::TempDir()) / "loom_io_test";
  fs::create_directories(dir);
  return dir;
}

std::vector<stream::StreamEdge> Drain(engine::EdgeSource& source) {
  std::vector<stream::StreamEdge> out;
  std::vector<stream::StreamEdge> batch(57);  // deliberately odd
  for (;;) {
    const size_t n = source.NextBatch(batch);
    if (n == 0) break;
    out.insert(out.end(), batch.begin(), batch.begin() + n);
  }
  return out;
}

std::string FileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Written {
  fs::path path;
  datasets::Dataset ds;
  std::vector<stream::StreamEdge> expected;
};

Written WriteDataset(io::StreamFormat format, const std::string& filename) {
  Written w;
  w.path = TempDir() / filename;
  w.ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.02);
  auto source =
      engine::MakeEdgeSource(w.ds, stream::StreamOrder::kBreadthFirst);
  io::WriteEdgeStream(w.path.string(), w.ds.registry, w.ds.NumVertices(),
                      source.get(), format);
  source->Reset();
  w.expected = Drain(*source);
  return w;
}

class EdgeStreamFormatTest
    : public testing::TestWithParam<io::StreamFormat> {};

TEST_P(EdgeStreamFormatTest, RoundTripsExactly) {
  const Written w = WriteDataset(GetParam(), "roundtrip");
  io::FileEdgeSource reader(w.path.string());

  EXPECT_EQ(reader.info().format, GetParam());
  EXPECT_EQ(reader.info().edge_count, w.expected.size());
  EXPECT_EQ(reader.info().vertex_count, w.ds.NumVertices());
  ASSERT_EQ(reader.info().labels.size(), w.ds.registry.size());
  for (size_t i = 0; i < reader.info().labels.size(); ++i) {
    EXPECT_EQ(reader.info().labels[i],
              w.ds.registry.Name(static_cast<graph::LabelId>(i)));
  }

  const std::vector<stream::StreamEdge> got = Drain(reader);
  ASSERT_EQ(got.size(), w.expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, w.expected[i].id);
    EXPECT_EQ(got[i].u, w.expected[i].u);
    EXPECT_EQ(got[i].v, w.expected[i].v);
    EXPECT_EQ(got[i].label_u, w.expected[i].label_u);
    EXPECT_EQ(got[i].label_v, w.expected[i].label_v);
  }
}

TEST_P(EdgeStreamFormatTest, WritingTwiceIsByteIdentical) {
  const Written a = WriteDataset(GetParam(), "bytes_a");
  const Written b = WriteDataset(GetParam(), "bytes_b");
  EXPECT_EQ(FileBytes(a.path), FileBytes(b.path));
}

TEST_P(EdgeStreamFormatTest, InternLabelsAgreesOrFailsActionably) {
  const Written w = WriteDataset(GetParam(), "labels");
  io::FileEdgeSource reader(w.path.string());

  graph::LabelRegistry fresh;
  std::string error;
  EXPECT_TRUE(reader.InternLabels(&fresh, &error)) << error;
  EXPECT_EQ(fresh.size(), w.ds.registry.size());

  graph::LabelRegistry clashing;
  clashing.Intern("SomethingElse");  // id 0 now taken by a foreign name
  EXPECT_FALSE(reader.InternLabels(&clashing, &error));
  EXPECT_NE(error.find("label"), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(Formats, EdgeStreamFormatTest,
                         testing::Values(io::StreamFormat::kBinary,
                                         io::StreamFormat::kText),
                         [](const testing::TestParamInfo<io::StreamFormat>& i) {
                           return io::ToString(i.param);
                         });

// ------------------------------------------------------------ error paths

TEST(EdgeStreamErrorTest, BadMagicIsActionable) {
  const fs::path path = TempDir() / "bad_magic";
  std::ofstream(path) << "this is not an edge stream\n";
  try {
    io::FileEdgeSource source(path.string());
    FAIL() << "bad magic should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos)
        << e.what();
  }
}

TEST(EdgeStreamErrorTest, MissingFileIsActionable) {
  try {
    io::FileEdgeSource source((TempDir() / "does_not_exist").string());
    FAIL() << "missing file should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(EdgeStreamErrorTest, UnsupportedVersionIsActionable) {
  const Written w = WriteDataset(io::StreamFormat::kBinary, "version");
  std::string bytes = FileBytes(w.path);
  bytes[6] = 9;  // version field (little-endian uint16 at offset 6)
  std::ofstream(w.path, std::ios::binary | std::ios::trunc) << bytes;
  try {
    io::FileEdgeSource source(w.path.string());
    FAIL() << "future version should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 9"), std::string::npos)
        << e.what();
  }
}

TEST(EdgeStreamErrorTest, TruncatedFileIsDetected) {
  for (auto format : {io::StreamFormat::kBinary, io::StreamFormat::kText}) {
    const Written w = WriteDataset(format, "truncated");
    std::string bytes = FileBytes(w.path);
    bytes.resize(bytes.size() - 40);  // lose the tail records
    if (format == io::StreamFormat::kText) {
      // Cut on a line boundary so the failure is specifically "fewer edges
      // than the header declares", not a torn record.
      bytes.resize(bytes.rfind('\n') + 1);
    }
    std::ofstream(w.path, std::ios::binary | std::ios::trunc) << bytes;

    try {
      io::FileEdgeSource source(w.path.string());
      Drain(source);
      FAIL() << "truncated " << io::ToString(format) << " should throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
}

// The header's edge count sizes memory downstream (SizeHint), so a count
// the file cannot hold is rejected when the source is built, before any
// reader trusts it.
TEST(EdgeStreamErrorTest, ImpossibleEdgeCountIsRejectedAtOpen) {
  constexpr uint64_t kClaimed = uint64_t{1} << 40;
  for (auto format : {io::StreamFormat::kBinary, io::StreamFormat::kText}) {
    const Written w = WriteDataset(format, "overclaim");
    std::string bytes = FileBytes(w.path);
    if (format == io::StreamFormat::kBinary) {
      std::memcpy(&bytes[8], &kClaimed, sizeof(kClaimed));  // edge_count
    } else {
      // The count is the zero-padded 20-digit field ending the "N" line.
      const size_t eol = bytes.find('\n', bytes.find("\nN ") + 1);
      const std::string digits = std::to_string(kClaimed);
      bytes.replace(eol - 20, 20, std::string(20 - digits.size(), '0') + digits);
    }
    std::ofstream(w.path, std::ios::binary | std::ios::trunc) << bytes;

    try {
      io::FileEdgeSource source(w.path.string());
      FAIL() << io::ToString(format) << ": construction should throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated: header declares " +
                                           std::to_string(kClaimed) + " edges"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(EdgeStreamErrorTest, BinaryChecksumCatchesPayloadCorruption) {
  const Written w = WriteDataset(io::StreamFormat::kBinary, "corrupt");
  std::string bytes = FileBytes(w.path);
  bytes[bytes.size() - 5] ^= 0x20;  // flip a bit inside the last record
  std::ofstream(w.path, std::ios::binary | std::ios::trunc) << bytes;

  io::FileEdgeSource source(w.path.string());
  try {
    Drain(source);
    FAIL() << "corrupt payload should throw";
  } catch (const std::runtime_error& e) {
    // Either the record became structurally invalid (range check) or the
    // checksum catches it at exhaustion — both are loud failures.
    const std::string what = e.what();
    EXPECT_TRUE(what.find("checksum") != std::string::npos ||
                what.find("exceeds") != std::string::npos)
        << what;
  }
}

TEST(EdgeStreamErrorTest, ZeroEdgeStreamsRoundTripAndReset) {
  // A header-only stream is legal; Reset on it must honour the EdgeSource
  // contract instead of seeking to a failed tellg() position.
  graph::LabelRegistry registry;
  registry.Intern("Only");
  for (auto format : {io::StreamFormat::kBinary, io::StreamFormat::kText}) {
    const fs::path path =
        TempDir() / ("empty_" + io::ToString(format));
    {
      io::EdgeStreamWriter writer(path.string(), registry, /*vertex_count=*/3,
                                  format);
      writer.Close();
    }
    io::FileEdgeSource source(path.string());
    EXPECT_EQ(source.info().edge_count, 0u);
    EXPECT_EQ(source.SizeHint(), 0u);
    std::vector<stream::StreamEdge> batch(4);
    EXPECT_EQ(source.NextBatch(batch), 0u);
    EXPECT_NO_THROW(source.Reset()) << io::ToString(format);
    EXPECT_EQ(source.NextBatch(batch), 0u);
  }
}

TEST(EdgeStreamErrorTest, FutureTextVersionIsRejectedNotMisparsed) {
  const fs::path path = TempDir() / "future_text";
  std::ofstream(path) << "# loom-edge-stream v10\nN 2 1\nL a\nE 0 1 0 0\n";
  try {
    io::FileEdgeSource source(path.string());
    FAIL() << "v10 text stream should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("v10"), std::string::npos)
        << e.what();
  }
}

TEST(EdgeStreamErrorTest, FailedInternLabelsLeavesRegistryUntouched) {
  const Written w = WriteDataset(io::StreamFormat::kBinary, "intern_atomic");
  io::FileEdgeSource reader(w.path.string());
  ASSERT_GE(reader.info().labels.size(), 2u);

  graph::LabelRegistry clashing;
  clashing.Intern(reader.info().labels[1]);  // file's id-1 name at id 0
  std::string error;
  EXPECT_FALSE(reader.InternLabels(&clashing, &error));
  // The failed check interned nothing: still exactly the one label.
  EXPECT_EQ(clashing.size(), 1u);
  EXPECT_EQ(clashing.Find(reader.info().labels[0]), graph::kInvalidLabel);
}

TEST(EdgeStreamErrorTest, TextFormatIsHumanReadable) {
  const Written w = WriteDataset(io::StreamFormat::kText, "readable");
  std::ifstream in(w.path);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "# loom-edge-stream v1");
}

// ------------------------------------------------------- assignment sinks

// --------------------------------------------------------------- follow
// Tail-follow coverage. These tests avoid real concurrency where possible:
// ReadFollow returns as soon as at least one COMPLETE record is on disk, so
// writing (and flushing) before each NextBatch keeps everything
// deterministic and poll-free.

stream::StreamEdge MakeEdge(uint32_t u, uint32_t v) {
  stream::StreamEdge e;
  e.u = u;
  e.v = v;
  e.label_u = 0;
  e.label_v = 1;
  return e;
}

graph::LabelRegistry TwoLabels() {
  graph::LabelRegistry registry;
  registry.Intern("a");
  registry.Intern("b");
  return registry;
}

// The stream format forbids self-loops (graphs in this library are
// self-loop-free); the READER enforces it so a hand-made or corrupted file
// cannot push a self-loop past the io boundary — partitioner backends only
// canonicalise them as defence in depth for direct API users.
class EdgeStreamSelfLoopTest : public testing::TestWithParam<io::StreamFormat> {
};

TEST_P(EdgeStreamSelfLoopTest, ReaderRejectsSelfLoopRecords) {
  const fs::path path =
      TempDir() / ("selfloop_" + io::ToString(GetParam()));
  {
    io::EdgeStreamWriter writer(path.string(), TwoLabels(), 100, GetParam());
    writer.Append(MakeEdge(1, 2));
    writer.Append(MakeEdge(7, 7));  // the writer is not the trust boundary
    writer.Append(MakeEdge(3, 4));
    writer.Close();
  }
  io::FileEdgeSource reader(path.string());
  std::vector<stream::StreamEdge> batch(8);
  try {
    while (reader.NextBatch(batch) > 0) {
    }
    FAIL() << "self-loop record was not rejected";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("self-loop"), std::string::npos) << msg;
    EXPECT_NE(msg.find("edge 1"), std::string::npos) << msg;  // which record
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, EdgeStreamSelfLoopTest,
                         testing::Values(io::StreamFormat::kBinary,
                                         io::StreamFormat::kText));

class EdgeStreamFollowTest : public testing::TestWithParam<io::StreamFormat> {
};

TEST_P(EdgeStreamFollowTest, ReadsEdgesFlushedAfterOpen) {
  const fs::path path =
      TempDir() / ("follow_live_" + io::ToString(GetParam()));
  io::EdgeStreamWriter writer(path.string(), TwoLabels(), 100, GetParam());
  writer.Append(MakeEdge(1, 2));
  writer.Append(MakeEdge(3, 4));
  writer.Append(MakeEdge(5, 6));
  writer.Flush();  // header + 3 edges visible; counts still unpatched

  std::atomic<bool> stop{false};
  io::FollowOptions follow;
  follow.follow = true;
  follow.poll_interval_ms = 1;
  follow.stop = &stop;
  io::FileEdgeSource reader(path.string(), follow);
  if (GetParam() == io::StreamFormat::kBinary) {
    EXPECT_EQ(reader.info().edge_count, 0u);  // stale until Close — ignored
  }
  ASSERT_EQ(reader.info().labels.size(), 2u);

  std::vector<stream::StreamEdge> batch(8);
  ASSERT_EQ(reader.NextBatch(batch), 3u);
  EXPECT_EQ(batch[0].u, 1u);
  EXPECT_EQ(batch[2].v, 6u);
  EXPECT_EQ(batch[2].id, 2u);

  writer.Append(MakeEdge(7, 8));
  writer.Flush();
  ASSERT_EQ(reader.NextBatch(batch), 1u);
  EXPECT_EQ(batch[0].u, 7u);
  EXPECT_EQ(batch[0].id, 3u);  // stream ids keep counting across polls

  stop.store(true);
  EXPECT_EQ(reader.NextBatch(batch), 0u);
  EXPECT_EQ(reader.NextBatch(batch), 0u);  // exhausted once stopped
}

TEST_P(EdgeStreamFollowTest, PartialRecordIsReReadWhole) {
  const fs::path path =
      TempDir() / ("follow_partial_" + io::ToString(GetParam()));
  io::EdgeStreamWriter writer(path.string(), TwoLabels(), 100, GetParam());
  writer.Append(MakeEdge(1, 2));
  writer.Flush();

  std::atomic<bool> stop{false};
  io::FollowOptions follow;
  follow.follow = true;
  follow.poll_interval_ms = 1;
  follow.stop = &stop;
  io::FileEdgeSource reader(path.string(), follow);

  // Land only the front half of the next record, as an interrupted
  // producer would.
  std::string head, tail;
  if (GetParam() == io::StreamFormat::kBinary) {
    const uint32_t u = 9, v = 10;
    const uint16_t lu = 0, lv = 1;
    std::string record(12, '\0');
    std::memcpy(record.data(), &u, 4);
    std::memcpy(record.data() + 4, &v, 4);
    std::memcpy(record.data() + 8, &lu, 2);
    std::memcpy(record.data() + 10, &lv, 2);
    head = record.substr(0, 5);
    tail = record.substr(5);
  } else {
    head = "E 9 1";
    tail = "0 0 1\n";
  }
  {
    std::ofstream app(path, std::ios::binary | std::ios::app);
    app << head;
  }

  std::vector<stream::StreamEdge> batch(8);
  ASSERT_EQ(reader.NextBatch(batch), 1u);  // only the complete record
  EXPECT_EQ(batch[0].u, 1u);

  {
    std::ofstream app(path, std::ios::binary | std::ios::app);
    app << tail;
  }
  ASSERT_EQ(reader.NextBatch(batch), 1u);
  EXPECT_EQ(batch[0].u, 9u);
  EXPECT_EQ(batch[0].v, 10u);
  EXPECT_EQ(batch[0].id, 1u);
}

TEST_P(EdgeStreamFollowTest, ConstructorWaitsForCompleteHeader) {
  const fs::path staging =
      TempDir() / ("follow_hdr_staging_" + io::ToString(GetParam()));
  const fs::path path =
      TempDir() / ("follow_hdr_" + io::ToString(GetParam()));
  {
    io::EdgeStreamWriter writer(staging.string(), TwoLabels(), 100,
                                GetParam());
    writer.Append(MakeEdge(1, 2));
    writer.Close();
  }
  const std::string bytes = FileBytes(staging);
  ASSERT_GT(bytes.size(), 10u);
  {
    // Seed the target with a torn header prefix.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, 10);
  }
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::ofstream app(path, std::ios::binary | std::ios::app);
    app << bytes.substr(10);
  });
  io::FollowOptions follow;
  follow.follow = true;
  follow.poll_interval_ms = 1;
  io::FileEdgeSource reader(path.string(), follow);  // must not throw
  producer.join();
  std::vector<stream::StreamEdge> batch(4);
  ASSERT_EQ(reader.NextBatch(batch), 1u);
  EXPECT_EQ(batch[0].u, 1u);
}

TEST_P(EdgeStreamFollowTest, SkipToPositionsAtCursorOnLiveFile) {
  const fs::path path =
      TempDir() / ("follow_skip_" + io::ToString(GetParam()));
  io::EdgeStreamWriter writer(path.string(), TwoLabels(), 100, GetParam());
  for (uint32_t i = 0; i < 5; ++i) writer.Append(MakeEdge(i, i + 1));
  writer.Flush();  // never closed: counts stay stale

  io::FollowOptions follow;
  follow.follow = true;
  follow.poll_interval_ms = 1;
  io::FileEdgeSource reader(path.string(), follow);
  reader.SkipTo(3);  // beyond the (stale) declared count of 0
  std::vector<stream::StreamEdge> batch(8);
  ASSERT_EQ(reader.NextBatch(batch), 2u);
  EXPECT_EQ(batch[0].u, 3u);
  EXPECT_EQ(batch[0].id, 3u);
  EXPECT_EQ(batch[1].id, 4u);
}

TEST(EdgeStreamFollowErrorTest, StopDuringHeaderWaitThrows) {
  const fs::path path = TempDir() / "follow_stop_empty";
  { std::ofstream touch(path, std::ios::trunc); }
  std::atomic<bool> stop{true};
  io::FollowOptions follow;
  follow.follow = true;
  follow.poll_interval_ms = 1;
  follow.stop = &stop;
  try {
    io::FileEdgeSource reader(path.string(), follow);
    FAIL() << "expected a throw: empty file, stop already signalled";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stopped"), std::string::npos);
  }
}

TEST(EdgeStreamFollowErrorTest, BadMagicStillThrowsImmediately) {
  const fs::path path = TempDir() / "follow_bad_magic";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "definitely not an edge stream\n";
  }
  io::FollowOptions follow;
  follow.follow = true;
  follow.poll_interval_ms = 1;
  EXPECT_THROW(io::FileEdgeSource(path.string(), follow), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Formats, EdgeStreamFollowTest,
                         testing::Values(io::StreamFormat::kBinary,
                                         io::StreamFormat::kText),
                         [](const auto& info) {
                           return io::ToString(info.param);
                         });

TEST(AssignmentSinkTest, MemorySinkRecordsInArrivalOrder) {
  io::MemoryAssignmentSink sink;
  sink.Append(3, 1);
  sink.Append(0, 2);
  sink.Append(7, 1);
  ASSERT_EQ(sink.assignments().size(), 3u);
  EXPECT_EQ(sink.assignments()[0], (std::pair<graph::VertexId,
                                              graph::PartitionId>{3, 1}));
  EXPECT_EQ(sink.assignments()[1].first, 0u);
  EXPECT_EQ(sink.assignments()[2].second, 1u);
}

TEST(AssignmentSinkTest, FileSinkWritesTsvLines) {
  const fs::path path = TempDir() / "assignments.tsv";
  {
    io::FileAssignmentSink sink(path.string());
    sink.Append(5, 2);
    sink.Append(6, 0);
    sink.Flush();
    EXPECT_EQ(sink.assignments_written(), 2u);
  }
  EXPECT_EQ(FileBytes(path), "5\t2\n6\t0\n");
}

TEST(AssignmentSinkTest, FileSinkUnwritablePathThrows) {
  EXPECT_THROW(io::FileAssignmentSink("/nonexistent_dir_xyz/a.tsv"),
               std::runtime_error);
}

}  // namespace
}  // namespace loom
