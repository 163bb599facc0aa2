// The loom_serve wire protocol is pure parse/format/frame code — these
// tests pin the grammar without a socket in sight: every command
// round-trips through FormatCommand/ParseCommand, every malformed shape
// produces an error (never a crash, never a half-parsed command), and the
// LineFramer reassembles lines out of adversarial chunkings.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/types.h"
#include "serve/protocol.h"

namespace loom {
namespace serve {
namespace {

Command ParseOk(const std::string& line) {
  Command c;
  std::string error;
  EXPECT_TRUE(ParseCommand(line, &c, &error)) << line << ": " << error;
  return c;
}

std::string ParseErr(const std::string& line) {
  Command c;
  std::string error;
  EXPECT_FALSE(ParseCommand(line, &c, &error)) << line << " parsed";
  EXPECT_FALSE(error.empty()) << line << " failed without a message";
  return error;
}

TEST(ServeProtocolTest, IngestRoundTrips) {
  const Command c = ParseOk("INGEST 17 4242 3 0");
  EXPECT_EQ(c.type, CommandType::kIngest);
  EXPECT_EQ(c.edge.u, 17u);
  EXPECT_EQ(c.edge.v, 4242u);
  EXPECT_EQ(c.edge.label_u, 3u);
  EXPECT_EQ(c.edge.label_v, 0u);
  EXPECT_EQ(FormatCommand(c), "INGEST 17 4242 3 0");
  const Command again = ParseOk(FormatCommand(c));
  EXPECT_EQ(again.edge.u, c.edge.u);
  EXPECT_EQ(again.edge.v, c.edge.v);
  EXPECT_EQ(again.edge.label_u, c.edge.label_u);
  EXPECT_EQ(again.edge.label_v, c.edge.label_v);
  // No 5th field -> no sequence number.
  EXPECT_FALSE(c.has_seq);
}

TEST(ServeProtocolTest, IngestWithSequenceNumberRoundTrips) {
  const Command c = ParseOk("INGEST 17 4242 3 0 90071");
  EXPECT_EQ(c.type, CommandType::kIngest);
  EXPECT_TRUE(c.has_seq);
  EXPECT_EQ(c.seq, 90071u);
  EXPECT_EQ(FormatCommand(c), "INGEST 17 4242 3 0 90071");
  const Command again = ParseOk(FormatCommand(c));
  EXPECT_TRUE(again.has_seq);
  EXPECT_EQ(again.seq, c.seq);
  // seq 0 is a valid sequence number, distinct from "absent".
  EXPECT_TRUE(ParseOk("INGEST 1 2 0 0 0").has_seq);

  ParseErr("INGEST 1 2 0 0 -1");      // negative seq
  ParseErr("INGEST 1 2 0 0 x");       // non-numeric seq
  ParseErr("INGEST 1 2 0 0 1 2");     // two fields past the labels
}

TEST(ServeProtocolTest, GetRoundTrips) {
  const Command c = ParseOk("GET 98765");
  EXPECT_EQ(c.type, CommandType::kGet);
  EXPECT_EQ(c.vertex, 98765u);
  EXPECT_EQ(FormatCommand(c), "GET 98765");
  EXPECT_EQ(ParseOk(FormatCommand(c)).vertex, 98765u);
}

TEST(ServeProtocolTest, BareVerbsRoundTrip) {
  const struct {
    const char* line;
    CommandType type;
  } kVerbs[] = {
      {"STATS", CommandType::kStats},
      {"CHECKPOINT", CommandType::kCheckpoint},
      {"FINALIZE", CommandType::kFinalize},
      {"SNAPSHOT-QUALITY", CommandType::kSnapshotQuality},
      {"SHUTDOWN", CommandType::kShutdown},
  };
  for (const auto& v : kVerbs) {
    const Command c = ParseOk(v.line);
    EXPECT_EQ(c.type, v.type) << v.line;
    EXPECT_EQ(FormatCommand(c), v.line);
  }
}

TEST(ServeProtocolTest, VertexAndLabelBoundsAreEnforced) {
  // kInvalidVertex / kInvalidLabel are sentinels — the wire must not be
  // able to smuggle them into the engine.
  const std::string bad_v = std::to_string(graph::kInvalidVertex);
  const std::string bad_l = std::to_string(graph::kInvalidLabel);
  ParseErr("INGEST " + bad_v + " 1 0 0");
  ParseErr("INGEST 1 " + bad_v + " 0 0");
  ParseErr("INGEST 1 2 " + bad_l + " 0");
  ParseErr("INGEST 1 2 0 " + bad_l);
  ParseErr("GET " + bad_v);
  // One past uint32 also fails (overflow is detected, not wrapped).
  ParseErr("INGEST 4294967296 1 0 0");
  ParseErr("GET 99999999999999999999");
}

TEST(ServeProtocolTest, MalformedIngestVariants) {
  ParseErr("INGEST");                 // no payload
  ParseErr("INGEST 1 2 0");           // short one field
  ParseErr("INGEST 1 2 0 0 9 9");     // one field past the optional seq
  ParseErr("INGEST 1 2 0 zero");      // non-numeric label
  ParseErr("INGEST -1 2 0 0");        // negative id
  ParseErr("INGEST 1.5 2 0 0");       // trailing garbage on a number
  ParseErr("INGEST 7 7 0 0");         // self-loop
  ParseErr("INGEST  1 2 0 0");        // double space = empty token
  ParseErr("INGEST 1 2 0 0 ");        // trailing space = empty token
  ParseErr("ingest 1 2 0 0");         // verbs are case-sensitive
  ParseErr("");                       // empty line
  ParseErr("BOGUS 1 2");              // unknown verb
  ParseErr("STATS now");              // bare verbs take no arguments
  ParseErr("GET");                    // missing vertex
  ParseErr("GET 1 2");                // too many
}

TEST(ServeProtocolTest, ArityErrorsCountEveryField) {
  // The parser keeps only the first few fields but counts them all, so a
  // long line is rejected with its true argument count.
  std::string ingest = "INGEST";
  for (int i = 1; i <= 19; ++i) ingest.append(" ").append(std::to_string(i));
  EXPECT_EQ(ParseErr(ingest),
            "INGEST takes 4 or 5 argument(s) (u v label_u label_v [seq]), "
            "got 19");
  std::string get = "GET";
  for (int i = 0; i < 20; ++i) get += " 1";
  EXPECT_EQ(ParseErr(get), "GET takes 1 argument(s), got 20");
  EXPECT_EQ(ParseErr("STATS 1 2 3 4 5 6 7 8 9"),
            "STATS takes 0 argument(s), got 9");
}

TEST(ServeProtocolTest, ErrAndOkReplies) {
  EXPECT_EQ(ErrReply("boom"), "ERR boom");
  EXPECT_TRUE(IsOk("OK queued"));
  EXPECT_TRUE(IsOk("OK"));
  EXPECT_FALSE(IsOk("ERR boom"));
  EXPECT_FALSE(IsOk("OKAY"));  // prefix must end at a token boundary
  EXPECT_FALSE(IsOk(""));
}

TEST(ServeLineFramerTest, SplitsChunksAtNewlines) {
  LineFramer framer;
  std::string line;
  framer.Feed("GET 1\nGET 2\nGET");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "GET 1");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "GET 2");
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  framer.Feed(" 3\n");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "GET 3");
}

TEST(ServeLineFramerTest, ReassemblesBytewiseWrites) {
  // The worst interleaving a client can produce: one byte per read.
  LineFramer framer;
  const std::string wire = "INGEST 1 2 0 1\nSTATS\n";
  std::vector<std::string> lines;
  std::string line;
  for (char ch : wire) {
    framer.Feed(std::string_view(&ch, 1));
    while (framer.Next(&line) == LineFramer::Result::kLine) {
      lines.push_back(line);
    }
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "INGEST 1 2 0 1");
  EXPECT_EQ(lines[1], "STATS");
}

TEST(ServeLineFramerTest, StripsCarriageReturn) {
  LineFramer framer;
  std::string line;
  framer.Feed("STATS\r\n");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "STATS");
}

TEST(ServeLineFramerTest, OversizeLineIsDiscardedNotFatal) {
  LineFramer framer(16);
  std::string line;
  // Feed an over-long line in pieces: the framer must not buffer it all.
  framer.Feed(std::string(40, 'x'));
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  framer.Feed(std::string(40, 'y'));
  framer.Feed("\nGET 5\n");
  // Exactly one kOversize for the discarded line...
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kOversize);
  // ...and the connection keeps decoding the next command.
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "GET 5");
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
}

TEST(ServeLineFramerTest, OversizeDetectedWithinSingleFeed) {
  LineFramer framer(8);
  std::string line;
  framer.Feed("0123456789abcdef\nSTATS\n");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kOversize);
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "STATS");
}

// Lines already handed out in a feed do not count against the next line's
// budget, and an over-budget tail after them still switches to discard.
TEST(ServeLineFramerTest, BudgetCountsOnlyUnconsumedBytes) {
  LineFramer framer(8);
  std::string line;
  framer.Feed("GET 1\nGET 2\n1234");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "GET 2");
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  framer.Feed("5678\nGET 3\n012345678");  // a full-budget line, then over
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "12345678");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "GET 3");
  EXPECT_EQ(framer.Next(&line), LineFramer::Result::kNeedMore);
  framer.Feed("9\nSTATS\n");
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kOversize);
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "STATS");
}

TEST(ServeLineFramerTest, MaxSizeLineStillPasses) {
  LineFramer framer(8);
  std::string line;
  framer.Feed("12345678\n");  // exactly the cap
  ASSERT_EQ(framer.Next(&line), LineFramer::Result::kLine);
  EXPECT_EQ(line, "12345678");
}

}  // namespace
}  // namespace serve
}  // namespace loom
