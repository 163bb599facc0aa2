// loom_serve wire protocol: newline-delimited text, one command per line,
// exactly one reply line per command.
//
//   INGEST <u> <v> <label_u> <label_v> [<seq>]
//                                        -> OK queued | OK dup ... | ERR ...
//   GET <v>                              -> OK <v> <partition|->
//   STATS                                -> OK edges=... assigned=... ...
//   CHECKPOINT                           -> OK checkpoint <path> edges=<n>
//   FINALIZE                             -> OK finalized edges=<n>
//   SNAPSHOT-QUALITY                     -> OK hash=<hex> cut=<n> imbalance=<f>
//   SHUTDOWN                             -> OK shutting down
//
// The optional INGEST <seq> makes re-sends idempotent: it names the edge's
// 0-based position in the server's accept order. A client that times out
// waiting for a reply can re-send the same line — if the server already
// accepted that position ("OK dup seq=<s> cursor=<c>") the duplicate is
// DROPPED rather than ingested twice, so the served partitioning stays
// bit-identical to an offline replay of the deduplicated sequence. A seq
// ahead of the cursor is a gap (edges would be applied out of order) and
// is rejected with the expected value. Seq-less INGEST keeps the old
// at-least-once behaviour.
//
// Everything in this header is PURE — parsing, formatting and line framing
// over in-memory bytes, no sockets — so the whole protocol is unit-testable
// without a server. Labels travel as numeric LabelIds in the server's label
// table (loom_serve --like S.les interns a stream file's table at startup);
// sending names would force an interning lock into the hot path.
//
// A malformed line is a protocol-level error: it produces an "ERR ..."
// reply and the connection keeps going. Only transport failures end a
// connection.

#ifndef LOOM_SERVE_PROTOCOL_H_
#define LOOM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/types.h"
#include "stream/stream_edge.h"

namespace loom {
namespace serve {

/// Longest accepted command line (bytes, excluding the newline). The widest
/// legal command is far shorter; the cap exists so a garbage client cannot
/// grow a server-side buffer without bound.
inline constexpr size_t kMaxLineBytes = 4096;

enum class CommandType : uint8_t {
  kIngest,
  kGet,
  kStats,
  kCheckpoint,
  kFinalize,
  kSnapshotQuality,
  kShutdown,
};

struct Command {
  CommandType type = CommandType::kStats;
  /// kIngest payload. `id` is NOT part of the wire format — stream ids are
  /// positions, stamped by the server in queue-accept order.
  stream::StreamEdge edge{};
  /// kGet payload.
  graph::VertexId vertex = 0;
  /// kIngest: client-declared accept-order position (only meaningful when
  /// `has_seq`); the duplicate/gap decision is the server's.
  uint64_t seq = 0;
  bool has_seq = false;
};

/// Parses one complete line (no trailing newline). Returns false with a
/// human-readable `*error` (suitable for ErrReply) on anything malformed:
/// unknown verbs, wrong arity, non-numeric or out-of-range ids (vertex ids
/// must be < kInvalidVertex, label ids < kInvalidLabel), self-loops.
bool ParseCommand(std::string_view line, Command* out, std::string* error);

/// The canonical wire line for `c` (no trailing newline).
/// ParseCommand(FormatCommand(c)) reproduces `c` exactly.
std::string FormatCommand(const Command& c);

/// "ERR <detail>".
std::string ErrReply(std::string_view detail);

/// True when `reply` is an OK line.
bool IsOk(std::string_view reply);

/// Reassembles complete lines out of arbitrary read() chunks — clients
/// interleave partial writes, and TCP-style streams fragment however they
/// like. Lines longer than `max_line_bytes` are discarded through their
/// newline and surfaced as kOversize (one per oversize line), so a garbage
/// flood costs bounded memory and each victim line still gets its ERR reply.
class LineFramer {
 public:
  enum class Result {
    kLine,      // *line holds a complete line (newline stripped)
    kOversize,  // a too-long line was discarded; reply ERR and carry on
    kNeedMore,  // no complete line buffered; Feed more bytes
  };

  explicit LineFramer(size_t max_line_bytes = kMaxLineBytes)
      : max_(max_line_bytes) {}

  void Feed(std::string_view bytes);

  /// Extracts the next complete line. Call until kNeedMore after each Feed.
  /// A trailing '\r' (telnet-style CRLF) is stripped.
  Result Next(std::string* line);

 private:
  std::string buf_;
  /// First unconsumed byte of buf_; Feed drops the consumed prefix.
  size_t head_ = 0;
  size_t max_;
  bool discarding_ = false;
};

}  // namespace serve
}  // namespace loom

#endif  // LOOM_SERVE_PROTOCOL_H_
