#include "serve/protocol.h"

#include <array>
#include <charconv>

namespace loom {
namespace serve {

namespace {

/// A line's fields: the first kMax of them, and how many there were in
/// all. No command takes more than six, so the arity checks reject every
/// line whose fields were not all kept, and report the true count.
struct Fields {
  static constexpr size_t kMax = 8;
  std::array<std::string_view, kMax> field;
  size_t count = 0;

  std::string_view operator[](size_t i) const { return field[i]; }
  size_t size() const { return count; }
};

/// Splits on single spaces, without allocating (one call per served line).
/// Empty fields (leading / trailing / doubled spaces) yield empty tokens,
/// which the arity checks below reject — the wire format is exact, not
/// whitespace-tolerant.
Fields SplitFields(std::string_view line) {
  Fields out;
  size_t start = 0;
  for (;;) {
    const size_t space = line.find(' ', start);
    const size_t end = space == std::string_view::npos ? line.size() : space;
    if (out.count < Fields::kMax) {
      out.field[out.count] = line.substr(start, end - start);
    }
    ++out.count;
    if (space == std::string_view::npos) return out;
    start = space + 1;
  }
}

template <typename T>
bool ParseNum(std::string_view token, T* out) {
  if (token.empty()) return false;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseVertex(std::string_view token, graph::VertexId* out,
                 std::string* error) {
  uint64_t wide = 0;
  if (!ParseNum(token, &wide) || wide >= graph::kInvalidVertex) {
    *error = "bad vertex id '" + std::string(token) + "'";
    return false;
  }
  *out = static_cast<graph::VertexId>(wide);
  return true;
}

bool ParseLabel(std::string_view token, graph::LabelId* out,
                std::string* error) {
  uint64_t wide = 0;
  if (!ParseNum(token, &wide) || wide >= graph::kInvalidLabel) {
    *error = "bad label id '" + std::string(token) + "'";
    return false;
  }
  *out = static_cast<graph::LabelId>(wide);
  return true;
}

bool CheckArity(const Fields& fields, size_t want, std::string* error) {
  if (fields.size() == want) return true;
  *error = std::string(fields[0]) + " takes " + std::to_string(want - 1) +
           " argument(s), got " + std::to_string(fields.size() - 1);
  return false;
}

}  // namespace

bool ParseCommand(std::string_view line, Command* out, std::string* error) {
  if (line.empty()) {
    *error = "empty command";
    return false;
  }
  if (line.size() > kMaxLineBytes) {
    *error = "line exceeds " + std::to_string(kMaxLineBytes) + " bytes";
    return false;
  }
  const Fields fields = SplitFields(line);
  const std::string_view verb = fields[0];
  if (verb == "INGEST") {
    // 4 payload fields, plus an optional trailing sequence number.
    if (fields.size() != 5 && fields.size() != 6) {
      *error = "INGEST takes 4 or 5 argument(s) (u v label_u label_v [seq]), "
               "got " +
               std::to_string(fields.size() - 1);
      return false;
    }
    out->type = CommandType::kIngest;
    stream::StreamEdge& e = out->edge;
    if (!ParseVertex(fields[1], &e.u, error)) return false;
    if (!ParseVertex(fields[2], &e.v, error)) return false;
    if (!ParseLabel(fields[3], &e.label_u, error)) return false;
    if (!ParseLabel(fields[4], &e.label_v, error)) return false;
    if (e.u == e.v) {
      *error = "self-loop " + std::string(fields[1]) + " -> " +
               std::string(fields[2]);
      return false;
    }
    out->has_seq = fields.size() == 6;
    out->seq = 0;
    if (out->has_seq && !ParseNum(fields[5], &out->seq)) {
      *error = "bad sequence number '" + std::string(fields[5]) + "'";
      return false;
    }
    return true;
  }
  if (verb == "GET") {
    if (!CheckArity(fields, 2, error)) return false;
    out->type = CommandType::kGet;
    return ParseVertex(fields[1], &out->vertex, error);
  }
  struct Bare {
    std::string_view verb;
    CommandType type;
  };
  static constexpr Bare kBare[] = {
      {"STATS", CommandType::kStats},
      {"CHECKPOINT", CommandType::kCheckpoint},
      {"FINALIZE", CommandType::kFinalize},
      {"SNAPSHOT-QUALITY", CommandType::kSnapshotQuality},
      {"SHUTDOWN", CommandType::kShutdown},
  };
  for (const Bare& b : kBare) {
    if (verb == b.verb) {
      if (!CheckArity(fields, 1, error)) return false;
      out->type = b.type;
      return true;
    }
  }
  *error = "unknown command '" + std::string(verb) + "'";
  return false;
}

std::string FormatCommand(const Command& c) {
  switch (c.type) {
    case CommandType::kIngest:
      return "INGEST " + std::to_string(c.edge.u) + " " +
             std::to_string(c.edge.v) + " " + std::to_string(c.edge.label_u) +
             " " + std::to_string(c.edge.label_v) +
             (c.has_seq ? " " + std::to_string(c.seq) : "");
    case CommandType::kGet:
      return "GET " + std::to_string(c.vertex);
    case CommandType::kStats:
      return "STATS";
    case CommandType::kCheckpoint:
      return "CHECKPOINT";
    case CommandType::kFinalize:
      return "FINALIZE";
    case CommandType::kSnapshotQuality:
      return "SNAPSHOT-QUALITY";
    case CommandType::kShutdown:
      return "SHUTDOWN";
  }
  return "";
}

std::string ErrReply(std::string_view detail) {
  return "ERR " + std::string(detail);
}

bool IsOk(std::string_view reply) {
  return reply.rfind("OK", 0) == 0 &&
         (reply.size() == 2 || reply[2] == ' ');
}

void LineFramer::Feed(std::string_view bytes) {
  // Drop the consumed prefix once per feed, not once per line: a 64 KB
  // chunk of short lines then costs one pass, not one tail move per line.
  buf_.erase(0, head_);
  head_ = 0;
  buf_.append(bytes);
}

LineFramer::Result LineFramer::Next(std::string* line) {
  if (discarding_) {
    const size_t nl = buf_.find('\n', head_);
    if (nl == std::string::npos) {
      buf_.clear();  // still inside the oversize line; drop and keep waiting
      head_ = 0;
      return Result::kNeedMore;
    }
    head_ = nl + 1;
    discarding_ = false;
    return Result::kOversize;
  }
  const size_t nl = buf_.find('\n', head_);
  if (nl == std::string::npos) {
    if (buf_.size() - head_ > max_) {
      // The line is already over budget with no end in sight: switch to
      // discard mode so buffered bytes stay bounded.
      buf_.clear();
      head_ = 0;
      discarding_ = true;
    }
    return Result::kNeedMore;
  }
  if (nl - head_ > max_) {
    head_ = nl + 1;
    return Result::kOversize;
  }
  line->assign(buf_, head_, nl - head_);
  head_ = nl + 1;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return Result::kLine;
}

}  // namespace serve
}  // namespace loom
