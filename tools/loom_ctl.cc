// loom_ctl — command-line client for a running loom_serve.
//
// Usage:
//   loom_ctl --socket PATH stats
//   loom_ctl --socket PATH get VERTEX
//   loom_ctl --socket PATH ingest U V LABEL_U LABEL_V
//   loom_ctl --socket PATH checkpoint | finalize | quality | shutdown
//   loom_ctl --socket PATH ingest-file S.les [--from N] [--depth N]
//
// Single commands print the server's reply line on stdout and exit 0 on
// "OK ...", 1 on "ERR ...".
//
// ingest-file replays an edge-stream file (binary or text) as INGEST
// commands, keeping up to --depth (default 512) commands in flight — the
// server replies strictly in order, so replies are matched positionally;
// pipelining hides the per-line socket round trip. --from N skips the
// first N edges: after a server crash, pass the STATS edges= cursor to
// re-send exactly the undecided suffix. Label ids are the stream file's
// own — start loom_serve with --like pointing at the same file (or one
// with an identical label table) so both sides agree.

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/edge_stream_io.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace {

// --help prints to stdout (an explicit request, exit 0); usage printed on a
// bad command line goes to stderr.
void Usage(std::ostream& out) {
  out << "usage: loom_ctl --socket PATH COMMAND\n"
         "commands:\n"
         "  stats | checkpoint | finalize | quality | shutdown\n"
         "  get VERTEX\n"
         "  ingest U V LABEL_U LABEL_V\n"
         "  ingest-file S.les [--from N] [--depth N]\n";
}

// One command line in, the reply line printed; exit status from OK/ERR.
int Roundtrip(loom::serve::Client* client, const std::string& line) {
  std::string reply, error;
  if (!client->Roundtrip(line, &reply, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::cout << reply << "\n";
  return loom::serve::IsOk(reply) ? 0 : 1;
}

int IngestFile(loom::serve::Client* client, const std::string& path,
               uint64_t from, size_t depth) {
  using loom::serve::Command;
  using loom::serve::CommandType;
  loom::io::FileEdgeSource source(path);
  if (from > 0) source.SkipTo(from);
  std::vector<loom::stream::StreamEdge> batch(1024);
  std::string error, reply;
  uint64_t sent = 0, acked = 0, rejected = 0;
  size_t in_flight = 0;
  auto drain_one = [&]() -> bool {
    if (!client->ReadReply(&reply, &error)) {
      std::cerr << "error: " << error << " (after " << acked << " replies)\n";
      return false;
    }
    ++acked;
    if (!loom::serve::IsOk(reply)) {
      ++rejected;
      if (rejected <= 10) std::cerr << "rejected: " << reply << "\n";
    }
    --in_flight;
    return true;
  };
  for (;;) {
    const size_t n = source.NextBatch(batch);
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) {
      Command c;
      c.type = CommandType::kIngest;
      c.edge = batch[i];
      while (in_flight >= depth) {
        if (!drain_one()) return 1;
      }
      if (!client->SendLine(loom::serve::FormatCommand(c), &error)) {
        std::cerr << "error: " << error << " (after " << sent << " sends)\n";
        return 1;
      }
      ++sent;
      ++in_flight;
    }
  }
  while (in_flight > 0) {
    if (!drain_one()) return 1;
  }
  std::cout << "sent " << sent << " edges from " << path;
  if (from > 0) std::cout << " (skipped first " << from << ")";
  std::cout << ", " << rejected << " rejected\n";
  return rejected == 0 ? 0 : 1;
}

// A command line checked in full before connecting, so a bad one exits 2
// whether or not a server is up: either one protocol line to round-trip,
// or a stream file to replay.
struct Request {
  std::string line;  // empty for ingest-file
  std::string file;
  uint64_t from = 0;
  size_t depth = 512;
};

// Fills `*req` from the words after the flags; false + `*error` (empty when
// the usage alone says it) on an unknown command, a wrong word count or a
// malformed --from/--depth number.
bool ParseRequest(const std::vector<std::string>& words, Request* req,
                  std::string* error) {
  const std::string& cmd = words[0];
  const size_t n = words.size();
  static constexpr std::pair<std::string_view, std::string_view> kBare[] = {
      {"stats", "STATS"},
      {"checkpoint", "CHECKPOINT"},
      {"finalize", "FINALIZE"},
      {"quality", "SNAPSHOT-QUALITY"},
      {"shutdown", "SHUTDOWN"}};
  for (const auto& [name, line] : kBare) {
    if (cmd == name) {
      req->line = line;
      return n == 1;
    }
  }
  if (cmd == "get") {
    if (n != 2) return false;
    req->line = "GET " + words[1];
    return true;
  }
  if (cmd == "ingest") {
    if (n != 5) return false;
    req->line = "INGEST " + words[1] + " " + words[2] + " " + words[3] + " " +
                words[4];
    return true;
  }
  if (cmd != "ingest-file" || n < 2) return false;
  req->file = words[1];
  for (size_t i = 2; i < n; i += 2) {
    if (i + 1 >= n || (words[i] != "--from" && words[i] != "--depth")) {
      return false;
    }
    const std::string& v = words[i + 1];
    uint64_t value = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), value);
    if (ec != std::errc() || end != v.data() + v.size()) {
      *error = words[i] + ": not an integer: '" + v + "'";
      return false;
    }
    if (words[i] == "--from") {
      req->from = value;
    } else {
      req->depth = std::max<uint64_t>(value, 1);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--socket requires a value\n";
        return 2;
      }
      socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage(std::cout);
      return 0;
    } else {
      rest.emplace_back(argv[i]);
    }
  }
  Request req;
  std::string bad;
  if (socket_path.empty() || rest.empty() || !ParseRequest(rest, &req, &bad)) {
    if (!bad.empty()) std::cerr << bad << "\n";
    Usage(std::cerr);
    return 2;
  }

  loom::serve::Client client;
  std::string error;
  if (!client.Connect(socket_path, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  try {
    return req.line.empty()
               ? IngestFile(&client, req.file, req.from, req.depth)
               : Roundtrip(&client, req.line);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

