// e2e_loadgen — the serve-dblp client: drives a running loom_serve over its
// unix socket and reports what a client of the service sees.
//
//   e2e_loadgen --socket PATH --stream S.les --rate EPS --phase-a SECONDS
//               --phase-b 0|1 --checkpoint 0|1 --server-pid PID --seed N
//               --json OUT --acks ACKS.bin
//
// Phase A covers the stream's first EPS x SECONDS edges, phase B the rest.
// Three client threads (the server's decision thread keeps the fourth
// core):
//   * writer — phase A is OPEN loop: INGEST line i is due at t0 + i/EPS
//     and is sent when due, whatever the replies are doing; every line due
//     by now goes out in one write. How late the writer ran is reported
//     (gen_lag). Phase B (--phase-b 1) then sends the rest of the stream
//     back to back; its throughput runs from the first phase-B send until
//     STATS (polled every millisecond) reports every edge decided.
//   * reader — reads the INGEST connection's replies, which arrive strictly
//     in send order, so reply j answers line j. Ack latency is measured
//     from line j's DUE time, so a stall shows up in every later request.
//     Every phase-A line's ack latency (us) is written to ACKS.bin as
//     native doubles, for comparing identical passes line by line.
//   * query — during phase A, CLOSED-loop GET of a random endpoint of an
//     edge already sent, one request at a time with kGetThinkUs between
//     them, plus STATS every 10 ms for the queue depth.
//
// After the stream: FINALIZE and SNAPSHOT-QUALITY (full streams only), a
// timed CHECKPOINT (--checkpoint 1), the server's VmHWM, then SHUTDOWN.
// Every INGEST carries its seq, so a lost or reordered line is an ERR, not
// silent corruption. ERR and missing replies are counted as failures.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "io/edge_stream_io.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace {

using namespace loom;
using namespace loom::e2e;

/// Pause between one GET reply and the next request. Without it the GET
/// client and its server thread spin two cores flat out, and the ack tail
/// measures the scheduler's wake-up delay instead of the service.
constexpr double kGetThinkUs = 50.0;

struct Args {
  std::string socket;
  std::string stream;
  std::string json;
  std::string acks;
  double rate = 50000;
  double phase_a = 4.0;
  bool phase_b = true;
  bool checkpoint = true;
  int server_pid = 0;
  uint64_t seed = 1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--socket") a->socket = value;
    else if (flag == "--stream") a->stream = value;
    else if (flag == "--json") a->json = value;
    else if (flag == "--acks") a->acks = value;
    else if (flag == "--rate") a->rate = std::stod(value);
    else if (flag == "--phase-a") a->phase_a = std::stod(value);
    else if (flag == "--phase-b") a->phase_b = value != "0";
    else if (flag == "--checkpoint") a->checkpoint = value != "0";
    else if (flag == "--server-pid") a->server_pid = std::stoi(value);
    else if (flag == "--seed") a->seed = std::stoull(value);
    else return false;
  }
  return argc % 2 == 1 && !a->socket.empty() && !a->stream.empty() &&
         !a->json.empty() && !a->acks.empty() && a->rate > 0;
}

int ConnectRaw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Value of `key=` in a STATS/SNAPSHOT-QUALITY reply ("" when absent).
std::string Field(const std::string& reply, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = reply.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  const size_t end = reply.find(' ', begin);
  return reply.substr(begin, end == std::string::npos ? end : end - begin);
}

/// Numeric `key=` field; -1 when absent or malformed.
double NumField(const std::string& reply, const std::string& key) {
  const std::string s = Field(reply, key);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  return s.empty() || *end != '\0' ? -1.0 : v;
}

struct Wire {
  std::vector<stream::StreamEdge> edges;
  std::string bytes;               // every INGEST line, newline-terminated
  std::vector<size_t> line_begin;  // offset of line i; one extra at the end
};

Wire FormatStream(const std::string& path) {
  Wire w;
  io::FileEdgeSource source(path);
  std::vector<stream::StreamEdge> batch(4096);
  for (size_t n; (n = source.NextBatch(batch)) > 0;) {
    w.edges.insert(w.edges.end(), batch.begin(), batch.begin() + n);
  }
  w.line_begin.reserve(w.edges.size() + 1);
  serve::Command c;
  c.type = serve::CommandType::kIngest;
  c.has_seq = true;
  for (size_t i = 0; i < w.edges.size(); ++i) {
    c.edge = w.edges[i];
    c.seq = i;
    w.line_begin.push_back(w.bytes.size());
    w.bytes += serve::FormatCommand(c);
    w.bytes += '\n';
  }
  w.line_begin.push_back(w.bytes.size());
  return w;
}

/// ns per serve::ParseCommand call over the stream's own INGEST lines
/// (median of three passes over up to 200k lines); also checks that every
/// line parses back to the edge it was formatted from.
double MeasureParseNs(const Wire& w, std::vector<Check>* checks) {
  const size_t n = std::min<size_t>(w.edges.size(), 200000);
  std::vector<double> passes;
  size_t mismatches = 0;
  for (int pass = 0; pass < 3; ++pass) {
    serve::Command c;
    std::string error;
    const double t0 = NowS();
    for (size_t i = 0; i < n; ++i) {
      const std::string_view line(w.bytes.data() + w.line_begin[i],
                                  w.line_begin[i + 1] - w.line_begin[i] - 1);
      if (!serve::ParseCommand(line, &c, &error) || c.seq != i ||
          c.edge.u != w.edges[i].u || c.edge.v != w.edges[i].v) {
        ++mismatches;
      }
    }
    passes.push_back(1e9 * (NowS() - t0) /
                     static_cast<double>(std::max<size_t>(n, 1)));
  }
  checks->push_back({"parse_roundtrip", mismatches == 0,
                     std::to_string(mismatches) + " lines differ"});
  return Median(passes);
}

void SleepUs(double us) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

int Run(const Args& args) {
  prctl(PR_SET_TIMERSLACK, 1UL);  // sleeps wake within microseconds
  std::vector<Check> checks;
  const Wire wire = FormatStream(args.stream);
  const uint64_t total_edges = wire.edges.size();
  const double parse_ns = MeasureParseNs(wire, &checks);

  const uint64_t n_a = std::min<uint64_t>(
      total_edges, static_cast<uint64_t>(args.rate * args.phase_a));
  const uint64_t n_total = args.phase_b ? total_edges : n_a;

  int ingest_fd = -1;
  serve::Client query;
  std::string error;
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (ingest_fd < 0) ingest_fd = ConnectRaw(args.socket);
    if (ingest_fd >= 0 &&
        (query.connected() || query.Connect(args.socket, &error))) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (ingest_fd < 0 || !query.connected()) {
    std::cerr << "e2e_loadgen: cannot connect to " << args.socket << "\n";
    if (ingest_fd >= 0) ::close(ingest_fd);
    return 1;
  }

  std::atomic<uint64_t> sent{0};
  std::atomic<bool> phase_a_sent{false}, abort{false};
  std::atomic<double> phase_b_start{0.0};
  const double t0 = NowS() + 0.01;
  auto due = [&](uint64_t i) { return t0 + static_cast<double>(i) / args.rate; };

  // ---------------------------------------------------------------- reader
  std::vector<double> ack_us(n_a, 0.0);
  uint64_t replies = 0, err_replies = 0;
  std::string first_err;
  std::thread reader([&] {
    serve::LineFramer framer;
    std::string line;
    char buf[1 << 16];
    double last_progress = NowS();
    while (replies < n_total && !abort.load()) {
      pollfd p{ingest_fd, POLLIN, 0};
      const int r = ::poll(&p, 1, 200);
      if (r == 0) {
        if (NowS() - last_progress > 20.0) break;
        continue;
      }
      const ssize_t got = r < 0 ? -1 : ::recv(ingest_fd, buf, sizeof(buf), 0);
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        break;
      }
      const double now = NowS();
      last_progress = now;
      framer.Feed(std::string_view(buf, static_cast<size_t>(got)));
      while (framer.Next(&line) == serve::LineFramer::Result::kLine) {
        if (!serve::IsOk(line) && err_replies++ == 0) first_err = line;
        if (replies < n_a) ack_us[replies] = 1e6 * (now - due(replies));
        ++replies;
      }
    }
    if (replies < n_total) abort.store(true);
  });

  // ---------------------------------------------------------------- writer
  std::vector<double> lag_us(n_a, 0.0);
  bool send_failed = false;
  std::thread writer([&] {
    auto send_lines = [&](uint64_t from, uint64_t to) {
      const char* base = wire.bytes.data() + wire.line_begin[from];
      if (!SendAll(ingest_fd, base, wire.line_begin[to] - wire.line_begin[from])) {
        send_failed = true;
        abort.store(true);
        return false;
      }
      sent.store(to, std::memory_order_release);
      return true;
    };
    for (uint64_t i = 0; i < n_a && !abort.load();) {
      const double now = NowS();
      const uint64_t due_count =
          now < t0 ? 0
                   : std::min<uint64_t>(
                         n_a, static_cast<uint64_t>((now - t0) * args.rate) + 1);
      if (due_count > i) {
        for (uint64_t k = i; k < due_count; ++k) lag_us[k] = 1e6 * (now - due(k));
        if (!send_lines(i, due_count)) break;
        i = due_count;
        continue;
      }
      const double wait_us = 1e6 * (due(i) - now);
      if (wait_us > 12.0) SleepUs(wait_us - 7.0);
    }
    phase_a_sent.store(true);
    if (!args.phase_b || abort.load()) return;
    phase_b_start.store(NowS());
    constexpr uint64_t kChunkLines = 4096;
    for (uint64_t i = n_a; i < total_edges && !abort.load(); i += kChunkLines) {
      if (!send_lines(i, std::min(total_edges, i + kChunkLines))) break;
    }
  });

  // ----------------------------------------------------------------- query
  std::vector<double> get_us, queue_depth;
  uint64_t gets = 0, get_hits = 0, stats_calls = 0, query_errors = 0;
  double done_at = 0.0;
  std::string reply;
  auto roundtrip = [&](const std::string& line) -> bool {
    if (!query.Roundtrip(line, &reply, &error)) {
      ++query_errors;
      abort.store(true);
      return false;
    }
    if (!serve::IsOk(reply)) {
      ++query_errors;
      if (first_err.empty()) first_err = reply;
    }
    return true;
  };
  util::Rng rng(args.seed ^ 0x6E7);
  double next_stats = t0;
  while (!phase_a_sent.load() && !abort.load()) {
    if (NowS() >= next_stats) {
      next_stats = NowS() + 0.010;
      ++stats_calls;
      if (!roundtrip("STATS")) break;
      const double q = NumField(reply, "queue");
      if (q >= 0) queue_depth.push_back(q);
      continue;
    }
    const uint64_t have = sent.load(std::memory_order_acquire);
    if (have == 0) {
      SleepUs(100);
      continue;
    }
    const stream::StreamEdge& e = wire.edges[rng.Uniform(have)];
    const graph::VertexId v = rng.Uniform(2) == 0 ? e.u : e.v;
    const double g0 = NowS();
    ++gets;
    if (!roundtrip("GET " + std::to_string(v))) break;
    get_us.push_back(1e6 * (NowS() - g0));
    if (reply.empty() || reply.back() != '-') ++get_hits;
    SleepUs(kGetThinkUs);
  }
  // Poll STATS every millisecond until every edge is sent and decided.
  const double deadline = NowS() + 120.0;
  while (!abort.load() && NowS() < deadline) {
    ++stats_calls;
    if (!roundtrip("STATS")) break;
    if (NumField(reply, "edges") >= static_cast<double>(n_total) &&
        sent.load() >= n_total) {
      done_at = NowS();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (done_at == 0.0) abort.store(true);
  writer.join();
  reader.join();
  ::close(ingest_fd);

  // ------------------------------------------------------------ after stream
  uint64_t controls = 0;
  std::string quality;
  double checkpoint_ms = -1.0, hwm_mb = -1.0;
  const bool streamed = done_at > 0.0 && !send_failed && replies == n_total;
  if (streamed) {
    if (args.phase_b) {
      ++controls;
      roundtrip("FINALIZE");
      ++controls;
      if (roundtrip("SNAPSHOT-QUALITY")) quality = reply;
    }
    if (args.checkpoint) {
      ++controls;
      const double c0 = NowS();
      if (roundtrip("CHECKPOINT")) checkpoint_ms = 1e3 * (NowS() - c0);
    }
  }
  if (args.server_pid > 0) hwm_mb = ProcStatusMb("VmHWM", args.server_pid);
  ++controls;
  roundtrip("SHUTDOWN");
  query.Close();

  const uint64_t missing = n_total - std::min(replies, n_total);
  checks.push_back({"stream_complete", streamed,
                    std::to_string(replies) + " of " +
                        std::to_string(n_total) + " INGEST replies"});
  checks.push_back({"no_err_replies", err_replies == 0 && query_errors == 0,
                    first_err});
  const uint64_t n_b = n_total - n_a;
  const double phase_b_s = done_at - phase_b_start.load();
  {
    std::ofstream acks(args.acks, std::ios::binary);
    acks.write(reinterpret_cast<const char*>(ack_us.data()),
               static_cast<std::streamsize>(ack_us.size() * sizeof(double)));
  }

  std::ofstream out(args.json);
  Json j(out);
  j.Begin();
  j.Key("edges").Int(total_edges);
  j.Key("phase_a_edges").Int(n_a);
  j.Key("phase_b_edges").Int(n_b);
  j.Key("rate").Num(args.rate);
  j.Key("ingest_ack_p50_us").Num(Percentile(&ack_us, 0.50));
  j.Key("ingest_ack_p90_us").Num(Percentile(&ack_us, 0.90));
  j.Key("ingest_ack_p99_us").Num(Percentile(&ack_us, 0.99));
  j.Key("gen_lag_p99_us").Num(Percentile(&lag_us, 0.99));
  j.Key("gets").Int(gets);
  j.Key("get_hit_ratio").Num(gets == 0 ? 0.0 : static_cast<double>(get_hits) / gets);
  j.Key("get_p50_us").Num(Percentile(&get_us, 0.50));
  j.Key("get_p99_us").Num(Percentile(&get_us, 0.99));
  j.Key("queue_depth_p99").Num(Percentile(&queue_depth, 0.99));
  j.Key("queue_samples").Int(queue_depth.size());
  const bool timed_b = args.phase_b && streamed && phase_b_s > 0;
  j.Key("serve_eps").Num(timed_b ? static_cast<double>(n_b) / phase_b_s : 0.0);
  j.Key("phase_b_s").Num(timed_b ? phase_b_s : 0.0);
  j.Key("parse_ns").Num(parse_ns);
  j.Key("checkpoint_ms").Num(checkpoint_ms);
  j.Key("server_hwm_mb").Num(hwm_mb);
  j.Key("quality_hash").Str(Field(quality, "hash"));
  j.Key("quality_cut").Str(Field(quality, "cut"));
  j.Key("quality_imbalance").Str(Field(quality, "imbalance"));
  j.Key("attempted").Int(n_total + gets + stats_calls + controls);
  j.Key("failed").Int(err_replies + missing + query_errors);
  WriteChecks(&j, checks);
  WriteHost(&j);
  j.End();
  out << "\n";
  for (const Check& c : checks) {
    if (!c.ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) {
      std::cerr << "usage: e2e_loadgen --socket PATH --stream S.les --rate EPS "
                   "--phase-a S --phase-b 0|1 --checkpoint 0|1 "
                   "--server-pid PID --seed N --json OUT --acks ACKS.bin\n";
      return 2;
    }
    return Run(args);
  } catch (const std::exception& e) {
    std::cerr << "e2e_loadgen: " << e.what() << "\n";
    return 1;
  }
}
