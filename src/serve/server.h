// serve::Server — loom as a long-lived partitioning service.
//
// One process owns one engine::Session for the lifetime of a stream that
// never has to end. Edges arrive over a unix-domain socket (many concurrent
// writers) and/or by tail-following a growing LOOMES file; assignment
// lookups, stats, checkpoints and quality snapshots are answered while
// ingest continues.
//
// Threading model (the part that keeps served output bit-identical to
// offline loom_partition):
//
//   conn threads ──┐                       ┌── conn threads (GET/STATS:
//   tail thread  ──┼─> bounded MPSC queue ─┤    wait-free reads, never
//                  │      (backpressure)   │    enter the queue)
//                  └──────> decision thread┘
//
//   * Every INGEST (from any connection, or the tail source) goes through
//     ONE bounded queue; a full queue blocks the producing connection —
//     backpressure reaches the client as a stalled write, never as a drop.
//     A connection handles each received chunk as a whole: every run of
//     consecutive INGEST lines enters the queue under one lock hold, and
//     the chunk's replies leave in one write, one line per command in
//     order. Any other line first flushes the INGESTs before it.
//   * A single decision thread drains the queue, stamps stream ids in
//     queue-accept order and feeds the session. Stream position = decision
//     order, so the same edge sequence produces the same partitioning as
//     loom_partition over the same file — that is the service's core
//     equivalence invariant, proven by tests/serve_server_test.cc.
//   * GET and STATS never lock the session: placements land through the
//     sink path in a wait-free AssignmentTable, counters are published
//     atomics and the session's latency histogram is lock-free. A lookup
//     can never block ingest, and vice versa.
//   * CHECKPOINT / FINALIZE / SNAPSHOT-QUALITY must observe a consistent
//     stream prefix, so they ride the same queue as edges and execute on
//     the decision thread, in order, replying through a promise.
//
// Durability: rotating LOOMCK checkpoints (periodic and on demand) carry
// the session plus the cut tracker's parked state (SessionExtension). An
// INGEST is durable once a checkpoint at-or-after it commits; after a
// crash, clients query STATS for the resume cursor (edges=) and re-send
// from there. Graceful Shutdown() drains the queue first, so it loses
// nothing. Destruction WITHOUT Shutdown() is deliberately crash-like: no
// final checkpoint (tests use it as an in-process kill -9).

#ifndef LOOM_SERVE_SERVER_H_
#define LOOM_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "graph/label_registry.h"
#include "io/edge_stream_io.h"
#include "serve/assignment_table.h"
#include "serve/cut_tracker.h"
#include "serve/protocol.h"

namespace loom {
namespace serve {

struct ServerConfig {
  /// Unix-domain socket path to listen on (created at Start, unlinked on
  /// Shutdown). Empty = no socket (tail-only service).
  std::string socket_path;
  /// The session this server hosts: backend spec, engine options, batching.
  /// options.expected_vertices doubles as the INGEST vertex-id bound and
  /// the SNAPSHOT-QUALITY hash width.
  engine::SessionConfig session;
  /// Rotating LOOMCK path; empty disables checkpointing (CHECKPOINT then
  /// answers ERR).
  std::string checkpoint_path;
  /// Checkpoint every N ingested edges (0 = only explicit CHECKPOINT and
  /// the final one on graceful shutdown).
  uint64_t checkpoint_every = 0;
  /// Resume from this LOOMCK (with .prev fallback) before serving.
  std::string resume_path;
  /// Append every accepted edge, in decision order, to this LOOMES file —
  /// the replayable ingest history. With --resume the log holds only the
  /// post-resume suffix (its positions restart at 0).
  std::string ingest_log_path;
  /// Tail-follow this LOOMES/text stream as a producer (in addition to any
  /// socket writers). On resume the tail skips to the session cursor first.
  std::string tail_path;
  int tail_poll_ms = 20;
  /// Ingest queue capacity (edges); producers block when full.
  size_t queue_capacity = 1 << 16;
  /// Connections served at once. A client past the cap gets one ERR line
  /// and a close, and no thread.
  size_t max_connections = 256;
  /// Label table for validation and the ingest log header. Not owned; must
  /// outlive the server.
  const graph::LabelRegistry* registry = nullptr;
};

class Server {
 public:
  /// Builds the session (resuming per config), binds the table and tracker
  /// sinks and opens the ingest log. Returns nullptr + actionable `*error` on
  /// any failure. No threads yet — callers may AddSink on session() first.
  static std::unique_ptr<Server> Create(const ServerConfig& config,
                                        const engine::BuildContext& context,
                                        std::string* error);

  /// Crash-like teardown when Shutdown() was not called first: no drain, no
  /// final checkpoint; queued-but-undecided edges are lost (exactly what a
  /// SIGKILL loses).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the decision thread, the socket listener (if configured) and
  /// the tail reader (if configured). Throws std::runtime_error if the
  /// socket cannot be bound.
  void Start();

  /// Graceful drain: stop accepting, unblock and join every producer, let
  /// the decision thread finish EVERYTHING already queued, write a final
  /// rotating checkpoint (when configured), close the ingest log, join.
  /// Idempotent. Safe to call from the hosting thread only (never from a
  /// connection handler — that is what SHUTDOWN/shutdown_requested() is
  /// for).
  void Shutdown();

  /// True once a client sent SHUTDOWN; the hosting loop should then call
  /// Shutdown() and exit.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// The hosted session, for pre-Start wiring (extra sinks) and post-
  /// Shutdown inspection. The decision thread owns it between Start and
  /// Shutdown — do not touch it while the server runs.
  engine::Session& session() { return *session_; }
  const AssignmentTable& table() const { return table_; }
  const CutTracker& tracker() const { return tracker_; }
  /// Edges decided so far (the resume cursor clients re-send from).
  uint64_t edges_ingested() const {
    return edges_published_.load(std::memory_order_acquire);
  }

  /// One protocol command line (no newline) -> one reply line: the
  /// one-line case of HandleLines, so the protocol surface is testable
  /// without sockets and runs the code connections run. Thread-safe.
  std::string HandleLine(const std::string& line);

 private:
  /// Answers every complete line `framer` holds, in order, appending each
  /// reply and its newline to `*replies`. Each run of consecutive INGEST
  /// lines is queued by one EnqueueEdges call; any other line (GET, STATS,
  /// a control command, a malformed, oversize or out-of-range line) first
  /// flushes the run before it, so stream order is kept. Thread-safe; a
  /// connection calls it once per received chunk.
  void HandleLines(LineFramer* framer, std::string* replies);

  struct QueueItem {
    enum class Kind : uint8_t { kEdge, kControl } kind = Kind::kEdge;
    stream::StreamEdge edge{};
    CommandType control = CommandType::kStats;
    std::promise<std::string>* reply = nullptr;  // kControl only
  };

  Server(const ServerConfig& config, const engine::BuildContext& context);

  /// Queues a run of validated INGEST commands in order under one lock
  /// hold. Per edge, exactly as a single line: wait while the queue is
  /// full, refuse once stopping, else the dup/gap decision against the
  /// accept cursor when the command carries a seq (the tail source and
  /// seq-less INGEST carry none), else accept. A run that fills the queue
  /// partway wakes the decision thread before it waits; the run costs one
  /// notify otherwise. Appends one reply line per edge to `*replies`
  /// (nullptr: no replies, the tail source). Returns false once the server
  /// is stopping.
  bool EnqueueEdges(std::span<const Command> run, std::string* replies);
  /// The ERR detail for an INGEST whose ids the server cannot take, or "".
  std::string IngestRangeError(const stream::StreamEdge& e) const;
  /// The reply to any parsed command but INGEST.
  std::string Execute(const Command& c);
  std::string RoundtripControl(CommandType type);
  std::string StatsReply();

  void DecisionLoop();
  void ListenLoop();
  void ConnLoop(int fd);
  /// Joins the connection threads whose ConnLoop has returned (listen
  /// thread only), so a long-lived server holds one thread per open
  /// connection, not one per connection ever accepted.
  void ReapFinishedConns();
  void TailLoop();

  void IngestRun(std::vector<stream::StreamEdge>* run);
  std::string ControlOnDecisionThread(CommandType type);
  void PublishProgress();
  bool RotateCheckpoint(std::string* error);

  ServerConfig config_;
  size_t num_labels_ = 0;
  std::unique_ptr<engine::Session> session_;
  AssignmentTable table_;
  CutTracker tracker_{&table_, config_.session.options.expected_vertices};
  std::unique_ptr<io::EdgeStreamWriter> ingest_log_;

  // Queue (mutex + condvars; capacity applies to edges — control items are
  // rare and bounded by the connection count, so they bypass it).
  std::mutex queue_mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<QueueItem> queue_;
  size_t queued_edges_ = 0;
  /// Edges ACCEPTED into the queue since stream position 0 (resume seeds it
  /// from the session cursor). This — not edges_published_ — is the dedup
  /// authority for idempotent INGEST: an edge is "already applied" the
  /// moment it is accepted in order, even if the decision thread has not
  /// drained it yet. Guarded by queue_mutex_.
  uint64_t ingest_accepted_ = 0;

  // Lifecycle.
  std::atomic<bool> stopping_{false};
  std::atomic<bool> abort_{false};
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;
  bool shut_down_ = false;

  // Published by the decision thread, read by any STATS/GET handler.
  std::atomic<uint64_t> edges_published_{0};
  std::atomic<uint64_t> window_population_{0};

  int listen_fd_ = -1;
  std::mutex conns_mutex_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  /// Connection threads that finished but are not joined yet.
  std::vector<std::thread::id> finished_conns_;
  std::thread decision_thread_;
  std::thread listen_thread_;
  std::thread tail_thread_;
  uint64_t edges_since_checkpoint_ = 0;  // decision thread only
};

}  // namespace serve
}  // namespace loom

#endif  // LOOM_SERVE_SERVER_H_
