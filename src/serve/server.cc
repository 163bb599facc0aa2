#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <stdexcept>

#include "partition/partition_metrics.h"

namespace loom {
namespace serve {

namespace {

/// Bytes a connection reads per recv: one chunk, one batch of replies.
constexpr size_t kRecvBytes = size_t{1} << 16;

bool SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string FmtF6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

Server::Server(const ServerConfig& config, const engine::BuildContext& context)
    : config_(config), num_labels_(context.num_labels) {}

std::unique_ptr<Server> Server::Create(const ServerConfig& config,
                                       const engine::BuildContext& context,
                                       std::string* error) {
  auto server = std::unique_ptr<Server>(new Server(config, context));
  // The extension must be attached before Resume so the tracker's parked
  // state restores atomically with the backend it derives from.
  auto make = [&](std::string* err) {
    std::unique_ptr<engine::Session> s =
        engine::Session::Create(config.session, context, err);
    if (s != nullptr) s->SetExtension(&server->tracker_);
    return s;
  };
  if (!config.resume_path.empty()) {
    bool used_fallback = false;
    server->session_ = engine::ResumeSessionWithFallback(
        make, config.resume_path, error, &used_fallback);
    if (server->session_ == nullptr) return nullptr;
    if (used_fallback) {
      std::cerr << "loom_serve: primary checkpoint rejected, resumed from "
                << config.resume_path << ".prev\n";
    }
    // Re-seed the read path: restored placements never reach the sinks.
    const std::span<const graph::PartitionId> restored =
        server->session_->partitioning().assignments();
    for (size_t v = 0; v < restored.size(); ++v) {
      if (restored[v] != graph::kNoPartition) {
        server->table_.Publish(static_cast<graph::VertexId>(v), restored[v]);
      }
    }
    server->edges_published_.store(server->session_->edges_ingested(),
                                   std::memory_order_release);
    // Resume re-bases the accept cursor too: clients re-sending with seq
    // below the restored cursor get "OK dup" instead of double-ingest.
    server->ingest_accepted_ = server->session_->edges_ingested();
  } else {
    server->session_ = make(error);
    if (server->session_ == nullptr) return nullptr;
  }
  server->session_->AddSink(&server->table_);
  server->session_->AddSink(&server->tracker_);  // after the table: it reads it
  if (!config.ingest_log_path.empty()) {
    if (config.registry == nullptr) {
      *error = "ingest log requires config.registry (the label table for "
               "the LOOMES header)";
      return nullptr;
    }
    try {
      server->ingest_log_ = std::make_unique<io::EdgeStreamWriter>(
          config.ingest_log_path, *config.registry,
          config.session.options.expected_vertices, io::StreamFormat::kBinary);
    } catch (const std::exception& e) {
      *error = e.what();
      return nullptr;
    }
  }
  return server;
}

Server::~Server() {
  if (started_ && !shut_down_) {
    // Crash-like: no drain, no final checkpoint (see class comment).
    abort_.store(true, std::memory_order_release);
    Shutdown();
  }
}

void Server::Start() {
  if (started_) return;
  if (!config_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + config_.socket_path);
    }
    std::memcpy(addr.sun_path, config_.socket_path.c_str(),
                config_.socket_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("socket() failed: " +
                               std::string(std::strerror(errno)));
    }
    ::unlink(config_.socket_path.c_str());  // stale socket from a crash
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      const std::string detail = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("cannot listen on " + config_.socket_path +
                               ": " + detail);
    }
  }
  started_ = true;
  decision_thread_ = std::thread(&Server::DecisionLoop, this);
  if (listen_fd_ >= 0) listen_thread_ = std::thread(&Server::ListenLoop, this);
  if (!config_.tail_path.empty()) {
    tail_thread_ = std::thread(&Server::TailLoop, this);
  }
}

void Server::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  {
    // The flag is checked under queue_mutex_ by every producer/consumer
    // wait; setting it under the lock makes the wake-up race-free.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  // Stop the intake first: no new connections, unblock parked reads.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (listen_thread_.joinable()) listen_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (tail_thread_.joinable()) tail_thread_.join();
  // The decision thread drains whatever is queued (answering every parked
  // control promise), then — unless aborting — writes the final checkpoint
  // and closes the ingest log.
  if (decision_thread_.joinable()) decision_thread_.join();
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
}

bool Server::EnqueueEdges(std::span<const Command> run,
                          std::string* replies) {
  bool queued_since_notify = false;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  for (const Command& r : run) {
    if (queued_edges_ >= config_.queue_capacity &&
        !stopping_.load(std::memory_order_acquire)) {
      // Full partway through the run: the decision thread must see what
      // this run already queued before it can make room.
      if (queued_since_notify) queue_not_empty_.notify_one();
      queued_since_notify = false;
      queue_not_full_.wait(lock, [&] {
        return queued_edges_ < config_.queue_capacity ||
               stopping_.load(std::memory_order_acquire);
      });
    }
    if (stopping_.load(std::memory_order_acquire)) {
      if (replies == nullptr) break;
      replies->append(ErrReply("server shutting down"));
      replies->push_back('\n');
      continue;
    }
    // The dedup decision and the accept are one atomic step (same lock
    // hold): two retries of the same seq racing here must resolve to
    // exactly one accept, and a capacity wait may have let other accepts
    // advance the cursor past this seq in the meantime.
    if (r.has_seq && r.seq != ingest_accepted_) {
      if (replies == nullptr) continue;
      const std::string cursor = std::to_string(ingest_accepted_);
      if (r.seq < ingest_accepted_) {
        // Already accepted at this position: the re-send is dropped, the
        // reply tells the client where its next fresh edge goes.
        replies->append("OK dup seq=" + std::to_string(r.seq) +
                        " cursor=" + cursor);
      } else {
        replies->append(ErrReply("sequence gap: got seq=" +
                                 std::to_string(r.seq) + ", next expected " +
                                 cursor + "; re-send from " + cursor));
      }
      replies->push_back('\n');
      continue;
    }
    QueueItem item;
    item.kind = QueueItem::Kind::kEdge;
    item.edge = r.edge;
    queue_.push_back(item);
    ++queued_edges_;
    ++ingest_accepted_;
    queued_since_notify = true;
    if (replies != nullptr) replies->append("OK queued\n");
  }
  const bool stopping = stopping_.load(std::memory_order_acquire);
  lock.unlock();
  if (queued_since_notify) queue_not_empty_.notify_one();
  return !stopping;
}

std::string Server::RoundtripControl(CommandType type) {
  if (!started_) {
    // No decision thread yet (pre-Start wiring, protocol-level tests):
    // nothing else can touch the session, run the op inline.
    return ControlOnDecisionThread(type);
  }
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      return ErrReply("server shutting down");
    }
    QueueItem item;
    item.kind = QueueItem::Kind::kControl;
    item.control = type;
    item.reply = &promise;
    queue_.push_back(item);
  }
  queue_not_empty_.notify_one();
  return future.get();
}

std::string Server::HandleLine(const std::string& line) {
  LineFramer framer;
  framer.Feed(line);
  framer.Feed("\n");
  std::string reply;
  HandleLines(&framer, &reply);
  reply.pop_back();  // the newline
  return reply;
}

void Server::HandleLines(LineFramer* framer, std::string* replies) {
  std::vector<Command> run;
  std::string line;
  for (;;) {
    const LineFramer::Result res = framer->Next(&line);
    if (res == LineFramer::Result::kNeedMore) break;
    Command c;
    std::string err;
    const bool parsed =
        res == LineFramer::Result::kLine && ParseCommand(line, &c, &err);
    if (parsed && c.type == CommandType::kIngest) {
      err = IngestRangeError(c.edge);
      if (err.empty()) {
        run.push_back(c);
        continue;
      }
    }
    if (!run.empty()) {
      EnqueueEdges(run, replies);
      run.clear();
    }
    if (res == LineFramer::Result::kOversize) {
      err = "line exceeds " + std::to_string(kMaxLineBytes) + " bytes";
    }
    replies->append(err.empty() ? Execute(c) : ErrReply(err));
    replies->push_back('\n');
  }
  if (!run.empty()) EnqueueEdges(run, replies);
}

std::string Server::IngestRangeError(const stream::StreamEdge& e) const {
  const uint64_t bound = config_.session.options.expected_vertices;
  if (bound > 0 && (e.u >= bound || e.v >= bound)) {
    return "vertex id out of range (expected_vertices=" +
           std::to_string(bound) + ")";
  }
  if (num_labels_ > 0 &&
      (e.label_u >= num_labels_ || e.label_v >= num_labels_)) {
    return "label id outside the table (" + std::to_string(num_labels_) +
           " labels)";
  }
  return {};
}

std::string Server::Execute(const Command& c) {
  switch (c.type) {
    case CommandType::kGet: {
      const graph::PartitionId p = table_.Get(c.vertex);
      std::string reply = "OK " + std::to_string(c.vertex) + " ";
      reply += p == graph::kNoPartition ? "-" : std::to_string(p);
      return reply;
    }
    case CommandType::kStats:
      return StatsReply();
    case CommandType::kCheckpoint:
    case CommandType::kFinalize:
    case CommandType::kSnapshotQuality:
      return RoundtripControl(c.type);
    case CommandType::kShutdown:
      shutdown_requested_.store(true, std::memory_order_release);
      return "OK shutting down";
    case CommandType::kIngest:
      break;  // HandleLines queues every INGEST itself
  }
  return ErrReply("unreachable");
}

std::string Server::StatsReply() {
  size_t queued = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queued = queued_edges_;
  }
  return "OK edges=" +
         std::to_string(edges_published_.load(std::memory_order_acquire)) +
         " assigned=" + std::to_string(table_.assigned()) +
         " queue=" + std::to_string(queued) +
         " cut=" + std::to_string(tracker_.cut()) +
         " window=" +
         std::to_string(window_population_.load(std::memory_order_relaxed)) +
         " latency[" + session_->latency().Snapshot().Summary() + "]";
}

void Server::DecisionLoop() {
  const size_t max_run = std::max<size_t>(config_.session.drive.batch_size, 1);
  std::vector<stream::StreamEdge> run;
  run.reserve(max_run);
  for (;;) {
    run.clear();
    QueueItem control;
    bool have_control = false;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_not_empty_.wait_for(lock, std::chrono::milliseconds(50), [&] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) break;
        continue;
      }
      if (abort_.load(std::memory_order_acquire)) {
        // Crash-like teardown: answer parked controls so their connection
        // threads can unwind, drop undecided edges (a real SIGKILL drops
        // them too — durability is the checkpoint's job, not the queue's).
        for (QueueItem& item : queue_) {
          if (item.kind == QueueItem::Kind::kControl) {
            item.reply->set_value(ErrReply("server aborted"));
          }
        }
        queue_.clear();
        queued_edges_ = 0;
        queue_not_full_.notify_all();
        break;
      }
      while (!queue_.empty() && run.size() < max_run) {
        QueueItem& front = queue_.front();
        if (front.kind == QueueItem::Kind::kEdge) {
          run.push_back(front.edge);
          queue_.pop_front();
        } else {
          if (run.empty()) {
            control = front;
            have_control = true;
            queue_.pop_front();
          }
          break;  // keep stream order: finish edges before this control
        }
      }
      queued_edges_ -= run.size();
      queue_not_full_.notify_all();
    }
    if (!run.empty()) IngestRun(&run);
    if (have_control) {
      control.reply->set_value(ControlOnDecisionThread(control.control));
    }
  }
  if (!abort_.load(std::memory_order_acquire)) {
    if (!config_.checkpoint_path.empty()) {
      std::string error;
      if (!RotateCheckpoint(&error)) {
        std::cerr << "loom_serve: final checkpoint failed: " << error << "\n";
      }
    }
    if (ingest_log_ != nullptr) {
      try {
        ingest_log_->Close();
      } catch (const std::exception& e) {
        std::cerr << "loom_serve: closing the ingest log failed: " << e.what()
                  << "\n";
      }
    }
  }
}

void Server::IngestRun(std::vector<stream::StreamEdge>* run) {
  // Stream ids are positions: stamp in queue-accept order, starting at the
  // session's lifetime cursor — the invariant that makes a served stream
  // bit-identical to an offline replay of the same sequence.
  const uint64_t base = session_->edges_ingested();
  for (size_t i = 0; i < run->size(); ++i) {
    (*run)[i].id = static_cast<graph::EdgeId>(base + i);
  }
  const std::span<const stream::StreamEdge> span(run->data(), run->size());
  if (ingest_log_ != nullptr) ingest_log_->AppendBatch(span);
  tracker_.AddEdges(span);
  engine::SpanEdgeSource source(span);
  session_->IngestSome(source, run->size());
  PublishProgress();
  edges_since_checkpoint_ += run->size();
  if (!config_.checkpoint_path.empty() && config_.checkpoint_every > 0 &&
      edges_since_checkpoint_ >= config_.checkpoint_every) {
    std::string error;
    if (!RotateCheckpoint(&error)) {
      std::cerr << "loom_serve: periodic checkpoint failed: " << error << "\n";
    }
  }
}

std::string Server::ControlOnDecisionThread(CommandType type) {
  switch (type) {
    case CommandType::kCheckpoint: {
      if (config_.checkpoint_path.empty()) {
        return ErrReply("no checkpoint path configured (--checkpoint)");
      }
      std::string error;
      if (!RotateCheckpoint(&error)) return ErrReply(error);
      return "OK checkpoint " + config_.checkpoint_path +
             " edges=" + std::to_string(session_->edges_ingested());
    }
    case CommandType::kFinalize: {
      // End-of-stream: place everything still parked in the window. The
      // backend contract keeps Finalize non-terminal, so ingest may resume
      // after — but a mid-stream FINALIZE changes subsequent decisions
      // versus an uninterrupted run; clients own that trade-off.
      const engine::RunReport report = session_->Finish();
      PublishProgress();
      return "OK finalized edges=" + std::to_string(report.edges) +
             " assigned=" + std::to_string(table_.assigned());
    }
    case CommandType::kSnapshotQuality: {
      // Non-destructive: reports the partitioning AS IS (no finalize — that
      // would perturb every later decision and break offline equivalence).
      const partition::Partitioning& p = session_->partitioning();
      return "OK hash=" +
             HexU64(partition::AssignmentHash(
                 p, config_.session.options.expected_vertices)) +
             " cut=" + std::to_string(tracker_.cut()) +
             " imbalance=" + FmtF6(partition::Imbalance(p));
    }
    default:
      return ErrReply("not a control command");
  }
}

void Server::PublishProgress() {
  edges_published_.store(session_->edges_ingested(),
                         std::memory_order_release);
  engine::ProgressEvent p;
  session_->backend().FillProgress(&p);
  window_population_.store(p.window_population, std::memory_order_relaxed);
}

bool Server::RotateCheckpoint(std::string* error) {
  // Log first, checkpoint second: after any crash the ingest log covers at
  // least the checkpointed prefix, so the history stays replayable.
  if (ingest_log_ != nullptr) {
    try {
      ingest_log_->Flush();
    } catch (const std::exception& e) {
      *error = e.what();
      return false;
    }
  }
  if (!engine::CheckpointSessionRotating(session_.get(),
                                         config_.checkpoint_path, error)) {
    return false;
  }
  edges_since_checkpoint_ = 0;
  return true;
}

void Server::ReapFinishedConns() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (std::thread::id id : finished_conns_) {
      auto it = std::find_if(
          conn_threads_.begin(), conn_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      done.push_back(std::move(*it));
      *it = std::move(conn_threads_.back());
      conn_threads_.pop_back();
    }
    finished_conns_.clear();
  }
  for (std::thread& t : done) t.join();
}

void Server::ListenLoop() {
  for (;;) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, 100);
    if (stopping_.load(std::memory_order_acquire)) return;
    ReapFinishedConns();
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      if (conn_fds_.size() < config_.max_connections) {
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back(&Server::ConnLoop, this, fd);
        continue;
      }
    }
    // Over the cap: one ERR line and a close, no thread.
    SendAll(fd, ErrReply("too many connections (max_connections=" +
                         std::to_string(config_.max_connections) + ")") +
                    "\n");
    ::close(fd);
  }
}

void Server::ConnLoop(int fd) {
  LineFramer framer;
  std::vector<char> buf(kRecvBytes);
  std::string replies;
  for (;;) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n <= 0) break;
    framer.Feed(std::string_view(buf.data(), static_cast<size_t>(n)));
    replies.clear();
    HandleLines(&framer, &replies);
    if (!SendAll(fd, replies)) break;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
    finished_conns_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

void Server::TailLoop() {
  try {
    io::FollowOptions follow;
    follow.follow = true;
    follow.poll_interval_ms = config_.tail_poll_ms;
    follow.stop = &stopping_;
    io::FileEdgeSource source(config_.tail_path, follow);
    const uint64_t cursor = edges_published_.load(std::memory_order_acquire);
    if (cursor > 0) source.SkipTo(cursor);  // resume: skip the decided prefix
    std::vector<stream::StreamEdge> batch(512);
    std::vector<Command> run(batch.size(),
                             Command{.type = CommandType::kIngest});
    for (;;) {
      const size_t n = source.NextBatch(batch);
      if (n == 0) return;  // stop signal
      // The tail source is the at-least-once path: no seq, no dedup.
      for (size_t i = 0; i < n; ++i) run[i].edge = batch[i];
      if (!EnqueueEdges(std::span(run).first(n), nullptr)) return;
    }
  } catch (const std::exception& e) {
    std::cerr << "loom_serve: tail ingest of '" << config_.tail_path
              << "' failed: " << e.what() << "\n";
  }
}

}  // namespace serve
}  // namespace loom
