#include "engine/session.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "io/checkpoint.h"
#include "util/timer.h"

namespace loom {
namespace engine {

uint64_t RunReport::Stat(std::string_view name, uint64_t fallback) const {
  return FindCounter(backend_stats, name, fallback);
}

double RunReport::ReplicationFactor() const {
  const uint64_t vertices_seen = Stat("vertices_seen");
  return vertices_seen > 0 ? static_cast<double>(Stat("replica_total")) /
                                 static_cast<double>(vertices_seen)
                           : 0.0;
}

double RunReport::EdgeBalance(uint32_t k) const {
  const uint64_t edge_assignments = Stat("edge_assignments");
  return edge_assignments > 0
             ? static_cast<double>(Stat("max_part_edges")) * k /
                   static_cast<double>(edge_assignments)
             : 0.0;
}

std::unique_ptr<Session> Session::Create(const SessionConfig& config,
                                         const BuildContext& context,
                                         std::string* error) {
  // The spec's inline overrides are resolved once: the backend is built
  // from this value, and Checkpoint/Resume record and compare the same one.
  BackendSpec parsed;
  if (!ParseBackendSpec(config.spec, &parsed, error)) return nullptr;
  EngineOptions options = config.options;
  if (!options.ApplyOverrides(parsed.overrides, error)) return nullptr;
  std::unique_ptr<partition::Partitioner> partitioner =
      PartitionerRegistry::Global().Create(parsed.name, options, context,
                                           error);
  if (partitioner == nullptr) return nullptr;
  return std::unique_ptr<Session>(
      new Session(config.drive, options, std::move(partitioner)));
}

Session::Session(const DriveConfig& drive, const EngineOptions& options,
                 std::unique_ptr<partition::Partitioner> partitioner)
    : drive_(drive), options_(options), partitioner_(std::move(partitioner)) {}

RunReport Session::Run(EdgeSource& source) {
  IngestSome(source, SIZE_MAX);
  return Finish();
}

size_t Session::IngestSome(EdgeSource& source, size_t max_edges) {
  const size_t batch_cap = std::max<size_t>(drive_.batch_size, 1);
  // One buffer for the session's lifetime: a server calls this once per
  // short run of edges, so a fresh zero-filled batch per call would cost
  // an allocation and a fill per run.
  const size_t buffer = std::min(batch_cap, max_edges);
  if (batch_.size() < buffer) batch_.resize(buffer);
  size_t done = 0;
  util::Timer timer;
  while (done < max_edges) {
    const size_t want = std::min(batch_cap, max_edges - done);
    const size_t n =
        source.NextBatch(std::span<stream::StreamEdge>(batch_.data(), want));
    if (n == 0) break;
    util::Timer batch_timer;
    partitioner_->IngestBatch(
        std::span<const stream::StreamEdge>(batch_.data(), n));
    const auto ns = static_cast<uint64_t>(batch_timer.ElapsedMs() * 1e6);
    latency_.Add(ns / n, n);
    done += n;
  }
  ms_ += timer.ElapsedMs();
  edges_ += done;
  return done;
}

RunReport Session::Finish() {
  util::Timer timer;
  partitioner_->Finalize();
  ms_ += timer.ElapsedMs();

  partitioner_->FlushSinks();

  RunReport report;
  report.backend = partitioner_->name();
  report.edges = edges_;
  report.ms = ms_;
  report.edges_per_sec =
      ms_ > 0.0 ? 1000.0 * static_cast<double>(edges_) / ms_ : 0.0;
  report.vertices_assigned = partitioning().NumAssigned();
  ProgressEvent progress;
  partitioner_->FillProgress(&progress);
  report.edges_bypassed = progress.edges_bypassed;
  partitioner_->FillFinalStats(&report.backend_stats);
  return report;
}

bool Session::Checkpoint(const std::string& path, std::string* error) {
  // Flush first: every assignment the checkpoint claims as done must be
  // durable in the sinks before the snapshot that claims it is published.
  partitioner_->FlushSinks();
  try {
    io::CheckpointWriter w;
    w.BeginSection("session");
    w.Str(partitioner_->name());
    w.U64(edges_);
    const auto flat = options_.ToFlat();
    w.U32(static_cast<uint32_t>(flat.size()));
    for (const auto& [key, value] : flat) {
      w.Str(key);
      w.Str(value);
    }
    w.EndSection();
    partitioner_->SaveState(&w);
    if (extension_ != nullptr) extension_->Save(&w);
    w.Commit(path);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

bool Session::Resume(const std::string& path, std::string* error) {
  if (edges_ != 0) {
    if (error != nullptr) {
      *error = "resume requires a fresh session (this one already ingested " +
               std::to_string(edges_) + " edges)";
    }
    return false;
  }
  try {
    io::CheckpointReader r(path);
    r.Open("session");
    const std::string backend = r.Str();
    if (backend != partitioner_->name()) {
      r.Fail("backend mismatch: checkpoint was written by '" + backend +
             "', this session runs '" + std::string(partitioner_->name()) +
             "'");
    }
    const uint64_t edges = r.U64();
    const auto flat = options_.ToFlat();
    const uint32_t n_options = r.U32();
    if (n_options != flat.size()) {
      r.Fail("engine options arity mismatch (checkpoint from a build with a "
             "different option set)");
    }
    for (const auto& [key, value] : flat) {
      const std::string ck = r.Str();
      const std::string cv = r.Str();
      if (ck != key) {
        r.Fail("engine options key order mismatch: expected '" + key +
               "', checkpoint has '" + ck + "'");
      }
      if (cv != value) {
        r.Fail("options mismatch on '" + key + "': checkpoint has " + cv +
               ", this run is configured with " + value +
               " (resume must use the checkpointed run's configuration)");
      }
    }
    r.Close();
    partitioner_->RestoreState(&r);
    if (extension_ != nullptr) extension_->Restore(&r);
    edges_ = edges;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

const partition::Partitioning& Session::partitioning() const {
  return partitioner_->partitioning();
}

bool CheckpointSessionRotating(Session* session, const std::string& path,
                               std::string* error) {
  // Rotate the current good checkpoint aside before committing the new one.
  // Commit() itself publishes atomically, so at every instant either `path`
  // or `path + ".prev"` holds a complete, verifiable checkpoint. The rename
  // is a deliberate no-op when `path` does not exist yet.
  std::rename(path.c_str(), (path + ".prev").c_str());
  return session->Checkpoint(path, error);
}

std::unique_ptr<Session> ResumeSessionWithFallback(
    const std::function<std::unique_ptr<Session>(std::string*)>& make,
    const std::string& path, std::string* error, bool* used_fallback) {
  if (used_fallback != nullptr) *used_fallback = false;
  std::string primary_error = "session construction failed";
  if (std::unique_ptr<Session> session = make(&primary_error)) {
    if (session->Resume(path, &primary_error)) return session;
  }
  // A rejected restore may have half-mutated the backend — retry the ".prev"
  // slot on a session built from scratch.
  std::string fallback_error = "session construction failed";
  if (std::unique_ptr<Session> session = make(&fallback_error)) {
    if (session->Resume(path + ".prev", &fallback_error)) {
      if (used_fallback != nullptr) *used_fallback = true;
      return session;
    }
  }
  if (error != nullptr) {
    *error = "resume failed on both slots: [" + path + "] " + primary_error +
             "; [" + path + ".prev] " + fallback_error;
  }
  return nullptr;
}

}  // namespace engine
}  // namespace loom
