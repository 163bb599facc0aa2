#include "engine/session.h"

#include <algorithm>
#include <cassert>
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

void Session::Fanout::OnAssign(const AssignEvent& e) {
  stats.OnAssign(e);
  for (io::AssignmentSink* sink : sinks) sink->Append(e.vertex, e.partition);
  for (EngineObserver* o : observers) o->OnAssign(e);
}

void Session::Fanout::OnEdgeAssign(const EdgeAssignEvent& e) {
  for (io::EdgeAssignmentSink* sink : edge_sinks) {
    sink->Append(e.edge, e.u, e.v, e.partition);
  }
  for (EngineObserver* o : observers) o->OnEdgeAssign(e);
}

void Session::Fanout::OnProgress(const ProgressEvent& e) {
  stats.OnProgress(e);
  for (EngineObserver* o : observers) o->OnProgress(e);
}

void Session::Fanout::OnBatch(const BatchEvent& e) {
  for (EngineObserver* o : observers) o->OnBatch(e);
}

void Session::Fanout::OnFinalStats(const FinalStatsEvent& e) {
  stats.OnFinalStats(e);
  for (EngineObserver* o : observers) o->OnFinalStats(e);
}

std::unique_ptr<Session> Session::Create(const SessionConfig& config,
                                         const BuildContext& context,
                                         std::string* error) {
  std::unique_ptr<partition::Partitioner> partitioner =
      BuildPartitioner(config.spec, config.options, context, error);
  if (partitioner == nullptr) return nullptr;
  auto session =
      std::unique_ptr<Session>(new Session(config, std::move(partitioner)));
  // Re-apply the spec's inline overrides onto a copy of the base options so
  // the checkpoint fingerprint records what the backend was actually built
  // with. BuildPartitioner already validated both steps, so neither can fail.
  BackendSpec parsed;
  std::string ignored;
  const bool ok = ParseBackendSpec(config.spec, &parsed, &ignored) &&
                  session->resolved_options_.ApplyOverrides(parsed.overrides,
                                                            &ignored);
  assert(ok && "spec re-parse after successful build");
  (void)ok;
  return session;
}

Session::Session(const SessionConfig& config,
                 std::unique_ptr<partition::Partitioner> partitioner)
    : config_(config),
      resolved_options_(config.options),
      partitioner_(std::move(partitioner)) {
  partitioner_->SetObserver(&fanout_);
}

Session::~Session() {
  if (partitioner_ != nullptr) partitioner_->SetObserver(nullptr);
}

void Session::AddObserver(EngineObserver* observer) {
  fanout_.observers.push_back(observer);
}

void Session::AddSink(io::AssignmentSink* sink) {
  fanout_.sinks.push_back(sink);
}

void Session::AddEdgeSink(io::EdgeAssignmentSink* sink) {
  fanout_.edge_sinks.push_back(sink);
}

RunReport Session::Run(EdgeSource& source) {
  IngestSome(source, SIZE_MAX);
  return Finish();
}

size_t Session::IngestSome(EdgeSource& source, size_t max_edges) {
  const size_t batch_cap = std::max<size_t>(config_.drive.batch_size, 1);
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
    fanout_.OnBatch({n, static_cast<uint64_t>(batch_timer.ElapsedMs() * 1e6)});
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

  // The one end-of-run tail: a finalizing progress event with lifetime
  // totals, then the final stats.
  ProgressEvent progress;
  progress.edges_ingested = edges_;
  progress.finalizing = true;
  partitioner_->FillProgress(&progress);
  fanout_.OnProgress(progress);
  FinalStatsEvent final_stats;
  partitioner_->FillFinalStats(&final_stats);
  fanout_.OnFinalStats(final_stats);

  FlushSinks();
  return MakeReport();
}

bool Session::Checkpoint(const std::string& path, std::string* error) {
  // Flush first: every assignment the checkpoint claims as done must be
  // durable in the sinks before the snapshot that claims it is published.
  FlushSinks();
  try {
    io::CheckpointWriter w;
    w.BeginSection("session");
    w.Str(partitioner_->name());
    w.U64(edges_);
    const StatsObserver::Totals& t = fanout_.stats.totals();
    w.U64(t.vertices_assigned);
    const ProgressEvent& p = t.last_progress;
    w.U64(p.edges_ingested);
    w.U64(p.edges_bypassed);
    w.U64(p.window_population);
    w.U8(p.finalizing ? 1 : 0);
    const auto flat = resolved_options_.ToFlat();
    w.U32(static_cast<uint32_t>(flat.size()));
    for (const auto& [key, value] : flat) {
      w.Str(key);
      w.Str(value);
    }
    w.EndSection();
    if (!partitioner_->SaveState(&w, error)) return false;
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
    StatsObserver::Totals t;
    t.vertices_assigned = r.U64();
    ProgressEvent& p = t.last_progress;
    p.edges_ingested = r.U64();
    p.edges_bypassed = r.U64();
    p.window_population = r.U64();
    p.finalizing = r.U8() != 0;
    const auto flat = resolved_options_.ToFlat();
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
    if (!partitioner_->RestoreState(&r, error)) return false;
    if (extension_ != nullptr) extension_->Restore(&r);
    edges_ = edges;
    fanout_.stats.RestoreTotals(t);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

const partition::Partitioning& Session::partitioning() const {
  return partitioner_->partitioning();
}

void Session::FlushSinks() {
  for (io::AssignmentSink* sink : fanout_.sinks) sink->Flush();
  for (io::EdgeAssignmentSink* sink : fanout_.edge_sinks) sink->Flush();
}

RunReport Session::MakeReport() const {
  RunReport report;
  report.backend = partitioner_->name();
  report.edges = edges_;
  report.ms = ms_;
  report.edges_per_sec =
      ms_ > 0.0 ? 1000.0 * static_cast<double>(edges_) / ms_ : 0.0;
  report.events = fanout_.stats.totals();
  report.backend_stats = fanout_.stats.final_stats().counters;
  return report;
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
