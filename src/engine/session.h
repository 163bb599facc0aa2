// engine::Session — one object that owns a run's lifecycle, and the only
// ingest path.
//
// Session builds a partitioner from a registry spec, wires observers and
// assignment sinks, pulls an EdgeSource into the backend's IngestBatch and
// hands back a RunReport assembled PURELY from observer events: there is
// no backend-specific getter anywhere in the report path (the FDB lesson:
// evaluate over the engine's own event stream, not over privileged peeks
// into its internals). The eval harness, tools and examples are all
// clients.
//
//   engine::SessionConfig cfg;
//   cfg.spec = "loom:window_size=4000";
//   cfg.options.expected_vertices = n;  cfg.options.expected_edges = m;
//   auto session = engine::Session::Create(cfg, {&workload, num_labels},
//                                          &error);
//   io::FileAssignmentSink sink("assignments.tsv");
//   session->AddSink(&sink);
//   engine::RunReport report = session->Run(*source);   // any EdgeSource
//
// Streams need not end: IngestSome() drives a bounded number of edges (the
// midstream checkpoint harness steps a stream this way) and Finish()
// checkpoints whenever the caller chooses. Run() is exactly IngestSome()
// to exhaustion followed by Finish().

#ifndef LOOM_ENGINE_SESSION_H_
#define LOOM_ENGINE_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "io/assignment_sink.h"
#include "partition/partitioner.h"

namespace loom {
namespace engine {

/// Everything a run needs besides the stream itself.
struct SessionConfig {
  /// Registry spec: "name" or "name:key=value,..." (see ParseBackendSpec).
  std::string spec = "loom";
  /// Base options; the spec's inline overrides win on top.
  EngineOptions options;
  /// Batch size for Run and IngestSome.
  DriveConfig drive;
};

/// What a finished (or checkpointed) run looked like — event-sourced only.
struct RunReport {
  /// The backend's registry name ("loom", "fennel", ...).
  std::string backend;
  /// Stream elements ingested across the session's lifetime.
  uint64_t edges = 0;
  /// Wall time spent inside ingest + finalize, ms.
  double ms = 0.0;
  /// edges / ms, scaled to per-second (0 when nothing was timed).
  double edges_per_sec = 0.0;
  /// Accumulated event totals (assignments, last progress snapshot).
  StatsObserver::Totals events;
  /// The backend's deterministic end-of-run counters (FinalStatsEvent);
  /// empty for backends that report none.
  StatCounters backend_stats;

  /// The named backend counter, or `fallback` if absent.
  uint64_t Stat(std::string_view name, uint64_t fallback = 0) const;
};

/// Extra state a long-lived owner of a Session (e.g. serve::Server's
/// stream-side edge-cut tracker) wants carried inside the session's LOOMCK
/// checkpoint, atomically with the backend state it derives from. Save
/// writes one or more uniquely named sections; Restore reads them back and
/// throws (via the reader's Fail) on any mismatch. A checkpoint written
/// with an extension still resumes in a session without one — the extra
/// sections are simply never opened.
class SessionExtension {
 public:
  virtual ~SessionExtension() = default;
  virtual void Save(io::CheckpointWriter* w) const = 0;
  virtual void Restore(io::CheckpointReader* r) = 0;
};

class Session {
 public:
  /// Builds the backend named by `config.spec` through the global registry.
  /// Returns nullptr and an actionable `*error` on unknown backends, bad
  /// overrides or missing context.
  static std::unique_ptr<Session> Create(const SessionConfig& config,
                                         const BuildContext& context,
                                         std::string* error);

  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Subscribes an external observer for the session's lifetime (events
  /// fan out to every subscriber in registration order). Not owned.
  void AddObserver(EngineObserver* observer);

  /// Binds an assignment sink: every OnAssign placement is appended, and
  /// Run/Finish flush it. Not owned.
  void AddSink(io::AssignmentSink* sink);

  /// Binds an EDGE assignment sink: every OnEdgeAssign placement (edge
  /// backends only — hdrf/dbh; vertex backends never fire it) is appended,
  /// and Run/Finish flush it. Not owned.
  void AddEdgeSink(io::EdgeAssignmentSink* sink);

  /// Attaches checkpoint-extension state (not owned; nullptr detaches):
  /// Checkpoint() appends its sections after the backend's, Resume()
  /// restores them after the backend restores. Attach before Resume.
  void SetExtension(SessionExtension* extension) { extension_ = extension; }

  /// Pulls `source` dry (IngestSome), then Finish()es. The source is
  /// consumed from its current position — Reset() it first to replay from
  /// the top.
  RunReport Run(EdgeSource& source);

  /// Ingests up to `max_edges` from `source` without finalizing; returns
  /// how many were consumed (less only if the source ran dry). This is the
  /// checkpoint seam: inspect partitioning() between calls, then keep
  /// going — Finalize is never implied.
  size_t IngestSome(EdgeSource& source, size_t max_edges);

  /// Checkpoints the stream: finalizes, fires the final progress event
  /// (edges_ingested = the session-lifetime count, resumed edges included)
  /// and the final-stats event, flushes sinks and reports.
  RunReport Finish();

  /// Snapshots the whole run — session envelope (backend id, stream cursor,
  /// resolved options fingerprint, event totals) plus the backend's
  /// SaveState sections — into a LOOMCK file at `path`, committed atomically
  /// (tmp + fsync + rename), flushing sinks first so everything already
  /// assigned is durable alongside the checkpoint. Returns false + an
  /// actionable `*error` on failure; the previous file at `path` (if any) is
  /// only replaced by a complete new checkpoint, never by a torn one.
  bool Checkpoint(const std::string& path, std::string* error);

  /// Restores a Checkpoint file into this freshly created session (nothing
  /// ingested). On success the session's stream cursor is edges_ingested();
  /// skip the source to that position and keep driving — assignments,
  /// events and final stats will be bit-identical to the uninterrupted run.
  /// On failure (corruption, version skew, backend/options/label mismatch)
  /// returns false with an actionable `*error` and the session must be
  /// discarded.
  bool Resume(const std::string& path, std::string* error);

  /// Stream elements ingested over the session's lifetime (the resume
  /// cursor: the next edge to read has this stream id).
  uint64_t edges_ingested() const { return edges_; }

  /// The (possibly partial) partitioning — placement state, not a
  /// backend-specific getter.
  const partition::Partitioning& partitioning() const;

  /// Escape hatch to the underlying backend, for callers that knowingly
  /// step outside the facade (examples poking at Loom's trie, workload
  /// drift via UpdateWorkload). The report path never uses this.
  partition::Partitioner& backend() { return *partitioner_; }

 private:
  /// Fans every event out to the session's stats accumulator, sinks
  /// (OnAssign) and external observers.
  class Fanout : public EngineObserver {
   public:
    void OnAssign(const AssignEvent& e) override;
    void OnEdgeAssign(const EdgeAssignEvent& e) override;
    void OnProgress(const ProgressEvent& e) override;
    void OnBatch(const BatchEvent& e) override;
    void OnFinalStats(const FinalStatsEvent& e) override;

    StatsObserver stats;
    std::vector<io::AssignmentSink*> sinks;
    std::vector<io::EdgeAssignmentSink*> edge_sinks;
    std::vector<EngineObserver*> observers;
  };

  Session(const SessionConfig& config,
          std::unique_ptr<partition::Partitioner> partitioner);

  RunReport MakeReport() const;
  void FlushSinks();

  SessionConfig config_;
  /// config_.options with the spec's inline overrides applied — what the
  /// backend was actually built with; the checkpoint fingerprint uses this,
  /// never the raw base options.
  EngineOptions resolved_options_;
  std::unique_ptr<partition::Partitioner> partitioner_;
  Fanout fanout_;
  SessionExtension* extension_ = nullptr;
  /// IngestSome's batch buffer, grown on demand and kept between calls.
  std::vector<stream::StreamEdge> batch_;
  uint64_t edges_ = 0;
  double ms_ = 0.0;
};

/// Two-slot rotation on top of Session::Checkpoint: the current good file at
/// `path` is first renamed to `path + ".prev"`, then the new checkpoint is
/// committed at `path` — so one good checkpoint always survives a crash (or
/// a corruption) of the newest one.
bool CheckpointSessionRotating(Session* session, const std::string& path,
                               std::string* error);

/// Resume with fallback across the rotation's two slots: builds a session
/// via `make` and resumes it from `path`; if that checkpoint is missing or
/// rejected, builds a FRESH session (a failed restore may have partially
/// mutated the first one) and retries from `path + ".prev"`. Returns the
/// resumed session, or nullptr with both slots' errors joined in `*error`.
/// `*used_fallback` (optional) reports whether the ".prev" slot restored.
std::unique_ptr<Session> ResumeSessionWithFallback(
    const std::function<std::unique_ptr<Session>(std::string*)>& make,
    const std::string& path, std::string* error,
    bool* used_fallback = nullptr);

}  // namespace engine
}  // namespace loom

#endif  // LOOM_ENGINE_SESSION_H_
