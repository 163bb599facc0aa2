// Per-decision latency profiling over the engine's own event stream.
//
// ROADMAP item 5's last rung: regressions in the ingest hot path should be
// visible per-decision, not only as end-to-end eps. Session::IngestSome
// fires a BatchEvent (edge count + wall ns) after every IngestBatch call;
// this observer folds those into a lock-free log2 histogram of
// nanoseconds-per-edge. Each edge in a batch contributes one
// sample at the batch's mean cost, so quantiles are per-DECISION (drive
// with batch_size=1 for exact per-edge timing; the default batches trade
// sample resolution for ingest speed, as everywhere else in the engine).
//
// The histogram is readable from any thread while recording continues —
// loom_serve's STATS reply and loom_partition --progress both read it live.

#ifndef LOOM_ENGINE_LATENCY_OBSERVER_H_
#define LOOM_ENGINE_LATENCY_OBSERVER_H_

#include "engine/observer.h"
#include "util/histogram.h"

namespace loom {
namespace engine {

class LatencyObserver : public EngineObserver {
 public:
  void OnBatch(const BatchEvent& e) override {
    if (e.edges == 0) return;
    histogram_.Add(e.ns / e.edges, e.edges);
  }

  /// Live histogram of ns-per-edge decision latency; Snapshot() it from any
  /// thread.
  const util::Histogram& histogram() const { return histogram_; }

  void Reset() { histogram_.Reset(); }

 private:
  util::Histogram histogram_;
};

}  // namespace engine
}  // namespace loom

#endif  // LOOM_ENGINE_LATENCY_OBSERVER_H_
