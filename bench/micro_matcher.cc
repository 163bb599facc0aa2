// Micro-benchmarks for streaming ingestion: edges/second through each
// partitioner on a pre-materialised provgen stream (Table 2's measure
// expressed as throughput, suitable for regression tracking), plus isolated
// hot-path benches for the Alg. 2 matcher (window + matchList only, no
// partitioner; on provgen and on a hub-heavy MusicBrainz stream) and the
// sliding-window ring buffer.

#include <benchmark/benchmark.h>

#include "datasets/dataset_registry.h"
#include "datasets/workloads.h"
#include "eval/experiment.h"
#include "motif/match_list.h"
#include "motif/motif_matcher.h"
#include "signature/label_values.h"
#include "signature/signature_calculator.h"
#include "stream/sliding_window.h"
#include "stream/stream_order.h"
#include "tpstry/tpstry.h"

namespace {

using namespace loom;

struct Fixture {
  datasets::Dataset ds;
  std::vector<stream::StreamEdge> es;
  Fixture(datasets::DatasetId id, double scale)
      : ds(datasets::MakeDataset(id, scale)) {
    // Materialised once so the timed loops measure ingest, not the source.
    auto source =
        engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst);
    es.resize(source->SizeHint());
    es.resize(source->NextBatch(es));
  }
};

Fixture& GetFixture() {
  static Fixture f(datasets::DatasetId::kProvGen, 0.2);
  return f;
}

/// MusicBrainz at 8x the reproduction scale, BFS order (the shape of
/// bench/e2e's mb-bfs stream): its hub endpoints hold thousands of live
/// matches, so the matcher's per-endpoint caps are what it exercises.
Fixture& GetMusicBrainzFixture() {
  static Fixture f(datasets::DatasetId::kMusicBrainz, 8.0);
  return f;
}

void RunSystemBench(benchmark::State& state, eval::System system) {
  Fixture& f = GetFixture();
  eval::ExperimentConfig cfg;
  cfg.window_size = 2000;
  for (auto _ : state) {
    auto p = eval::MakePartitioner(system, f.ds, cfg);
    for (const auto& e : f.es) p->Ingest(e);
    p->Finalize();
    benchmark::DoNotOptimize(p->partitioning().NumAssigned());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.es.size()));
}

void BM_IngestHash(benchmark::State& state) {
  RunSystemBench(state, eval::System::kHash);
}
void BM_IngestLdg(benchmark::State& state) {
  RunSystemBench(state, eval::System::kLdg);
}
void BM_IngestFennel(benchmark::State& state) {
  RunSystemBench(state, eval::System::kFennel);
}
void BM_IngestLoom(benchmark::State& state) {
  RunSystemBench(state, eval::System::kLoom);
}

BENCHMARK(BM_IngestHash)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IngestLdg)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IngestFennel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IngestLoom)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------- matcher only
// Window + matchList + Alg. 2, without partitioning/assignment: the exact
// paths the ring buffer, MatchPool and incremental degrees rebuilt.
void BM_MatcherOnly(benchmark::State& state, Fixture& (*fixture)()) {
  Fixture& f = fixture();
  const size_t window_size = static_cast<size_t>(state.range(0));
  signature::LabelValues values(f.ds.registry.size(),
                                signature::kDefaultPrime, 0xC0FFEE);
  signature::SignatureCalculator calc(&values);
  tpstry::Tpstry trie(&calc, 0.4);
  for (const auto& q : f.ds.workload.queries()) {
    trie.AddQuery(q.pattern, q.frequency);
  }
  uint64_t admitted = 0, fresh = 0, reused = 0;
  for (auto _ : state) {
    motif::MotifMatcher matcher(&trie, &calc);
    stream::SlidingWindow window(window_size);
    motif::MatchList ml;
    ml.ReserveEdgeSpan(window_size + 1);
    for (const auto& e : f.es) {
      if (matcher.SingleEdgeMotif(e) == nullptr) continue;
      window.Push(e);
      matcher.OnEdgeAdded(e, window, &ml);
      while (window.OverCapacity()) {
        auto oldest = window.PopOldest();
        ml.RemoveMatchesWithEdge(oldest->id);
      }
    }
    admitted = matcher.stats().edges_admitted;
    fresh = ml.pool().fresh_allocations();
    reused = ml.pool().reused_allocations();
    benchmark::DoNotOptimize(ml.NumLive());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(admitted));
  state.counters["allocs_fresh"] = static_cast<double>(fresh);
  state.counters["allocs_reused"] = static_cast<double>(reused);
}

BENCHMARK_CAPTURE(BM_MatcherOnly, provgen, &GetFixture)
    ->Arg(2000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MatcherOnly, musicbrainz_x8_bfs, &GetMusicBrainzFixture)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- window ring ops
// Steady-state Push / Find / PopOldest cycle at the paper window.
void BM_WindowOps(benchmark::State& state) {
  const size_t window_size = static_cast<size_t>(state.range(0));
  stream::SlidingWindow w(window_size);
  stream::StreamEdge e;
  e.label_u = e.label_v = 0;
  graph::EdgeId next = 0;
  uint64_t sink = 0;
  for (auto _ : state) {
    e.id = next;
    e.u = next * 2;
    e.v = next * 2 + 1;
    w.Push(e);
    const stream::StreamEdge* f = w.Find(next - next % (window_size / 2));
    if (f != nullptr) sink += f->u;
    if (w.OverCapacity()) sink += w.PopOldest()->id;
    ++next;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK(BM_WindowOps)->Arg(10000);

}  // namespace
