// Table 2: time (ms) to partition 10k edges, for every dataset (including
// LUBM-4000, which is partitioned but never queried — exactly as in the
// paper) and every system.
//
// Besides the human-readable table this binary emits BENCH_throughput.json
// (path overridable via LOOM_BENCH_JSON): per dataset/system ingest
// throughput, partition quality (edge-cut, imbalance, assignment hash on
// fixed seeds), Loom's match-pool allocation-reuse counters, a Loom-only
// ingest section at the paper-default window t = 10000 (EngineOptions'
// default; the acceptance metric for perf PRs) and sliding-window
// micro-latencies. tools/run_bench.sh diffs it against the committed
// baseline so partition quality can never silently drift while chasing
// throughput.
//
// Backend selection: set LOOM_BENCH_SYSTEMS to a ';'-separated list of
// registry specs (e.g. "fennel;loom:window_size=2000,alpha=0.5") to time
// arbitrary engine backends/configurations instead of the default four
// paper systems. Custom selections skip the paper-window section and are
// not comparable to the committed baseline (run_bench.sh skips the diff).
//
// Smoke mode: `table2_throughput --smoke [baseline.json]` runs a fixed
// tiny configuration (scale 0.05, window 1000, BFS, k=8) over every
// backend and compares the deterministic quality triples
// (assignment hash, edge-cut, imbalance — no timings) against the
// committed baseline, exiting non-zero on drift. Registered with ctest as
// `bench_smoke`, so quality drift fails tier-1 — not only
// tools/run_bench.sh. A missing baseline is seeded from the current run
// (delete BENCH_smoke.json and rerun to re-golden intentionally).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datasets/dataset_registry.h"
#include "engine/session.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "io/edge_stream_io.h"
#include "partition/partition_metrics.h"
#include "stream/sliding_window.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/timer.h"

namespace {

using namespace loom;

/// LOOM_BENCH_SYSTEMS split on ';' (empty = the default four systems).
std::vector<std::string> BackendSpecs() {
  std::vector<std::string> specs;
  const char* env = std::getenv("LOOM_BENCH_SYSTEMS");
  if (env == nullptr) return specs;
  for (std::string& spec : util::Split(env, ';')) {
    if (!spec.empty()) specs.push_back(std::move(spec));
  }
  return specs;
}

void WriteSystemJson(bench::JsonWriter& jw, const eval::SystemResult& r) {
  jw.BeginObject();
  jw.Key("system").Value(r.label.empty() ? eval::ToString(r.system)
                                         : r.label);
  jw.Key("ms").Value(r.partition_ms);
  jw.Key("ms_per_10k_edges").Value(r.ms_per_10k_edges);
  jw.Key("eps").Value(r.edges_per_sec);
  jw.Key("edge_cut").Value(static_cast<uint64_t>(r.edge_cut));
  jw.Key("imbalance").Value(r.imbalance);
  jw.Key("assignment_hash").HexValue(r.assignment_hash);
  // Edge-partitioning quality triple (hdrf/dbh only; vertex backends
  // never set edge_balance). diff_bench.py exact-compares all three.
  if (r.edge_balance > 0.0) {
    jw.Key("replication_factor").Value(r.replication_factor);
    jw.Key("edge_balance").Value(r.edge_balance);
    jw.Key("edge_assignment_hash").HexValue(r.edge_assignment_hash);
  }
  // Whatever the backend reported through the final-stats observer event
  // (match-pool reuse and matcher totals for loom; deterministic, so safe
  // to keep in a diffed baseline). No backend-specific fields here —
  // except edge_assignment_hash, already emitted above in hex form (a
  // second decimal copy would be a duplicate JSON key).
  for (const auto& [name, value] : r.backend_stats) {
    if (name == "edge_assignment_hash") continue;
    jw.Key(name).Value(value);
  }
  jw.EndObject();
}

/// Ring-buffer micro-latencies: steady-state Push/Find/PopOldest cycle and
/// out-of-order Remove, ns per op.
void WriteWindowOpsJson(bench::JsonWriter& jw) {
  constexpr size_t kWindow = 10000;
  constexpr graph::EdgeId kOps = 2000000;
  stream::SlidingWindow w(kWindow);
  stream::StreamEdge e;
  e.label_u = e.label_v = 0;

  util::Timer t;
  uint64_t sink = 0;
  for (graph::EdgeId i = 0; i < kOps; ++i) {
    e.id = i;
    e.u = i * 2;
    e.v = i * 2 + 1;
    w.Push(e);
    const stream::StreamEdge* f = w.Find(i / 2 + i % (i / 2 + 1));
    if (f != nullptr) sink += f->u;
    if (w.OverCapacity()) sink += w.PopOldest()->id;
  }
  const double cycle_ns = 1e6 * t.ElapsedMs() / static_cast<double>(kOps);

  std::vector<graph::EdgeId> live;
  live.reserve(w.size());
  w.ForEach([&](const stream::StreamEdge& se) { live.push_back(se.id); });
  std::reverse(live.begin(), live.end());  // newest-first = out of order
  t.Start();
  for (graph::EdgeId id : live) sink += w.Remove(id) ? 1 : 0;
  const double remove_ns =
      live.empty() ? 0.0
                   : 1e6 * t.ElapsedMs() / static_cast<double>(live.size());

  jw.Key("window_ops").BeginObject();
  jw.Key("window").Value(static_cast<uint64_t>(kWindow));
  jw.Key("push_find_pop_cycle_ns").Value(cycle_ns);
  jw.Key("out_of_order_remove_ns").Value(remove_ns);
  jw.Key("checksum").Value(sink % 1000);
  jw.EndObject();
}

// ---------------------------------------------------------------- smoke

/// Deterministic quality triple of `spec` on `ds` (tiny fixed config; no
/// timing fields, so the emitted JSON is byte-stable across runs).
struct SmokeQuality {
  uint64_t assignment_hash = 0;
  size_t edge_cut = 0;
  double imbalance = 0.0;
  // Edge-backend triple (0 for vertex partitioners; see partition/edge/).
  double replication_factor = 0.0;
  double edge_balance = 0.0;
  uint64_t edge_assignment_hash = 0;
};

bool RunSmokeSpec(const std::string& spec, const datasets::Dataset& ds,
                  SmokeQuality* out) {
  engine::EngineOptions options;
  options.k = 8;
  options.expected_vertices = ds.NumVertices();
  options.expected_edges = ds.NumEdges();
  options.window_size = 1000;
  engine::SessionConfig config;
  config.spec = spec;
  config.options = options;
  std::string error;
  auto session = engine::Session::Create(
      config, {&ds.workload, ds.registry.size()}, &error);
  if (session == nullptr) {
    std::cerr << "smoke: building '" << spec << "' failed: " << error << "\n";
    return false;
  }
  auto source =
      engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst, 0x10c5);
  const engine::RunReport report = session->Run(*source);
  const partition::Partitioning& p = session->partitioning();
  out->assignment_hash = eval::HashAssignment(p, ds.NumVertices());
  out->edge_cut = partition::EdgeCut(ds.graph, p);
  out->imbalance = partition::Imbalance(p);
  const uint64_t edge_assignments = report.Stat("edge_assignments");
  if (edge_assignments > 0) {
    const uint64_t vertices_seen = report.Stat("vertices_seen");
    out->replication_factor =
        vertices_seen > 0 ? static_cast<double>(report.Stat("replica_total")) /
                                static_cast<double>(vertices_seen)
                          : 0.0;
    out->edge_balance = static_cast<double>(report.Stat("max_part_edges")) *
                        p.k() / static_cast<double>(edge_assignments);
    out->edge_assignment_hash = report.Stat("edge_assignment_hash");
  }
  return true;
}

/// Fixed tiny-config quality sweep -> JSON string; compared byte-for-byte
/// against the committed baseline (every field is deterministic).
int RunSmoke(const std::string& baseline_path) {
  using namespace loom;
  constexpr double kScale = 0.05;
  const std::vector<std::string> specs = {
      "hash", "ldg", "fennel", "loom",
      // Edge partitioners: their triple is (replication factor, edge
      // balance, edge hash); the vertex-derived fields ride along too.
      "hdrf:lambda=1.1", "dbh", "hep:threshold_factor=4"};

  std::ostringstream json;
  bench::JsonWriter jw(json);
  jw.BeginObject();
  jw.Key("bench").Value("table2_smoke");
  jw.Key("scale").Value(kScale);
  jw.Key("window").Value(uint64_t{1000});
  jw.Key("k").Value(8);
  jw.Key("order").Value("bfs");
  jw.Key("datasets").BeginArray();
  for (auto id : datasets::AllDatasets()) {
    datasets::Dataset ds = datasets::MakeDataset(id, kScale);
    jw.BeginObject();
    jw.Key("dataset").Value(ds.meta.name);
    jw.Key("edges").Value(static_cast<uint64_t>(ds.NumEdges()));
    jw.Key("systems").BeginArray();
    for (const std::string& spec : specs) {
      SmokeQuality q;
      if (!RunSmokeSpec(spec, ds, &q)) return 2;
      jw.BeginObject();
      jw.Key("system").Value(spec);
      jw.Key("assignment_hash").HexValue(q.assignment_hash);
      jw.Key("edge_cut").Value(static_cast<uint64_t>(q.edge_cut));
      jw.Key("imbalance").Value(q.imbalance);
      // Conditional, so the vertex-system records stay byte-identical to
      // pre-edge-backend baselines.
      if (q.edge_balance > 0.0) {
        jw.Key("replication_factor").Value(q.replication_factor);
        jw.Key("edge_balance").Value(q.edge_balance);
        jw.Key("edge_assignment_hash").HexValue(q.edge_assignment_hash);
      }
      jw.EndObject();
    }
    jw.EndArray();
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
  const std::string current = json.str();

  std::ifstream baseline_file(baseline_path);
  if (!baseline_file) {
    std::ofstream seed(baseline_path);
    if (!seed) {
      std::cerr << "smoke: cannot seed baseline " << baseline_path << "\n";
      return 2;
    }
    seed << current << "\n";
    std::cout << "smoke: no baseline at " << baseline_path
              << "; seeded it from this run\n";
    return 0;
  }
  std::stringstream buf;
  buf << baseline_file.rdbuf();
  std::string baseline = buf.str();
  while (!baseline.empty() &&
         (baseline.back() == '\n' || baseline.back() == '\r')) {
    baseline.pop_back();
  }
  if (baseline != current) {
    std::cerr << "smoke: quality drift vs " << baseline_path << "\n"
              << "  baseline: " << baseline << "\n"
              << "  current:  " << current << "\n"
              << "If the change is intentional, delete the baseline and "
                 "rerun to re-golden.\n";
    return 1;
  }
  std::cout << "smoke: quality matches " << baseline_path << " ("
            << specs.size() << " systems x "
            << datasets::AllDatasets().size() << " datasets)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace loom;
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke(argc > 2 ? argv[2] : "BENCH_smoke.json");
  }
  bench::Banner("Table 2 — time to partition 10k edges", "Table 2");

  const std::vector<std::string> specs = BackendSpecs();

  std::vector<eval::ComparisonResult> results;
  for (auto id : datasets::AllDatasets()) {
    datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
    eval::ExperimentConfig cfg;
    cfg.order = stream::StreamOrder::kBreadthFirst;
    cfg.window_size = bench::BenchWindow();
    auto source = engine::MakeEdgeSource(ds, cfg.order, cfg.stream_seed);

    eval::ComparisonResult cmp;
    cmp.dataset = ds.meta.name;
    cmp.k = cfg.k;
    cmp.stream_edges = source->SizeHint();
    if (specs.empty()) {
      for (auto s : eval::AllSystems()) {
        cmp.systems.push_back(eval::RunSystemTimingOnly(s, ds, *source, cfg));
      }
    } else {
      for (const std::string& spec : specs) {
        std::string error;
        auto r = eval::RunBackendTimingOnly(spec, ds, *source, cfg, &error);
        if (!r.has_value()) {
          std::cerr << "LOOM_BENCH_SYSTEMS: " << error << "\n";
          return 2;
        }
        cmp.systems.push_back(std::move(*r));
      }
    }
    results.push_back(std::move(cmp));
  }

  if (!specs.empty()) {
    // Custom backend selection: generic per-spec table, then the JSON dump.
    util::TableWriter t({"dataset", "backend", "ms / 10k edges", "eps",
                         "edge cut", "imbalance"});
    for (const auto& r : results) {
      for (const auto& s : r.systems) {
        t.AddRow({r.dataset, s.label,
                  util::TableWriter::Fmt(s.ms_per_10k_edges, 1),
                  util::TableWriter::Fmt(s.edges_per_sec, 0),
                  std::to_string(s.edge_cut),
                  util::TableWriter::Pct(s.imbalance)});
      }
    }
    t.Print(std::cout);
  } else {
    eval::PrintTimingTable(results, std::cout);

    // Loom's slowdown factor vs Fennel (paper: avg 2-3x, range 1.5-7.1).
    std::cout << "\nLoom / Fennel slowdown factors: ";
    for (const auto& r : results) {
      const auto* loom = r.Find(eval::System::kLoom);
      const auto* fennel = r.Find(eval::System::kFennel);
      std::cout << r.dataset << "="
                << util::TableWriter::Fmt(
                       loom->ms_per_10k_edges /
                           std::max(fennel->ms_per_10k_edges, 1e-9),
                       1)
                << "x ";
    }
    std::cout << "\n\nExpected shape (paper): Hash fastest; LDG ~ Fennel; Loom "
                 "2-3x slower on average\n(the paper reports 129-240 ms per "
                 "10k on 2016 hardware; absolute numbers differ).\n";
  }

  // ------------------------------------------------------------- JSON dump
  // Custom backend selections are not baseline-comparable: never let them
  // default onto the committed BENCH_throughput.json.
  const std::string json_path = bench::BenchJsonPath(
      specs.empty() ? "BENCH_throughput.json" : "BENCH_throughput.custom.json");
  std::ofstream jf(json_path);
  if (!jf) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  bench::JsonWriter jw(jf);
  jw.BeginObject();
  jw.Key("bench").Value("table2_throughput");
  jw.Key("scale").Value(bench::BenchScale());
  jw.Key("window").Value(static_cast<uint64_t>(bench::BenchWindow()));
  jw.Key("k").Value(8);
  jw.Key("order").Value("bfs");

  jw.Key("datasets").BeginArray();
  for (const auto& r : results) {
    jw.BeginObject();
    jw.Key("dataset").Value(r.dataset);
    jw.Key("edges").Value(static_cast<uint64_t>(r.stream_edges));
    jw.Key("systems").BeginArray();
    for (const auto& s : r.systems) WriteSystemJson(jw, s);
    jw.EndArray();
    jw.EndObject();
  }
  jw.EndArray();

  // Loom-only ingest throughput at the paper-default window (t = 10000):
  // the acceptance metric for perf PRs. Best of 3 to damp scheduler noise.
  // Skipped for custom LOOM_BENCH_SYSTEMS selections (not baseline-diffable).
  std::vector<std::pair<std::string, eval::SystemResult>> loom_at_t10k;
  if (specs.empty()) {
    jw.Key("loom_paper_window").BeginObject();
    jw.Key("window").Value(uint64_t{10000});
    jw.Key("runs").Value(3);
    jw.Key("datasets").BeginArray();
    for (auto id :
         {datasets::DatasetId::kLubm100, datasets::DatasetId::kMusicBrainz,
          datasets::DatasetId::kProvGen, datasets::DatasetId::kDblp}) {
      datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
      eval::ExperimentConfig cfg;
      cfg.order = stream::StreamOrder::kBreadthFirst;
      cfg.window_size = 10000;
      auto source = engine::MakeEdgeSource(ds, cfg.order, cfg.stream_seed);
      eval::SystemResult best;
      for (int run = 0; run < 3; ++run) {
        eval::SystemResult r =
            eval::RunSystemTimingOnly(eval::System::kLoom, ds, *source, cfg);
        if (run == 0 || r.partition_ms < best.partition_ms) best = r;
      }
      jw.BeginObject();
      jw.Key("dataset").Value(ds.meta.name);
      jw.Key("edges").Value(static_cast<uint64_t>(source->SizeHint()));
      jw.Key("loom");
      WriteSystemJson(jw, best);
      jw.EndObject();
      loom_at_t10k.emplace_back(ds.meta.name, best);
    }
    jw.EndArray();
    jw.EndObject();
  }

  // File-streamed ingest: the same paper-window loom run, but replayed
  // through io::FileEdgeSource over a freshly written binary stream file.
  // Quality must stay bit-identical to the in-memory source (the bench
  // aborts otherwise) and diff_bench.py guards the recorded triple, so the
  // file path cannot corrupt streams. Its speed is bench/e2e's to measure.
  if (specs.empty()) {
    jw.Key("file_stream").BeginObject();
    jw.Key("window").Value(uint64_t{10000});
    jw.Key("format").Value("binary");
    jw.Key("runs").Value(2);
    jw.Key("datasets").BeginArray();
    for (auto id :
         {datasets::DatasetId::kLubm100, datasets::DatasetId::kProvGen}) {
      datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
      eval::ExperimentConfig cfg;
      cfg.order = stream::StreamOrder::kBreadthFirst;
      cfg.window_size = 10000;
      const eval::SystemResult* loom_ref = nullptr;
      for (const auto& [name, r] : loom_at_t10k) {
        if (name == ds.meta.name) loom_ref = &r;
      }
      const std::string stream_path = "BENCH_file_stream.tmp.les";
      {
        auto mem_source = engine::MakeEdgeSource(ds, cfg.order, cfg.stream_seed);
        io::WriteEdgeStream(stream_path, ds.registry, ds.NumVertices(),
                            mem_source.get(), io::StreamFormat::kBinary);
      }
      io::FileEdgeSource file_source(stream_path);
      eval::SystemResult best;
      std::string error;
      for (int run = 0; run < 2; ++run) {
        auto r = eval::RunBackendTimingOnly("loom", ds, file_source, cfg,
                                            &error);
        if (!r.has_value()) {
          std::cerr << "file stream: " << error << "\n";
          return 2;
        }
        if (run == 0 || r->partition_ms < best.partition_ms) {
          best = std::move(*r);
        }
      }
      std::remove(stream_path.c_str());
      if (loom_ref != nullptr &&
          best.assignment_hash != loom_ref->assignment_hash) {
        std::cerr << "file stream: loom over " << stream_path
                  << " diverged from the in-memory source on " << ds.meta.name
                  << "\n";
        return 2;
      }
      jw.BeginObject();
      jw.Key("dataset").Value(ds.meta.name);
      jw.Key("edges").Value(static_cast<uint64_t>(file_source.SizeHint()));
      jw.Key("eps").Value(best.edges_per_sec);
      jw.Key("eps_vs_inmemory")
          .Value(loom_ref != nullptr && loom_ref->edges_per_sec > 0
                     ? best.edges_per_sec / loom_ref->edges_per_sec
                     : 0.0);
      jw.Key("edge_cut").Value(static_cast<uint64_t>(best.edge_cut));
      jw.Key("imbalance").Value(best.imbalance);
      jw.Key("assignment_hash").HexValue(best.assignment_hash);
      jw.EndObject();
    }
    jw.EndArray();
    jw.EndObject();
  }

  // The streaming edge-partitioning gauntlet (ROADMAP item 2): HDRF and
  // DBH over the four Table 1 datasets, via engine::Session like every
  // other cell. Their quality triple is (replication factor, edge balance,
  // edge assignment hash) — WriteSystemJson emits it alongside the
  // vertex-derived fields, and diff_bench.py exact-compares all of them.
  if (specs.empty()) {
    jw.Key("edge_partitioners").BeginObject();
    jw.Key("runs").Value(2);
    jw.Key("datasets").BeginArray();
    for (auto id :
         {datasets::DatasetId::kLubm100, datasets::DatasetId::kMusicBrainz,
          datasets::DatasetId::kProvGen, datasets::DatasetId::kDblp}) {
      datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
      eval::ExperimentConfig cfg;
      cfg.order = stream::StreamOrder::kBreadthFirst;
      auto source = engine::MakeEdgeSource(ds, cfg.order, cfg.stream_seed);
      jw.BeginObject();
      jw.Key("dataset").Value(ds.meta.name);
      jw.Key("edges").Value(static_cast<uint64_t>(source->SizeHint()));
      jw.Key("systems").BeginArray();
      for (const std::string& spec :
           {std::string("hdrf:lambda=1.1"), std::string("dbh"),
            std::string("hep:threshold_factor=4")}) {
        std::string error;
        eval::SystemResult best;
        for (int run = 0; run < 2; ++run) {
          auto r = eval::RunBackendTimingOnly(spec, ds, *source, cfg, &error);
          if (!r.has_value()) {
            std::cerr << "edge partitioners: " << error << "\n";
            return 2;
          }
          if (run == 0 || r->partition_ms < best.partition_ms) {
            best = std::move(*r);
          }
        }
        WriteSystemJson(jw, best);
      }
      jw.EndArray();
      jw.EndObject();
    }
    jw.EndArray();
    jw.EndObject();
  }

  WriteWindowOpsJson(jw);
  jw.EndObject();
  jf << "\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
