// Table 2: time (ms) to partition 10k edges, for every dataset (including
// LUBM-4000, which is partitioned but never queried — exactly as in the
// paper) and every system. The table and Loom's slowdown against Fennel
// are printed to stdout from one run of each cell; they are illustrations,
// not measurements (bench/e2e measures speed from repeated runs).
//
// Besides the table this binary writes BENCH_throughput.json (path
// overridable via LOOM_BENCH_JSON), a golden with no timings: for every
// cell, the partition quality on fixed seeds (assignment hash, edge-cut,
// imbalance, plus replication factor, edge balance and edge assignment
// hash for the edge partitioners) and the backend's deterministic
// final-stats counters (Loom's match-pool, matcher, eviction and cluster
// counts; the edge partitioners' raw counts). Its sections: the four paper
// systems at LOOM_BENCH_WINDOW, Loom at the paper window t = 10000, Loom
// replayed from a binary stream file (the bench aborts if the replay's
// assignment hash differs from the in-memory source's), and the edge
// partitioners. tools/run_bench.sh diffs every record against the
// committed baseline.
//
// Smoke mode: `table2_throughput --smoke [baseline.json]` runs a fixed
// tiny configuration (scale 0.05, window 1000, BFS, k=8) over every
// backend through the same runner and compares the quality triples
// byte-for-byte against the committed baseline, exiting non-zero on
// drift. Registered with ctest as `bench_smoke`, so quality drift fails
// tier-1. A missing baseline is seeded from the current run (delete
// BENCH_smoke.json and rerun to re-golden intentionally).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "datasets/dataset_registry.h"
#include "engine/edge_source.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "io/edge_stream_io.h"
#include "util/table_writer.h"

namespace {

using namespace loom;

/// One cell through eval's runner at `window` and k = 8, without queries.
/// A bad spec throws: every spec here is fixed, so that is a harness bug.
eval::SystemResult RunCell(std::string_view spec, const datasets::Dataset& ds,
                           engine::EdgeSource& source, size_t window) {
  eval::ExperimentConfig cfg;
  cfg.options.window_size = window;
  return eval::RunSystem(spec, ds, source, cfg, /*run_queries=*/false);
}

std::unique_ptr<engine::EdgeSource> BfsSource(const datasets::Dataset& ds) {
  return engine::MakeEdgeSource(ds, stream::StreamOrder::kBreadthFirst,
                                stream::kDefaultStreamSeed);
}

/// The quality fields of one cell; the edge triple only for edge backends
/// (vertex backends never set edge_balance).
void WriteQuality(bench::JsonWriter& jw, const eval::SystemResult& r) {
  jw.Key("assignment_hash").HexValue(r.assignment_hash);
  jw.Key("edge_cut").Value(static_cast<uint64_t>(r.edge_cut));
  jw.Key("imbalance").Value(r.imbalance);
  if (r.edge_balance > 0.0) {
    jw.Key("replication_factor").Value(r.replication_factor);
    jw.Key("edge_balance").Value(r.edge_balance);
    jw.Key("edge_assignment_hash").HexValue(r.edge_assignment_hash);
  }
}

/// Quality plus whatever deterministic counters the backend reported
/// through the final-stats event, except edge_assignment_hash, which
/// WriteQuality already emitted in hex (a second copy would be a
/// duplicate JSON key).
void WriteSystemJson(bench::JsonWriter& jw, const eval::SystemResult& r) {
  jw.BeginObject();
  jw.Key("system").Value(r.label);
  WriteQuality(jw, r);
  for (const auto& [name, value] : r.backend_stats) {
    if (name == "edge_assignment_hash") continue;
    jw.Key(name).Value(value);
  }
  jw.EndObject();
}

// ---------------------------------------------------------------- smoke

/// Fixed tiny-config quality sweep -> JSON string; compared byte-for-byte
/// against the committed baseline (every field is deterministic).
int RunSmoke(const std::string& baseline_path) {
  constexpr double kScale = 0.05;
  constexpr size_t kWindow = 1000;
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
  jw.Key("window").Value(uint64_t{kWindow});
  jw.Key("k").Value(8);
  jw.Key("order").Value("bfs");
  jw.Key("datasets").BeginArray();
  for (auto id : datasets::AllDatasets()) {
    datasets::Dataset ds = datasets::MakeDataset(id, kScale);
    auto source = BfsSource(ds);
    jw.BeginObject();
    jw.Key("dataset").Value(ds.meta.name);
    jw.Key("edges").Value(static_cast<uint64_t>(ds.NumEdges()));
    jw.Key("systems").BeginArray();
    for (const std::string& spec : specs) {
      jw.BeginObject();
      jw.Key("system").Value(spec);
      WriteQuality(jw, RunCell(spec, ds, *source, kWindow));
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
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return RunSmoke(argc > 2 ? argv[2] : "BENCH_smoke.json");
  }
  bench::Banner("Table 2 — time to partition 10k edges", "Table 2");

  std::vector<eval::ComparisonResult> results;
  for (auto id : datasets::AllDatasets()) {
    datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
    auto source = BfsSource(ds);
    eval::ComparisonResult cmp;
    cmp.dataset = ds.meta.name;
    cmp.stream_edges = source->SizeHint();
    for (std::string_view spec : eval::kPaperSystems) {
      cmp.systems.push_back(RunCell(spec, ds, *source, bench::BenchWindow()));
    }
    results.push_back(std::move(cmp));
  }

  eval::PrintTimingTable(results, std::cout);
  // Loom's slowdown factor vs Fennel (paper: avg 2-3x, range 1.5-7.1).
  std::cout << "\nLoom / Fennel slowdown factors: ";
  for (const auto& r : results) {
    const auto* loom = r.Find("loom");
    const auto* fennel = r.Find("fennel");
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

  // ------------------------------------------------------------- JSON dump
  const std::string json_path = bench::BenchJsonPath("BENCH_throughput.json");
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

  // Loom at the paper-default window (t = 10000, EngineOptions' default).
  constexpr size_t kPaperWindow = 10000;
  std::vector<std::pair<std::string, uint64_t>> loom_hash_at_t10k;
  jw.Key("loom_paper_window").BeginObject();
  jw.Key("window").Value(uint64_t{kPaperWindow});
  jw.Key("datasets").BeginArray();
  for (auto id :
       {datasets::DatasetId::kLubm100, datasets::DatasetId::kMusicBrainz,
        datasets::DatasetId::kProvGen, datasets::DatasetId::kDblp}) {
    datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
    auto source = BfsSource(ds);
    const eval::SystemResult r = RunCell("loom", ds, *source, kPaperWindow);
    jw.BeginObject();
    jw.Key("dataset").Value(ds.meta.name);
    jw.Key("edges").Value(static_cast<uint64_t>(source->SizeHint()));
    jw.Key("loom");
    WriteSystemJson(jw, r);
    jw.EndObject();
    loom_hash_at_t10k.emplace_back(ds.meta.name, r.assignment_hash);
  }
  jw.EndArray();
  jw.EndObject();

  // The same paper-window loom run, replayed through io::FileEdgeSource
  // over a freshly written binary stream file. Its assignments must match
  // the in-memory source's, so the file path cannot corrupt streams.
  jw.Key("file_stream").BeginObject();
  jw.Key("window").Value(uint64_t{kPaperWindow});
  jw.Key("format").Value("binary");
  jw.Key("datasets").BeginArray();
  for (auto id :
       {datasets::DatasetId::kLubm100, datasets::DatasetId::kProvGen}) {
    datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
    const std::string stream_path = "BENCH_file_stream.tmp.les";
    io::WriteEdgeStream(stream_path, ds.registry, ds.NumVertices(),
                        BfsSource(ds).get(), io::StreamFormat::kBinary);
    io::FileEdgeSource file_source(stream_path);
    const eval::SystemResult r = RunCell("loom", ds, file_source, kPaperWindow);
    std::remove(stream_path.c_str());
    for (const auto& [name, hash] : loom_hash_at_t10k) {
      if (name == ds.meta.name && hash != r.assignment_hash) {
        std::cerr << "file stream: loom over " << stream_path
                  << " diverged from the in-memory source on " << name
                  << "\n";
        return 2;
      }
    }
    jw.BeginObject();
    jw.Key("dataset").Value(ds.meta.name);
    jw.Key("edges").Value(static_cast<uint64_t>(file_source.SizeHint()));
    WriteQuality(jw, r);
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();

  // The streaming edge partitioners over the four Table 1 datasets.
  jw.Key("edge_partitioners").BeginObject();
  jw.Key("datasets").BeginArray();
  for (auto id :
       {datasets::DatasetId::kLubm100, datasets::DatasetId::kMusicBrainz,
        datasets::DatasetId::kProvGen, datasets::DatasetId::kDblp}) {
    datasets::Dataset ds = datasets::MakeDataset(id, bench::BenchScale());
    auto source = BfsSource(ds);
    jw.BeginObject();
    jw.Key("dataset").Value(ds.meta.name);
    jw.Key("edges").Value(static_cast<uint64_t>(source->SizeHint()));
    jw.Key("systems").BeginArray();
    for (const char* spec :
         {"hdrf:lambda=1.1", "dbh", "hep:threshold_factor=4"}) {
      WriteSystemJson(jw, RunCell(spec, ds, *source, kPaperWindow));
    }
    jw.EndArray();
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();

  jw.EndObject();
  jf << "\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
