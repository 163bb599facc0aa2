// e2e_offline — the offline half of the end-to-end benchmark.
//
//   e2e_offline --workload mb-bfs|lubm-rand-file --seed N --seconds S
//               --tmp DIR --json OUT [--scale X]
//   e2e_offline --workload serve-dblp --seed N --tmp DIR --json OUT
//               [--scale X]
//
// mb-bfs streams an in-memory graph through engine::GraphEdgeSource;
// lubm-rand-file writes its stream once to a LOOMES file and replays it
// through io::FileEdgeSource into an io::FileAssignmentSink. A run measures
// kInstances graph instances drawn from the seed, one after another; each
// gets reps of engine::Session (IngestSome in 512-edge batches, then
// Finish) on a fresh Session until its share of S seconds has passed.
//
// What is reported, and why:
//   * throughput and batch latency come from each batch's BEST time over
//     the reps of its instance. Every rep does identical work, and on a
//     shared host interference only ever adds time, so the per-batch
//     minimum is the estimate of the pipeline's own cost that repeats from
//     run to run (medians of whole reps moved 10-12% between runs here);
//   * quality and peak memory are averaged over the instances, which
//     differ by a few percent from one graph instance to the next;
//   * every rep's assignment is checked: every vertex placed below k, the
//     same hash as the instance's first rep, and for the file workload the
//     sink file equal to the partitioning line for line.
//
// serve-dblp only prepares the served workload's inputs in DIR (stream
// file, workload file) and runs the offline `loom` reference over the same
// file: the driver compares the served SNAPSHOT-QUALITY against it.
//
// Results go to OUT as one JSON object; the exit status is 0 when every
// check passed.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/session.h"
#include "io/assignment_sink.h"
#include "io/edge_stream_io.h"
#include "partition/partition_metrics.h"
#include "query/workload_io.h"

namespace {

using namespace loom;
using namespace loom::e2e;

struct Args {
  Workload workload = Workload::kMbBfs;
  uint64_t seed = 1;
  double seconds = 10.0;
  double scale = 1.0;
  std::string tmp = ".";
  std::string json;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &a->workload)) return false;
    } else if (flag == "--seed") {
      a->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a->seconds = std::stod(value);
    } else if (flag == "--scale") {
      a->scale = std::stod(value);
    } else if (flag == "--tmp") {
      a->tmp = value;
    } else if (flag == "--json") {
      a->json = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->json.empty();
}

/// Graph instances per run, and reps per instance.
constexpr unsigned kInstances = 4;
constexpr size_t kMinReps = 2, kMaxReps = 32;

/// Edges per Session::IngestSome call — engine::DriveConfig's default
/// batch, so a rep makes the same IngestBatch calls Session::Run would.
constexpr size_t kBatch = 512;

/// Compares a FileAssignmentSink file with the partitioning: one
/// "<v>\t<p>" line per vertex, each vertex exactly once, each partition
/// equal to the table's.
std::string CheckSinkFile(const std::string& path,
                          const partition::Partitioning& p,
                          size_t num_vertices) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "cannot open " + path;
  std::vector<uint8_t> seen(num_vertices, 0);
  unsigned long v = 0, part = 0;
  size_t lines = 0;
  std::string error;
  while (std::fscanf(f, "%lu\t%lu\n", &v, &part) == 2) {
    ++lines;
    if (v >= num_vertices) {
      error = "vertex " + std::to_string(v) + " out of range";
      break;
    }
    if (seen[v]++ != 0) {
      error = "vertex " + std::to_string(v) + " written twice";
      break;
    }
    const graph::PartitionId table =
        p.PartitionOf(static_cast<graph::VertexId>(v));
    if (table != part) {
      error = "vertex " + std::to_string(v) + " is in partition " +
              std::to_string(part) + " in the sink but " +
              std::to_string(table) + " in the table";
      break;
    }
  }
  const bool clean_eof = std::feof(f) != 0;
  std::fclose(f);
  if (!error.empty()) return error;
  if (!clean_eof) return "malformed line after " + std::to_string(lines);
  if (lines != num_vertices) {
    return std::to_string(lines) + " lines for " +
           std::to_string(num_vertices) + " vertices";
  }
  return "";
}

/// One graph instance's measurements.
struct Instance {
  uint64_t edges = 0;
  std::vector<double> rep_s;     // ingest wall of each rep (setup excluded)
  std::vector<double> setup_s;   // Session::Create of each rep
  std::vector<double> floor_us;  // each batch's best time over the reps
  double floor_s = 0.0;          // sum of the batch floors + best Finish
  double peak_rss_mb = 0.0;
  uint64_t hash = 0;
  Quality quality;
  engine::StatCounters backend_stats;
};

Instance MeasureInstance(const Args& args, unsigned index, double budget_s,
                         std::vector<Check>* checks, uint64_t* attempted,
                         uint64_t* failed) {
  Instance out;
  Inputs in = MakeInputs(args.workload, args.seed, args.scale, index);
  const datasets::Dataset& ds = in.ds;
  const size_t n = ds.NumVertices();
  out.edges = ds.NumEdges();
  const bool file_backed = args.workload == Workload::kLubmRandFile;
  const std::string stream_path = args.tmp + "/stream.les";
  const std::string sink_path = args.tmp + "/assignments.tsv";

  std::unique_ptr<engine::EdgeSource> source;
  if (file_backed) {
    WriteStreamFile(in, stream_path);
    source = std::make_unique<io::FileEdgeSource>(stream_path);
  } else {
    source = std::make_unique<engine::GraphEdgeSource>(ds.graph, in.order);
  }
  engine::SessionConfig config;
  config.spec = "loom";
  config.options = OptionsFor(ds);
  const engine::BuildContext context{&ds.workload, ds.registry.size()};

  // Peak memory of the first rep's session above what the inputs hold.
  if (!ResetPeakRss()) {
    checks->push_back({"peak_rss_reset", false, "/proc/self/clear_refs"});
  }
  const double rss_base_mb = ProcStatusMb("VmRSS");

  std::unique_ptr<engine::Session> session;
  std::vector<double> best_batch_s;
  double best_finish_s = 1e300;
  const double begin = NowS();
  const std::string tag = "instance" + std::to_string(index) + ".rep";
  while (out.rep_s.size() < kMinReps ||
         (NowS() - begin < budget_s && out.rep_s.size() < kMaxReps)) {
    session.reset();
    std::string error;
    const double c0 = NowS();
    session = engine::Session::Create(config, context, &error);
    const double setup_s = NowS() - c0;
    if (session == nullptr) {
      checks->push_back({"session_create", false, error});
      break;
    }
    std::unique_ptr<io::FileAssignmentSink> sink;
    if (file_backed) {
      sink = std::make_unique<io::FileAssignmentSink>(sink_path);
      session->AddSink(sink.get());
    }
    source->Reset();
    size_t b = 0;
    const double r0 = NowS();
    for (;; ++b) {
      const double b0 = NowS();
      if (session->IngestSome(*source, kBatch) == 0) break;
      const double batch_s = NowS() - b0;
      if (b == best_batch_s.size()) best_batch_s.push_back(batch_s);
      best_batch_s[b] = std::min(best_batch_s[b], batch_s);
    }
    const double f0 = NowS();
    const engine::RunReport report = session->Finish();
    best_finish_s = std::min(best_finish_s, NowS() - f0);
    out.rep_s.push_back(NowS() - r0);
    out.setup_s.push_back(setup_s);
    if (out.rep_s.size() == 1) {
      out.peak_rss_mb = ProcStatusMb("VmHWM") - rss_base_mb;
    }
    sink.reset();

    const partition::Partitioning& p = session->partitioning();
    const uint64_t hash = partition::AssignmentHash(p, n);
    std::string problem = CheckAllAssigned(p, n);
    if (problem.empty() && report.edges != ds.NumEdges()) {
      problem = "ingested " + std::to_string(report.edges) + " of " +
                std::to_string(ds.NumEdges()) + " edges";
    }
    if (problem.empty() && file_backed) {
      problem = CheckSinkFile(sink_path, p, n);
      if (!problem.empty()) problem = "sink file: " + problem;
    }
    if (out.rep_s.size() == 1) out.hash = hash;
    if (problem.empty() && hash != out.hash) {
      problem = "assignment hash differs from the first rep's";
    }
    if (!problem.empty()) {
      checks->push_back({tag + std::to_string(out.rep_s.size()), false, problem});
      *failed += report.edges;
    }
    *attempted += report.edges;
    out.backend_stats = report.backend_stats;
  }

  out.floor_s = best_finish_s;
  for (double s : best_batch_s) {
    out.floor_s += s;
    out.floor_us.push_back(1e6 * s);
  }
  if (session != nullptr) out.quality = MeasureQuality(ds, session->partitioning());
  std::remove(sink_path.c_str());
  std::remove(stream_path.c_str());
  return out;
}

int RunOffline(const Args& args) {
  std::vector<Check> checks;
  std::vector<Instance> instances;
  uint64_t attempted = 0, failed = 0;
  for (unsigned i = 0; i < kInstances; ++i) {
    instances.push_back(MeasureInstance(args, i, args.seconds / kInstances,
                                        &checks, &attempted, &failed));
  }

  double edges = 0, floor_s = 0, median_rep_s = 0;
  double ipt = 0, cut = 0, load = 0, rss = 0;
  std::vector<double> floor_us, setup_s;
  for (const Instance& in : instances) {
    edges += static_cast<double>(in.edges);
    floor_s += in.floor_s;
    median_rep_s += Median(in.rep_s);
    floor_us.insert(floor_us.end(), in.floor_us.begin(), in.floor_us.end());
    setup_s.insert(setup_s.end(), in.setup_s.begin(), in.setup_s.end());
    ipt += in.quality.ipt_ratio / kInstances;
    cut += in.quality.edge_cut_ratio / kInstances;
    load += in.quality.max_part_load / kInstances;
    rss += in.peak_rss_mb / kInstances;
  }
  checks.push_back({"reps_consistent", failed == 0,
                    std::to_string(kInstances) + " instances"});

  std::ofstream out(args.json);
  Json j(out);
  j.Begin();
  j.Key("workload").Str(ToString(args.workload));
  j.Key("seed").Int(args.seed);
  j.Key("scale").Num(args.scale);
  j.Key("ingest_eps").Num(edges / floor_s);
  j.Key("ingest_eps_median_rep").Num(edges / median_rep_s);
  j.Key("batches").Int(floor_us.size());
  j.Key("ingest_p50_us").Num(Percentile(&floor_us, 0.50));
  j.Key("ingest_p90_us").Num(Percentile(&floor_us, 0.90));
  j.Key("ingest_p99_us").Num(Percentile(&floor_us, 0.99));
  j.Key("setup_s").Num(Median(setup_s));
  j.Key("peak_rss_mb").Num(rss);
  j.Key("ipt_ratio").Num(ipt);
  j.Key("edge_cut_ratio").Num(cut);
  j.Key("max_part_load").Num(load);
  j.Key("instances").BeginArray();
  for (const Instance& in : instances) {
    j.Begin();
    j.Key("edges").Int(in.edges);
    j.Key("hash").Hex(in.hash);
    j.Key("rep_s").BeginArray();
    for (double s : in.rep_s) j.Num(s);
    j.EndArray();
    j.Key("floor_s").Num(in.floor_s);
    j.Key("peak_rss_mb").Num(in.peak_rss_mb);
    j.Key("ipt_ratio").Num(in.quality.ipt_ratio);
    j.Key("edge_cut_ratio").Num(in.quality.edge_cut_ratio);
    j.Key("max_part_load").Num(in.quality.max_part_load);
    j.Key("run_workload_ms").Num(in.quality.run_workload_ms);
    j.Key("backend_stats").Begin();
    for (const auto& [name, value] : in.backend_stats) j.Key(name).Int(value);
    j.End();
    j.End();
  }
  j.EndArray();
  j.Key("attempted").Int(attempted);
  j.Key("failed").Int(failed);
  WriteChecks(&j, checks);
  WriteHost(&j);
  j.End();
  out << "\n";
  for (const Check& c : checks) {
    if (!c.ok) return 1;
  }
  return 0;
}

int PrepareServe(const Args& args) {
  Inputs in = MakeInputs(args.workload, args.seed, args.scale, 0);
  const datasets::Dataset& ds = in.ds;
  const std::string stream_path = args.tmp + "/stream.les";
  WriteStreamFile(in, stream_path);
  query::WriteWorkloadFile(ds.workload, ds.registry, args.tmp + "/workload.lw");

  // The offline reference over the very file the server is fed.
  engine::SessionConfig config;
  config.spec = "loom";
  config.options = OptionsFor(ds);
  std::string error;
  auto session = engine::Session::Create(
      config, {&ds.workload, ds.registry.size()}, &error);
  std::vector<Check> checks;
  Quality q;
  if (session == nullptr) {
    checks.push_back({"session_create", false, error});
  } else {
    io::FileEdgeSource source(stream_path);
    const engine::RunReport report = session->Run(source);
    const std::string problem =
        CheckAllAssigned(session->partitioning(), ds.NumVertices());
    checks.push_back({"reference_assigned", problem.empty(), problem});
    checks.push_back({"reference_edges", report.edges == ds.NumEdges(),
                      std::to_string(report.edges) + " edges"});
    q = MeasureQuality(ds, session->partitioning());
  }

  std::ofstream out(args.json);
  Json j(out);
  j.Begin();
  j.Key("workload").Str(ToString(args.workload));
  j.Key("seed").Int(args.seed);
  j.Key("scale").Num(args.scale);
  j.Key("vertices").Int(ds.NumVertices());
  j.Key("edges").Int(ds.NumEdges());
  j.Key("hash").Hex(q.hash);
  j.Key("edge_cut").Int(q.edge_cut);
  j.Key("ipt_ratio").Num(q.ipt_ratio);
  j.Key("edge_cut_ratio").Num(q.edge_cut_ratio);
  j.Key("max_part_load").Num(q.max_part_load);
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
  PinMallocPolicy();
  Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) {
      std::cerr << "usage: e2e_offline --workload NAME --seed N --seconds S "
                   "--tmp DIR --json OUT [--scale X]\n";
      return 2;
    }
    return args.workload == Workload::kServeDblp ? PrepareServe(args)
                                                 : RunOffline(args);
  } catch (const std::exception& e) {
    std::cerr << "e2e_offline: " << e.what() << "\n";
    return 1;
  }
}
