// loom_partition — partition a labelled graph (or a pre-exported edge
// stream) for a workload file.
//
// Usage:
//   loom_partition --graph G.lg --workload Q.lw [--system loom] [--k 8]
//                  [--order bfs|dfs|random|canonical] [--window 10000]
//                  [--threshold 0.4] [--opt key=value]...
//                  [--seed N] [--out assignment.tsv]
//                  [--output-assignments assignment.tsv] [--evaluate]
//   loom_partition --input S.les --workload Q.lw [flags as above]
//
// Two stream sources:
//   --graph: read a graph/graph_io.h file and stream it in --order through
//     the engine's lazy GraphEdgeSource (exactly as before).
//   --input: replay a loom-edge-stream file (io/edge_stream_io.h, binary
//     or text, e.g. from `loom_generate --write-stream`) through
//     io::FileEdgeSource in bounded-memory batches — the
//     larger-than-RAM path; the arrival order is the file's, so --order
//     is ignored. Edge-cut under --evaluate is then computed by replaying
//     the stream (cut = streamed edges with endpoints apart), and workload
//     ipt — which needs the materialised graph — is skipped.
//
// Every run goes through engine::Session: backends are resolved as
// registry specs (--system accepts "name" or "name:key=value,...", --opt
// exposes every EngineOptions key, see --help-opts), assignments leave
// through an io::AssignmentSink bound to the session (--out/
// --output-assignments write the familiar "<vertex>\t<partition>" lines;
// stdout when neither is given), and the progress/final-stats lines come
// from the session's latency histogram and RunReport. Edge backends (hdrf,
// dbh, hep) can also stream per-edge placements to --edge-out as
// "<u>\t<v>\t<partition>".
//
// A third, offline mode rebalances a RECORDED edge assignment instead of
// streaming anything:
//   loom_partition --rebalance-to K --edge-assignments A.tsv
//                  [--balance-cap F] [--edge-out MERGED.tsv]
// reads a --edge-out file produced at some k', runs the split-merge pass
// (partition/edge/split_merge.h) down to K, prints the input / merged /
// naive-modulo quality triples, and optionally writes the merged
// assignment back out in the same format.

#include <algorithm>
#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <fstream>

#include "engine/session.h"
#include "graph/graph_io.h"
#include "io/assignment_sink.h"
#include "io/edge_stream_io.h"
#include "partition/edge/split_merge.h"
#include "partition/partition_metrics.h"
#include "query/workload_io.h"
#include "query/workload_runner.h"
#include "stream/stream_order.h"
#include "util/string_util.h"
#include "util/table_writer.h"

namespace {

// SIGINT/SIGTERM request a graceful stop: the drive loop polls this between
// slices, finishes the slice in flight, writes a final rotating checkpoint
// (when --checkpoint is set), flushes the sink and exits 0 with a resume
// hint — never mid-decision, never a torn output file.
volatile std::sig_atomic_t g_stop_signal = 0;

void HandleStopSignal(int sig) { g_stop_signal = sig; }

struct Args {
  std::string graph_path;
  std::string input_path;  // edge-stream file (alternative to --graph)
  std::string workload_path;
  std::string out_path;
  std::string edge_out_path;  // per-edge placements (edge backends only)
  std::string system = "loom";
  std::string order = "bfs";
  std::vector<std::string> opts;  // raw key=value overrides
  std::string checkpoint_path;    // rotating LOOMCK snapshots while driving
  std::string resume_path;        // restore this checkpoint before driving
  uint64_t checkpoint_every = 100000;  // snapshot cadence, in edges
  uint32_t k = 8;
  size_t window = 10000;
  double threshold = 0.4;
  uint64_t seed = loom::stream::kDefaultStreamSeed;
  bool evaluate = false;
  bool progress = false;  // per-slice progress + decision-latency histogram
  // Offline rebalance mode (--rebalance-to > 0 switches to it entirely).
  std::string edge_assignments_path;  // recorded --edge-out file to merge
  uint32_t rebalance_to = 0;          // target part count (0 = streaming mode)
  double balance_cap = 1.1;           // merge feasibility cap
};

// --help and --help-opts print to stdout (an explicit request, exit 0);
// usage printed on a bad command line goes to stderr.
void Usage(std::ostream& out) {
  out << "usage: loom_partition (--graph G.lg | --input S.les)\n"
         "         --workload Q.lw\n"
         "         [--system NAME | NAME:key=value,...] [--k N]\n"
         "         [--order bfs|dfs|random|canonical] [--window N]\n"
         "         [--threshold F] [--opt key=value]...\n"
         "         [--seed N] [--out FILE | --output-assignments FILE]\n"
         "         [--edge-out FILE]\n"
         "         [--checkpoint FILE] [--checkpoint-every EDGES]\n"
         "         [--resume FILE] [--evaluate] [--progress]\n"
         "         [--help-opts]\n"
         "       loom_partition --rebalance-to K\n"
         "         --edge-assignments A.tsv [--balance-cap F]\n"
         "         [--edge-out MERGED.tsv]\n"
         "signals:\n"
         "  SIGINT/SIGTERM stop gracefully: the slice in flight\n"
         "    finishes, a final checkpoint rotates (with --checkpoint),\n"
         "    the sink flushes, exit code 0; rerun with --resume to\n"
         "    continue bit-identically\n"
         "checkpointing:\n"
         "  --checkpoint FILE        write a LOOMCK snapshot to FILE\n"
         "    every --checkpoint-every edges (default 100000) and keep\n"
         "    the previous one at FILE.prev — a crash (even mid-commit)\n"
         "    always leaves one complete checkpoint behind\n"
         "  --resume FILE            restore FILE (falling back to\n"
         "    FILE.prev if FILE is missing or corrupt), skip the stream\n"
         "    to the saved cursor, re-emit the restored assignments and\n"
         "    keep driving; the finished run is bit-identical to an\n"
         "    uninterrupted one. Flags must match the checkpointed run.\n"
         "backends: ";
  bool first = true;
  for (const std::string& name :
       loom::engine::PartitionerRegistry::Global().Names()) {
    out << (first ? "" : ", ") << name;
    first = false;
  }
  out << "\n";
}

void UsageOpts() {
  // Both lists follow the options' declaration order.
  const auto keys = loom::engine::EngineOptions::KeyTable();
  const auto defaults = loom::engine::EngineOptions{}.ToFlat();
  std::cout << "EngineOptions keys (every --opt / spec-string key, with "
               "defaults):\n";
  for (size_t i = 0; i < keys.size(); ++i) {
    std::cout << "  " << keys[i].name << "=" << defaults[i].second << "\n"
              << "      " << keys[i].help << "  (" << keys[i].spec << ")\n";
  }
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--graph") == 0) {
      const char* v = need_value("--graph");
      if (!v) return false;
      args->graph_path = v;
    } else if (std::strcmp(argv[i], "--input") == 0) {
      const char* v = need_value("--input");
      if (!v) return false;
      args->input_path = v;
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      const char* v = need_value("--workload");
      if (!v) return false;
      args->workload_path = v;
    } else if (std::strcmp(argv[i], "--out") == 0 ||
               std::strcmp(argv[i], "--output-assignments") == 0) {
      const char* v = need_value(argv[i]);
      if (!v) return false;
      args->out_path = v;
    } else if (std::strcmp(argv[i], "--edge-out") == 0) {
      const char* v = need_value("--edge-out");
      if (!v) return false;
      args->edge_out_path = v;
    } else if (std::strcmp(argv[i], "--system") == 0) {
      const char* v = need_value("--system");
      if (!v) return false;
      args->system = v;
    } else if (std::strcmp(argv[i], "--order") == 0) {
      const char* v = need_value("--order");
      if (!v) return false;
      args->order = v;
    } else if (std::strcmp(argv[i], "--opt") == 0) {
      const char* v = need_value("--opt");
      if (!v) return false;
      args->opts.emplace_back(v);
    } else if (std::strcmp(argv[i], "--k") == 0) {
      const char* v = need_value("--k");
      if (!v) return false;
      args->k = static_cast<uint32_t>(std::stoul(v));
    } else if (std::strcmp(argv[i], "--window") == 0) {
      const char* v = need_value("--window");
      if (!v) return false;
      args->window = std::stoul(v);
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      const char* v = need_value("--threshold");
      if (!v) return false;
      // Not std::stod: it accepts "nan"/"inf", which then sail through
      // every downstream range check (NaN fails all ordered comparisons).
      if (!loom::util::ParseFiniteDouble(v, &args->threshold)) {
        std::cerr << "--threshold needs a finite number, got '" << v << "'\n";
        return false;
      }
    } else if (std::strcmp(argv[i], "--balance-cap") == 0) {
      const char* v = need_value("--balance-cap");
      if (!v) return false;
      if (!loom::util::ParseFiniteDouble(v, &args->balance_cap) ||
          args->balance_cap < 1.0) {
        std::cerr << "--balance-cap needs a finite number >= 1, got '" << v
                  << "'\n";
        return false;
      }
    } else if (std::strcmp(argv[i], "--rebalance-to") == 0) {
      const char* v = need_value("--rebalance-to");
      if (!v) return false;
      args->rebalance_to = static_cast<uint32_t>(std::stoul(v));
      if (args->rebalance_to == 0) {
        std::cerr << "--rebalance-to must be positive\n";
        return false;
      }
    } else if (std::strcmp(argv[i], "--edge-assignments") == 0) {
      const char* v = need_value("--edge-assignments");
      if (!v) return false;
      args->edge_assignments_path = v;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      const char* v = need_value("--checkpoint");
      if (!v) return false;
      args->checkpoint_path = v;
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      const char* v = need_value("--checkpoint-every");
      if (!v) return false;
      args->checkpoint_every = std::stoull(v);
      if (args->checkpoint_every == 0) {
        std::cerr << "--checkpoint-every must be positive\n";
        return false;
      }
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      const char* v = need_value("--resume");
      if (!v) return false;
      args->resume_path = v;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = need_value("--seed");
      if (!v) return false;
      args->seed = std::stoull(v);
    } else if (std::strcmp(argv[i], "--evaluate") == 0) {
      args->evaluate = true;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      args->progress = true;
    } else if (std::strcmp(argv[i], "--help-opts") == 0) {
      UsageOpts();
      std::exit(0);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      return false;
    }
  }
  if (args->rebalance_to > 0) {
    // Offline rebalance mode: no stream, no workload — just the recorded
    // assignment.
    if (args->edge_assignments_path.empty()) {
      std::cerr << "--rebalance-to needs --edge-assignments FILE (a recorded "
                   "--edge-out file)\n";
      return false;
    }
    return true;
  }
  if (args->graph_path.empty() == args->input_path.empty()) {
    std::cerr << "exactly one of --graph / --input is required\n";
    return false;
  }
  if (args->workload_path.empty()) {
    std::cerr << "--workload is required\n";
    return false;
  }
  return true;
}

void PrintTriple(const char* tag, uint32_t parts,
                 const loom::partition::edge::EdgeQuality& q) {
  std::cerr << tag << ": k=" << parts << ", replication factor "
            << loom::util::TableWriter::Fmt(q.replication_factor, 3)
            << ", edge balance "
            << loom::util::TableWriter::Fmt(q.edge_balance, 3)
            << ", edge assignment hash 0x" << std::hex
            << q.edge_assignment_hash << std::dec << "\n";
}

int RunRebalance(const Args& args) {
  using namespace loom::partition::edge;
  std::vector<EdgeAssignmentRecord> records;
  std::string error;
  if (!LoadEdgeAssignments(args.edge_assignments_path, &records, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  SplitMergeOptions options;
  options.target_k = args.rebalance_to;
  options.balance_cap = args.balance_cap;
  SplitMergeResult result;
  if (!SplitMerge(records, options, &result, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::cerr << "rebalanced " << records.size() << " edges: "
            << result.input_parts << " parts -> " << options.target_k
            << " (balance cap "
            << loom::util::TableWriter::Fmt(options.balance_cap, 2) << ")\n";
  PrintTriple("input", result.input_parts, result.input_quality);
  PrintTriple("merged", options.target_k, result.quality);
  // The strawman the greedy has to beat: fold parts together mod k.
  const EdgeQuality naive = EvaluateMerged(
      records, NaiveModuloMerge(result.input_parts, options.target_k),
      options.target_k);
  PrintTriple("naive-modulo", options.target_k, naive);
  if (!args.edge_out_path.empty()) {
    std::ofstream out(args.edge_out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot open " << args.edge_out_path << "\n";
      return 1;
    }
    for (const EdgeAssignmentRecord& rec : records) {
      out << rec.u << '\t' << rec.v << '\t'
          << result.atom_to_part[rec.partition] << '\n';
    }
    std::cerr << "merged assignment written to " << args.edge_out_path
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace loom;
  Args args;
  try {
    if (!Parse(argc, argv, &args)) {
      Usage(std::cerr);
      return 2;
    }
  } catch (const std::exception&) {
    // std::stoul/stod on a malformed numeric flag — print usage, don't
    // abort with an unhandled exception.
    std::cerr << "malformed numeric flag value\n";
    Usage(std::cerr);
    return 2;
  }

  if (args.rebalance_to > 0) {
    try {
      return RunRebalance(args);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  try {
    const bool from_file = !args.input_path.empty();

    // The stream source and its sizing. With --graph everything comes from
    // the materialised graph; with --input, from the stream file's header.
    datasets::Dataset ds;
    std::unique_ptr<engine::EdgeSource> source;
    io::FileEdgeSource* seekable = nullptr;  // set when --input (for SkipTo)
    size_t expected_vertices = 0, expected_edges = 0;
    if (from_file) {
      auto file_source = std::make_unique<io::FileEdgeSource>(args.input_path);
      const io::EdgeStreamInfo& info = file_source->info();
      std::string error;
      if (!file_source->InternLabels(&ds.registry, &error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
      expected_vertices = info.vertex_count;
      expected_edges = info.edge_count;
      ds.meta.name = args.input_path;
      std::cerr << "stream: " << info.edge_count << " edges over "
                << info.vertex_count << " vertices, " << info.labels.size()
                << " labels (" << io::ToString(info.format) << ")\n";
      seekable = file_source.get();
      source = std::move(file_source);
    } else {
      ds.meta.name = args.graph_path;
      ds.graph = graph::ReadGraphFile(args.graph_path, &ds.registry);
      expected_vertices = ds.NumVertices();
      expected_edges = ds.NumEdges();
      std::cerr << "graph: " << ds.NumVertices() << " vertices, "
                << ds.NumEdges() << " edges, " << ds.NumLabels()
                << " labels\n";
      stream::StreamOrder order;
      if (!stream::ParseStreamOrder(args.order, &order)) {
        std::cerr << "unknown order: " << args.order << "\n";
        return 2;
      }
      source = engine::MakeEdgeSource(ds.graph, order, args.seed);
    }
    ds.workload = query::ReadWorkloadFile(args.workload_path, &ds.registry);
    std::cerr << "workload: " << ds.workload.size() << " queries\n";

    // Dedicated flags are sugar over EngineOptions keys; --opt overrides
    // (and the --system spec's inline overrides) win in that order.
    engine::SessionConfig session_config;
    session_config.spec = args.system;
    engine::EngineOptions& options = session_config.options;
    options.k = args.k;
    options.expected_vertices = expected_vertices;
    options.expected_edges = expected_edges;
    options.window_size = args.window;
    options.support_threshold = args.threshold;
    std::string error;
    if (!options.ApplyOverrides(args.opts, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }

    engine::BuildContext context{&ds.workload, ds.registry.size()};
    std::unique_ptr<engine::Session> session;
    if (!args.resume_path.empty()) {
      // Each resume attempt needs a session built from scratch (a rejected
      // restore may have half-mutated its backend); the helper tries the
      // good slot first, then the rotation's ".prev".
      bool used_fallback = false;
      session = engine::ResumeSessionWithFallback(
          [&](std::string* err) {
            return engine::Session::Create(session_config, context, err);
          },
          args.resume_path, &error, &used_fallback);
      if (session == nullptr) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      std::cerr << "resumed from "
                << (used_fallback ? args.resume_path + ".prev"
                                  : args.resume_path)
                << " at edge " << session->edges_ingested() << "\n";
    } else {
      session = engine::Session::Create(session_config, context, &error);
      if (session == nullptr) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
    }

    // Assignments leave through a session-bound sink, in placement order —
    // nothing buffers the vertex set, so --input streams stay bounded.
    std::unique_ptr<io::AssignmentSink> sink;
    if (!args.out_path.empty()) {
      sink = std::make_unique<io::FileAssignmentSink>(args.out_path);
    } else {
      class StdoutSink : public io::AssignmentSink {
        void Append(graph::VertexId v, graph::PartitionId p) override {
          std::cout << v << '\t' << p << '\n';
        }
      };
      sink = std::make_unique<StdoutSink>();
    }
    // On resume the sink starts from scratch (a SIGKILLed run's output file
    // is at an arbitrary point): re-emit every restored placement, in
    // vertex-id order, before live assignments start appending. The full
    // output therefore covers exactly what an uninterrupted run covers —
    // compare the two as sets (sort | diff), since placement order differs.
    if (!args.resume_path.empty()) {
      const std::span<const graph::PartitionId> restored =
          session->partitioning().assignments();
      for (size_t v = 0; v < restored.size(); ++v) {
        if (restored[v] != graph::kNoPartition) {
          sink->Append(static_cast<graph::VertexId>(v), restored[v]);
        }
      }
      // Skip the stream to the saved cursor: seekable files seek, other
      // sources (deterministic graph orders) replay and discard.
      const uint64_t start = session->edges_ingested();
      if (seekable != nullptr) {
        seekable->SkipTo(start);
      } else {
        std::vector<stream::StreamEdge> scratch(4096);
        uint64_t skipped = 0;
        while (skipped < start) {
          const size_t want = static_cast<size_t>(
              std::min<uint64_t>(scratch.size(), start - skipped));
          const size_t n = source->NextBatch(
              std::span<stream::StreamEdge>(scratch.data(), want));
          if (n == 0) {
            std::cerr << "error: stream ran dry at edge " << skipped
                      << " while skipping to the checkpoint cursor " << start
                      << " (different --graph/--order/--seed than the "
                         "checkpointed run?)\n";
            return 1;
          }
          skipped += n;
        }
      }
    }
    session->AddSink(sink.get());
    // Edge backends (hdrf, dbh) additionally place every EDGE; --edge-out
    // captures those placements as "<u>\t<v>\t<partition>" lines. Unlike
    // vertex assignments, per-edge history is not part of checkpoint state,
    // so on --resume the file only holds post-resume edges.
    std::unique_ptr<io::FileEdgeAssignmentSink> edge_sink;
    if (!args.edge_out_path.empty()) {
      edge_sink = std::make_unique<io::FileEdgeAssignmentSink>(
          args.edge_out_path);
      session->AddEdgeSink(edge_sink.get());
      if (!args.resume_path.empty()) {
        std::cerr << "note: --edge-out on a resumed run only records edges "
                     "ingested after the checkpoint (per-edge history is not "
                     "checkpointed)\n";
      }
    }
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);

    // Step the stream in slices (checkpoint-sized when --checkpoint is set,
    // a polling granule otherwise), rotating a snapshot after each full
    // slice; the last (short) slice runs straight into Finish. Run() is
    // IngestSome+Finish, so reports are identical either way. The slice
    // boundary is also where SIGINT/SIGTERM is honoured.
    const uint64_t slice = args.checkpoint_path.empty()
                               ? uint64_t{1} << 16
                               : args.checkpoint_every;
    bool interrupted = false;
    for (;;) {
      if (g_stop_signal != 0) {
        interrupted = true;
        break;
      }
      const size_t n = session->IngestSome(*source, static_cast<size_t>(slice));
      if (args.progress && n > 0) {
        std::cerr << "progress: " << session->edges_ingested()
                  << " edges, latency["
                  << session->latency().Snapshot().Summary() << "]\n";
      }
      if (n < slice) break;
      if (!args.checkpoint_path.empty()) {
        if (!engine::CheckpointSessionRotating(session.get(),
                                               args.checkpoint_path, &error)) {
          std::cerr << "error: " << error << "\n";
          return 1;
        }
        std::cerr << "checkpointed " << session->edges_ingested()
                  << " edges to " << args.checkpoint_path << "\n";
      }
    }
    if (interrupted) {
      // Graceful stop: no finalize (a finalized prefix diverges from the
      // resumed full run) — checkpoint what was decided, flush, exit clean.
      if (!args.checkpoint_path.empty()) {
        if (!engine::CheckpointSessionRotating(session.get(),
                                               args.checkpoint_path, &error)) {
          std::cerr << "error: final checkpoint failed: " << error << "\n";
          return 1;
        }
      }
      sink->Flush();
      std::cerr << "interrupted by signal " << g_stop_signal << " at edge "
                << session->edges_ingested();
      if (!args.checkpoint_path.empty()) {
        std::cerr << "; checkpointed to " << args.checkpoint_path
                  << " — rerun with --resume " << args.checkpoint_path
                  << " to continue";
      }
      std::cerr << "\n";
      return 0;
    }
    engine::RunReport report = session->Finish();
    std::cerr << "partitioned " << report.edges << " edges in "
              << util::TableWriter::Fmt(report.ms, 0) << " ms ("
              << report.backend << ", k=" << session->partitioning().k()
              << ", " << report.vertices_assigned << " vertices assigned)\n";
    if (args.progress) {
      std::cerr << "decision latency (ns/edge, batch means): "
                << session->latency().Snapshot().Summary() << "\n";
    }
    // Assignment lines stream out in placement order and cover exactly the
    // vertices the stream touched — call out any the graph declared but the
    // stream never reached (isolated vertices have no placement).
    if (!from_file && report.vertices_assigned < expected_vertices) {
      std::cerr << "note: " << expected_vertices - report.vertices_assigned
                << " of " << expected_vertices
                << " vertices never appeared in the stream (isolated?) and "
                   "have no assignment line\n";
    }

    if (args.evaluate) {
      const partition::Partitioning& p = session->partitioning();
      // Edge backends: the quality triple comes from the backend's final
      // stats — replication factor (avg replicas per vertex), edge balance
      // (max part load vs perfect spread), and the placement hash.
      if (report.Stat("edge_assignments") > 0) {
        std::cerr << "replication factor: "
                  << util::TableWriter::Fmt(report.ReplicationFactor(), 3)
                  << " over " << report.Stat("vertices_seen")
                  << " vertices, edge balance "
                  << util::TableWriter::Fmt(report.EdgeBalance(p.k()), 3)
                  << ", edge assignment hash 0x" << std::hex
                  << report.Stat("edge_assignment_hash") << std::dec << "\n";
      }
      if (from_file) {
        // No materialised graph: replay the stream once more and count
        // edges whose endpoints were placed apart — the same edge cut,
        // computed stream-side in bounded memory. ipt needs the graph;
        // point at --graph for it.
        source->Reset();
        std::vector<stream::StreamEdge> batch(4096);
        size_t cut = 0, total = 0;
        for (;;) {
          const size_t n = source->NextBatch(batch);
          if (n == 0) break;
          total += n;
          for (size_t i = 0; i < n; ++i) {
            if (p.PartitionOf(batch[i].u) != p.PartitionOf(batch[i].v)) ++cut;
          }
        }
        std::cerr << "edge cut: " << cut << " / " << total << ", imbalance "
                  << util::TableWriter::Pct(partition::Imbalance(p))
                  << " (workload ipt needs --graph: streams carry no "
                     "adjacency)\n";
      } else {
        query::ExecutorConfig executor{.max_seeds = 4000,
                                       .max_matches_per_seed = 256};
        query::WorkloadResult wr =
            query::RunWorkload(ds.graph, p, ds.workload, executor);
        std::cerr << "weighted ipt: " << wr.weighted_ipt << " over "
                  << wr.weighted_traversals << " weighted traversals (ratio "
                  << util::TableWriter::Pct(wr.IptRatio()) << ")\n"
                  << "edge cut: " << partition::EdgeCut(ds.graph, p) << " / "
                  << ds.NumEdges() << ", imbalance "
                  << util::TableWriter::Pct(partition::Imbalance(p)) << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
