// loom_serve — loom as a long-lived partitioning service.
//
// Usage:
//   loom_serve --socket /tmp/loom.sock --workload Q.lw --like S.les
//              [--system loom] [--k 8] [--window 10000] [--threshold 0.4]
//              [--opt key=value]...
//              [--checkpoint FILE] [--checkpoint-every EDGES]
//              [--resume FILE] [--ingest-log FILE] [--tail S.les]
//              [--out assignment.tsv]
//
// The process owns one engine::Session and serves the newline protocol
// (serve/protocol.h) on the unix-domain socket: INGEST from any number of
// concurrent writers, GET/STATS answered wait-free while ingest continues,
// CHECKPOINT/FINALIZE/SNAPSHOT-QUALITY serialised through the decision
// thread. `--tail` additionally follows a growing LOOMES file as a
// producer. Drive it with tools/loom_ctl.
//
// --like S.les reads ONLY the header of an edge-stream file to fix the
// label table and the expected vertex bound — the service must agree with
// its clients on label ids, and a stream file both sides share is the
// natural contract. No edges are read from it.
//
// Shutdown: SIGINT/SIGTERM (or a client's SHUTDOWN command) drain the
// ingest queue, write a final rotating checkpoint (with --checkpoint),
// close the ingest log and exit 0. SIGKILL loses only what a checkpoint
// has not covered — restart with --resume and re-send from the STATS
// edges= cursor.

#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "io/assignment_sink.h"
#include "io/edge_stream_io.h"
#include "query/workload_io.h"
#include "serve/server.h"
#include "util/string_util.h"

namespace {

volatile std::sig_atomic_t g_stop_signal = 0;

void HandleStopSignal(int sig) { g_stop_signal = sig; }

struct Args {
  std::string socket_path;
  std::string workload_path;
  std::string like_path;  // edge-stream header: label table + vertex bound
  std::string out_path;
  std::string system = "loom";
  std::vector<std::string> opts;
  std::string checkpoint_path;
  std::string resume_path;
  std::string ingest_log_path;
  std::string tail_path;
  uint64_t checkpoint_every = 0;
  uint32_t k = 8;
  size_t window = 10000;
  double threshold = 0.4;
};

// --help prints to stdout (an explicit request, exit 0); usage printed on a
// bad command line goes to stderr.
void Usage(std::ostream& out) {
  out << "usage: loom_serve --socket PATH --workload Q.lw --like S.les\n"
         "         [--system NAME | NAME:key=value,...] [--k N]\n"
         "         [--window N] [--threshold F] [--opt key=value]...\n"
         "         [--checkpoint FILE]\n"
         "         [--checkpoint-every EDGES] [--resume FILE]\n"
         "         [--ingest-log FILE] [--tail S.les] [--out FILE]\n"
         "protocol (newline-delimited over the unix socket):\n"
         "  INGEST u v lu lv | GET v | STATS | CHECKPOINT | FINALIZE |\n"
         "  SNAPSHOT-QUALITY | SHUTDOWN\n"
         "SIGINT/SIGTERM or SHUTDOWN drain gracefully (final checkpoint,\n"
         "flushed sinks, exit 0).\n";
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
    auto take = [&](const char* flag, std::string* out) -> bool {
      const char* v = need_value(flag);
      if (!v) return false;
      *out = v;
      return true;
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      if (!take("--socket", &args->socket_path)) return false;
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      if (!take("--workload", &args->workload_path)) return false;
    } else if (std::strcmp(argv[i], "--like") == 0) {
      if (!take("--like", &args->like_path)) return false;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (!take("--out", &args->out_path)) return false;
    } else if (std::strcmp(argv[i], "--system") == 0) {
      if (!take("--system", &args->system)) return false;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      if (!take("--checkpoint", &args->checkpoint_path)) return false;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      if (!take("--resume", &args->resume_path)) return false;
    } else if (std::strcmp(argv[i], "--ingest-log") == 0) {
      if (!take("--ingest-log", &args->ingest_log_path)) return false;
    } else if (std::strcmp(argv[i], "--tail") == 0) {
      if (!take("--tail", &args->tail_path)) return false;
    } else if (std::strcmp(argv[i], "--opt") == 0) {
      const char* v = need_value("--opt");
      if (!v) return false;
      args->opts.emplace_back(v);
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      const char* v = need_value("--checkpoint-every");
      if (!v) return false;
      args->checkpoint_every = std::stoull(v);
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
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      return false;
    }
  }
  if (args->socket_path.empty() && args->tail_path.empty()) {
    std::cerr << "--socket (and/or --tail) is required\n";
    return false;
  }
  if (args->workload_path.empty() || args->like_path.empty()) {
    std::cerr << "--workload and --like are required\n";
    return false;
  }
  if (args->checkpoint_every > 0 && args->checkpoint_path.empty()) {
    std::cerr << "--checkpoint-every needs --checkpoint\n";
    return false;
  }
  return true;
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
    std::cerr << "malformed numeric flag value\n";
    Usage(std::cerr);
    return 2;
  }

  try {
    // Label table + sizing from the --like stream's header; the workload is
    // interned into the SAME registry so query labels resolve to the ids
    // clients will send.
    graph::LabelRegistry registry;
    size_t expected_vertices = 0, expected_edges = 0;
    {
      io::FileEdgeSource like(args.like_path);
      std::string error;
      if (!like.InternLabels(&registry, &error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
      expected_vertices = like.info().vertex_count;
      expected_edges = like.info().edge_count;
    }
    query::Workload workload =
        query::ReadWorkloadFile(args.workload_path, &registry);
    std::cerr << "loom_serve: " << expected_vertices << " vertices, "
              << registry.size() << " labels (from " << args.like_path
              << "), " << workload.size() << " queries\n";

    serve::ServerConfig config;
    config.socket_path = args.socket_path;
    config.checkpoint_path = args.checkpoint_path;
    config.checkpoint_every = args.checkpoint_every;
    config.resume_path = args.resume_path;
    config.ingest_log_path = args.ingest_log_path;
    config.tail_path = args.tail_path;
    config.registry = &registry;
    config.session.spec = args.system;
    engine::EngineOptions& options = config.session.options;
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

    engine::BuildContext context{&workload, registry.size()};
    std::unique_ptr<serve::Server> server =
        serve::Server::Create(config, context, &error);
    if (server == nullptr) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    if (!args.resume_path.empty()) {
      std::cerr << "loom_serve: resumed at edge "
                << server->session().edges_ingested() << "\n";
    }
    // Optional TSV sink rides the same fanout as the in-memory table; its
    // file is complete only after a graceful shutdown.
    std::unique_ptr<io::FileAssignmentSink> out_sink;
    if (!args.out_path.empty()) {
      out_sink = std::make_unique<io::FileAssignmentSink>(args.out_path);
      // On resume the file starts from scratch: re-emit every restored
      // placement first (live assignments only cover the post-resume
      // stream), so the finished file covers what an uninterrupted serve
      // covers — compare as sets, placement order differs.
      if (!args.resume_path.empty()) {
        const std::span<const graph::PartitionId> restored =
            server->session().partitioning().assignments();
        for (size_t v = 0; v < restored.size(); ++v) {
          if (restored[v] != graph::kNoPartition) {
            out_sink->Append(static_cast<graph::VertexId>(v), restored[v]);
          }
        }
      }
      server->session().AddSink(out_sink.get());
    }

    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    std::signal(SIGPIPE, SIG_IGN);

    server->Start();
    if (!args.socket_path.empty()) {
      std::cerr << "loom_serve: listening on " << args.socket_path << "\n";
    }
    if (!args.tail_path.empty()) {
      std::cerr << "loom_serve: tailing " << args.tail_path << "\n";
    }

    while (g_stop_signal == 0 && !server->shutdown_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cerr << "loom_serve: "
              << (g_stop_signal != 0 ? "signal" : "SHUTDOWN command")
              << " received, draining\n";
    server->Shutdown();
    if (out_sink != nullptr) out_sink->Flush();
    std::cerr << "loom_serve: stopped after "
              << server->edges_ingested() << " edges ("
              << server->table().assigned() << " vertices assigned, cut "
              << server->tracker().cut() << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
