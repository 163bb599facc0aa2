#include "common.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "datasets/dataset_registry.h"
#include "datasets/dblp_generator.h"
#include "datasets/lubm_generator.h"
#include "datasets/musicbrainz_generator.h"
#include "engine/edge_source.h"
#include "graph/graph_algos.h"
#include "io/edge_stream_io.h"
#include "partition/partition_metrics.h"
#include "query/workload_runner.h"
#include "stream/stream_order.h"
#include "util/rng.h"
#include "util/simd.h"

namespace loom {
namespace e2e {

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "mb-bfs") *out = Workload::kMbBfs;
  else if (name == "lubm-rand-file") *out = Workload::kLubmRandFile;
  else if (name == "serve-dblp") *out = Workload::kServeDblp;
  else return false;
  return true;
}

std::string ToString(Workload w) {
  switch (w) {
    case Workload::kMbBfs: return "mb-bfs";
    case Workload::kLubmRandFile: return "lubm-rand-file";
    case Workload::kServeDblp: return "serve-dblp";
  }
  return "?";
}

namespace {

size_t Scaled(double base, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(base * scale)));
}

/// One generator seed per (workload, benchmark seed, instance): a
/// different graph every time, never the library's fixed default.
uint64_t GeneratorSeed(Workload w, uint64_t seed, unsigned instance) {
  util::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ULL +
                       static_cast<uint64_t>(w) * 0x100 + instance + 1);
  return mix.Next();
}

}  // namespace

Inputs MakeInputs(Workload w, uint64_t seed, double scale, unsigned instance) {
  // Sizes: MusicBrainz x8, LUBM-4000 x6 and DBLP x18 of the registry's
  // reproduction scale (datasets/dataset_registry.cc), so each timed
  // offline rep runs about two seconds on a 4-core Xeon and the served
  // stream leaves three seconds of pipelined ingest after phase A.
  Inputs in;
  datasets::DatasetId id = datasets::DatasetId::kMusicBrainz;
  const uint64_t gen_seed = GeneratorSeed(w, seed, instance);
  switch (w) {
    case Workload::kMbBfs: {
      datasets::MusicBrainzConfig cfg;
      cfg.num_albums = Scaled(18000.0 * 8, scale);
      cfg.seed = gen_seed;
      in.ds = datasets::GenerateMusicBrainz(cfg);
      id = datasets::DatasetId::kMusicBrainz;
      break;
    }
    case Workload::kLubmRandFile: {
      datasets::LubmConfig cfg;
      cfg.universities = Scaled(400.0 * 6, scale);
      cfg.seed = gen_seed;
      cfg.name = "lubm-4000";
      in.ds = datasets::GenerateLubm(cfg);
      id = datasets::DatasetId::kLubm4000;
      break;
    }
    case Workload::kServeDblp: {
      datasets::DblpConfig cfg;
      cfg.num_papers = Scaled(12000.0 * 18, scale);
      cfg.seed = gen_seed;
      in.ds = datasets::GenerateDblp(cfg);
      id = datasets::DatasetId::kDblp;
      break;
    }
  }
  // The same normalisation datasets::MakeDataset applies.
  in.ds.workload = datasets::WorkloadFor(id, &in.ds.registry);
  in.ds.graph = graph::DropIsolatedVertices(in.ds.graph);

  if (w == Workload::kLubmRandFile) {
    in.order = stream::EdgeOrderFor(in.ds.graph, stream::StreamOrder::kRandom,
                                    gen_seed ^ 0x5EED);
  } else {
    // Breadth-first from the generator's first vertex (its most popular
    // entity). Drawing the BFS root from the seed instead moved ipt_ratio
    // by up to 40% between seeds on mb-bfs — more than any regression
    // bound could absorb — while a fresh graph instance moves it by ~3%.
    in.order = stream::EdgeOrderFor(in.ds.graph,
                                    stream::StreamOrder::kBreadthFirst);
  }
  return in;
}

engine::EngineOptions OptionsFor(const datasets::Dataset& ds) {
  engine::EngineOptions o;
  o.k = 8;
  o.window_size = 10000;
  o.support_threshold = 0.4;
  o.expected_vertices = ds.NumVertices();
  o.expected_edges = ds.NumEdges();
  return o;
}

void WriteStreamFile(const Inputs& in, const std::string& path) {
  engine::GraphEdgeSource source(in.ds.graph, in.order);
  io::WriteEdgeStream(path, in.ds.registry, in.ds.NumVertices(), &source,
                      io::StreamFormat::kBinary);
}

std::string CheckAllAssigned(const partition::Partitioning& p,
                             size_t num_vertices) {
  for (size_t v = 0; v < num_vertices; ++v) {
    const graph::PartitionId part =
        p.PartitionOf(static_cast<graph::VertexId>(v));
    if (part == graph::kNoPartition || part >= p.k()) {
      return "vertex " + std::to_string(v) + " has partition " +
             (part == graph::kNoPartition ? std::string("none")
                                          : std::to_string(part));
    }
  }
  return "";
}

Quality MeasureQuality(const datasets::Dataset& ds,
                       const partition::Partitioning& p) {
  Quality q;
  q.edge_cut = partition::EdgeCut(ds.graph, p);
  q.edge_cut_ratio = ds.NumEdges() == 0 ? 0.0
                                        : static_cast<double>(q.edge_cut) /
                                              static_cast<double>(ds.NumEdges());
  q.max_part_load = 1.0 + partition::Imbalance(p);
  q.hash = partition::AssignmentHash(p, ds.NumVertices());
  const double t0 = NowS();
  const query::WorkloadResult wr = query::RunWorkload(ds.graph, p, ds.workload);
  q.run_workload_ms = 1e3 * (NowS() - t0);
  q.ipt_ratio = wr.IptRatio();
  return q;
}

double ProcStatusMb(const char* field, int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    double kb = -1;
    fields >> kb;
    return kb < 0 ? -1.0 : kb / 1024.0;
  }
  return -1.0;
}

void PinMallocPolicy() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  // Hand freed heap pages back first, so the baseline holds live data only.
  malloc_trim(0);
#endif
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------ JSON

void Json::Sep() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) os_ << ',';
    first_.back() = false;
  }
}

Json& Json::Begin() {
  Sep();
  os_ << '{';
  first_.push_back(true);
  return *this;
}

Json& Json::End() {
  os_ << '}';
  first_.pop_back();
  return *this;
}

Json& Json::BeginArray() {
  Sep();
  os_ << '[';
  first_.push_back(true);
  return *this;
}

Json& Json::EndArray() {
  os_ << ']';
  first_.pop_back();
  return *this;
}

Json& Json::Key(std::string_view k) {
  Sep();
  Quoted(k);
  os_ << ':';
  after_key_ = true;
  return *this;
}

Json& Json::Str(std::string_view s) {
  Sep();
  Quoted(s);
  return *this;
}

void Json::Quoted(std::string_view s) {
  os_ << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os_ << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os_ << buf;
    } else {
      os_ << c;
    }
  }
  os_ << '"';
}

Json& Json::Num(double v) {
  Sep();
  if (!std::isfinite(v)) {
    os_ << "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os_ << buf;
  return *this;
}

Json& Json::Int(uint64_t v) {
  Sep();
  os_ << v;
  return *this;
}

Json& Json::Bool(bool v) {
  Sep();
  os_ << (v ? "true" : "false");
  return *this;
}

Json& Json::Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return Str(buf);
}

void WriteHost(Json* j) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  j->Key("host").Begin();
  j->Key("nproc").Int(std::thread::hardware_concurrency());
  j->Key("cpu").Str(cpu);
  j->Key("compiler").Str(E2E_COMPILER);
  j->Key("cxx_flags").Str(E2E_CXX_FLAGS);
  j->Key("simd").Str(util::simd::LevelName(util::simd::ActiveLevel()));
  j->End();
}

void WriteChecks(Json* j, const std::vector<Check>& checks) {
  j->Key("checks").BeginArray();
  for (const Check& c : checks) {
    j->Begin();
    j->Key("name").Str(c.name);
    j->Key("ok").Bool(c.ok);
    j->Key("detail").Str(c.detail);
    j->End();
  }
  j->EndArray();
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace e2e
}  // namespace loom
