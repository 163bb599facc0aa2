// e2e_trace — where Loom's ingest time goes, measured from the outside.
//
//   e2e_trace --workload NAME --seed N --seconds S --tmp DIR --json OUT
//             [--scale X]
//
// The benchmark does not instrument the library. Instead this binary
// rebuilds core::LoomPartitioner's pipeline from the layers' public calls,
// in the same order — batch admission probe, graph build with hub tallies,
// LDG bypass or window push + motif match, the eviction loop (collect the
// evictee's matches, equal-opportunism bids, LDG fallback, cluster
// placement, match retirement), periodic matchList compaction and the
// finalize sweep — and wraps each call in a span. Spans aggregate into a
// tree of (name, parent, calls, total_ns, self_ns), written out at the end.
//
// The replica is only trusted while it IS the pipeline: every traced rep's
// assignment hash must equal the `loom` backend's on the same stream, or
// trace.replica_match is 0 and no per-stage number is reported.
// Untraced `loom` reps and traced replica reps alternate until S seconds
// have passed; trace.overhead_ratio is the ratio of their medians.
//
// The stream and workload files for the serve probe are written to DIR
// (stream.les, workload.lw); the replica reads its edges from that file
// (io::FileEdgeSource) for lubm-rand-file and serve-dblp, from the
// in-memory graph for mb-bfs — as the end-to-end workloads do.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/equal_opportunism.h"
#include "engine/session.h"
#include "graph/dynamic_graph.h"
#include "io/assignment_sink.h"
#include "io/edge_stream_io.h"
#include "motif/match_list.h"
#include "motif/motif_matcher.h"
#include "partition/hub_tally.h"
#include "partition/ldg_partitioner.h"
#include "partition/partition_metrics.h"
#include "partition/partitioning.h"
#include "query/workload_io.h"
#include "serve/assignment_table.h"
#include "signature/label_values.h"
#include "signature/signature_calculator.h"
#include "stream/sliding_window.h"
#include "tpstry/tpstry.h"

namespace {

using namespace loom;
using namespace loom::e2e;
using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------------- spans

enum Stage : int {
  kRoot,
  kSource,
  kAdmit,
  kBuild,
  kBypass,
  kSink,
  kWindow,
  kMatch,
  kEvict,
  kCollect,
  kDecide,
  kFallback,
  kClusterAssign,
  kRetire,
  kCompact,
  kFinalize,
  kSweep,
  kNumStages
};

constexpr std::array<const char*, kNumStages> kStageName = {
    "ingest",
    "engine.source",            // EdgeSource::NextBatch
    "motif.admit",              // MotifMatcher::SingleEdgeMotif, per batch
    "graph.build",              // DynamicGraph::TouchVertex/AddEdge + hub
    "partition.ldg_bypass",     // LdgHeuristic::Choose for bypassed edges
    "io.sink",                  // AssignmentSink::Append/Flush
    "stream.window",            // SlidingWindow Push/PopOldest/Find/Remove
    "motif.match",              // MotifMatcher::OnEdgeAdded
    "core.evict",               // eviction glue (union of cluster edges)
    "motif.matchlist.collect",  // MatchList::CollectLiveWithEdge
    "core.decide",              // EqualOpportunism::DecideBids
    "partition.ldg_fallback",   // LdgHeuristic::Choose on zero-bid clusters
    "core.cluster_assign",      // placing a cluster's vertices
    "motif.matchlist.retire",   // MatchList::RemoveMatchesWithEdge
    "motif.matchlist.compact",  // MatchList::Compact
    "core.finalize",            // Finalize's window drain
    "partition.finalize_sweep"  // LdgHeuristic::ChooseForVertex sweep
};

/// Aggregated span tree: one node per (parent node, stage) path.
class Tracer {
 public:
  struct Node {
    Stage stage;
    int parent;
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t child_ns = 0;
  };

  Tracer() { nodes_.push_back({kRoot, -1}); children_.assign(kNumStages, -1); }

  int Push(Stage s) {
    const size_t slot = static_cast<size_t>(current_) * kNumStages + s;
    int idx = children_[slot];
    if (idx < 0) {
      idx = static_cast<int>(nodes_.size());
      nodes_.push_back({s, current_});
      children_[slot] = idx;
      children_.resize(nodes_.size() * kNumStages, -1);
    }
    current_ = idx;
    return idx;
  }

  void Pop(int idx, uint64_t ns) {
    Node& n = nodes_[idx];
    ++n.calls;
    n.total_ns += ns;
    if (n.parent >= 0) nodes_[n.parent].child_ns += ns;
    current_ = n.parent;
  }

  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  std::vector<Node> nodes_;
  std::vector<int> children_;  // [node * kNumStages + stage] -> node, -1
  int current_ = 0;
};

/// RAII span; a null tracer makes it free (the untraced replica run).
class Span {
 public:
  Span(Tracer* t, Stage s) : t_(t) {
    if (t_ != nullptr) {
      node_ = t_->Push(s);
      start_ = Clock::now();
    }
  }
  ~Span() {
    if (t_ != nullptr) {
      t_->Pop(node_, static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - start_)
                             .count()));
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int node_ = 0;
  Clock::time_point start_;
};

// --------------------------------------------------------------- replica

/// core::LoomPartitioner's pipeline, call for call, through public APIs
/// (see the header comment). Option mapping mirrors the engine registry's
/// "loom" factory; the hash gate catches any drift.
class ReplicaLoom {
 public:
  struct Counters {
    uint64_t edges = 0;
    uint64_t admitted = 0;
    uint64_t clusters = 0;
    uint64_t fallbacks = 0;
    uint64_t cluster_matches = 0;
  };

  ReplicaLoom(const engine::EngineOptions& o, const query::Workload& workload,
              size_t num_labels, io::AssignmentSink* sink, Tracer* tracer)
      : o_(o),
        sink_(sink),
        tracer_(tracer),
        partitioning_(o.k, o.expected_vertices, o.max_imbalance),
        seen_(o.expected_vertices, o.adj_page, 2 * o.expected_edges),
        hub_(o.k, o.hub_threshold),
        window_(o.window_size) {
    label_values_ = std::make_unique<signature::LabelValues>(
        num_labels, o.prime, o.signature_seed);
    calc_ = std::make_unique<signature::SignatureCalculator>(label_values_.get());
    trie_ = std::make_unique<tpstry::Tpstry>(calc_.get(), o.support_threshold);
    query::Workload normalised = workload;
    normalised.Normalize();
    for (const query::Query& q : normalised.queries()) {
      trie_->AddQuery(q.pattern, q.frequency);
    }
    motif::MatcherConfig mc;
    mc.max_matches_per_vertex = o.max_matches_per_vertex;
    matcher_ = std::make_unique<motif::MotifMatcher>(trie_.get(), calc_.get(), mc);
    core::EqualOpportunismConfig eo;
    eo.alpha = o.alpha;
    eo.balance_b = o.balance_b;
    eo.neighbor_bid_weight = o.neighbor_bid_weight;
    eo.disable_rationing = o.disable_rationing;
    allocator_ = std::make_unique<core::EqualOpportunism>(trie_.get(), &seen_, eo);
    const std::vector<bool> mask = trie_->MotifLabelMask(num_labels);
    motif_label_.assign(mask.begin(), mask.end());
    match_list_.ReserveEdgeSpan(o.window_size + 1);
  }

  void IngestBatch(std::span<const stream::StreamEdge> batch) {
    admit_.resize(batch.size());
    {
      Span s(tracer_, kAdmit);
      for (size_t i = 0; i < batch.size(); ++i) {
        const stream::StreamEdge& e = batch[i];
        if (std::max(e.label_u, e.label_v) >= calc_->num_labels()) {
          // The benchmark's streams carry their full label table up front;
          // LoomPartitioner's open-alphabet growth is not replicated.
          throw std::runtime_error("label outside the stream's label table");
        }
        admit_[i] = matcher_->SingleEdgeMotif(e) != nullptr;
      }
    }
    for (size_t i = 0; i < batch.size(); ++i) Ingest(batch[i], admit_[i] != 0);
  }

  void Finalize() {
    {
      Span s(tracer_, kFinalize);
      while (!window_.empty()) {
        Span e(tracer_, kEvict);
        EvictOldest();
      }
    }
    {
      Span s(tracer_, kCompact);
      match_list_.Compact();
    }
    {
      Span s(tracer_, kSweep);
      for (graph::VertexId v = 0; v < seen_.NumSlots(); ++v) {
        if (!seen_.Known(v) || partitioning_.IsAssigned(v)) continue;
        AssignVertex(v, partition::LdgHeuristic::ChooseForVertex(
                            v, seen_, partitioning_, &hub_));
      }
    }
    Span s(tracer_, kSink);
    sink_->Flush();
  }

  const partition::Partitioning& partitioning() const { return partitioning_; }
  const Counters& counters() const { return counters_; }
  const motif::MatcherStats& matcher_stats() const { return matcher_->stats(); }
  const motif::MatchPool& pool() const { return match_list_.pool(); }

 private:
  void Ingest(const stream::StreamEdge& e, bool admitted) {
    ++counters_.edges;
    {
      Span s(tracer_, kBuild);
      seen_.TouchVertex(e.u, e.label_u);
      seen_.TouchVertex(e.v, e.label_v);
      seen_.AddEdge(e.u, e.v);
      hub_.OnEdgeVisible(e.u, e.v, seen_, partitioning_);
    }
    if (!admitted) {
      Span s(tracer_, kBypass);
      AssignImmediately(e);
      return;
    }
    ++counters_.admitted;
    {
      Span s(tracer_, kWindow);
      window_.Push(e);
    }
    {
      Span s(tracer_, kMatch);
      matcher_->OnEdgeAdded(e, window_, &match_list_);
    }
    while (window_.OverCapacity()) {
      Span s(tracer_, kEvict);
      EvictOldest();
    }
    if (++since_compact_ >= o_.compact_interval) {
      Span s(tracer_, kCompact);
      match_list_.Compact();
      since_compact_ = 0;
    }
  }

  bool IsDeferred(graph::VertexId v, graph::LabelId label) {
    if (partitioning_.IsAssigned(v)) return false;
    if (label < motif_label_.size() && motif_label_[label] != 0) return true;
    return match_list_.HasLiveAt(v);
  }

  void AssignVertex(graph::VertexId v, graph::PartitionId p) {
    if (partitioning_.IsAssigned(v)) return;
    const graph::PartitionId actual = partitioning_.Assign(v, p);
    {
      Span s(tracer_, kSink);
      sink_->Append(v, actual);
    }
    hub_.OnAssign(v, actual, seen_);
  }

  void AssignImmediately(const stream::StreamEdge& e) {
    const bool place_u =
        !partitioning_.IsAssigned(e.u) && !IsDeferred(e.u, e.label_u);
    const bool place_v =
        !partitioning_.IsAssigned(e.v) && !IsDeferred(e.v, e.label_v);
    if (!place_u && !place_v) return;
    const graph::PartitionId p = partition::LdgHeuristic::Choose(
        e, seen_, partitioning_, /*had_signal=*/nullptr, &hub_);
    if (place_u) AssignVertex(e.u, p);
    if (place_v) AssignVertex(e.v, p);
  }

  void EvictOldest() {
    std::optional<stream::StreamEdge> evictee;
    {
      Span s(tracer_, kWindow);
      evictee = window_.PopOldest();
    }
    if (!evictee.has_value()) return;
    me_.clear();
    {
      Span s(tracer_, kCollect);
      match_list_.CollectLiveWithEdge(evictee->id, &me_);
    }
    if (me_.empty()) {
      {
        Span s(tracer_, kFallback);
        AssignImmediately(*evictee);
      }
      Span s(tracer_, kRetire);
      match_list_.RemoveMatchesWithEdge(evictee->id);
      return;
    }
    core::AllocationDecision decision;
    {
      Span s(tracer_, kDecide);
      decision = allocator_->DecideBids(match_list_, me_, partitioning_);
    }
    const bool used_fallback = decision.partition == graph::kNoPartition;
    if (used_fallback) {
      Span s(tracer_, kFallback);
      const graph::PartitionId fallback = partition::LdgHeuristic::Choose(
          *evictee, seen_, partitioning_, /*had_signal=*/nullptr, &hub_);
      decision.partition = partitioning_.AtCapacity(fallback)
                               ? partitioning_.LeastLoaded()
                               : fallback;
      decision.take = me_.size();
    }
    ++counters_.clusters;
    counters_.cluster_matches += me_.size();
    if (used_fallback) ++counters_.fallbacks;

    to_assign_.clear();
    for (size_t i = 0; i < decision.take; ++i) {
      const motif::Match& m = match_list_.match(me_[i]);
      to_assign_.insert(to_assign_.end(), m.edges.begin(), m.edges.end());
    }
    std::sort(to_assign_.begin(), to_assign_.end());
    to_assign_.erase(std::unique(to_assign_.begin(), to_assign_.end()),
                     to_assign_.end());
    {
      Span s(tracer_, kClusterAssign);
      for (graph::EdgeId eid : to_assign_) {
        const stream::StreamEdge* se = nullptr;
        if (eid == evictee->id) {
          se = &*evictee;
        } else {
          Span w(tracer_, kWindow);
          se = window_.Find(eid);
        }
        if (se == nullptr) continue;
        AssignVertex(se->u, decision.partition);
        AssignVertex(se->v, decision.partition);
        Span w(tracer_, kWindow);
        window_.Remove(eid);
      }
    }
    Span s(tracer_, kRetire);
    for (graph::EdgeId eid : to_assign_) match_list_.RemoveMatchesWithEdge(eid);
  }

  const engine::EngineOptions o_;
  io::AssignmentSink* sink_;
  Tracer* tracer_;
  partition::Partitioning partitioning_;
  graph::DynamicGraph seen_;
  partition::HubTallyCache hub_;
  std::unique_ptr<signature::LabelValues> label_values_;
  std::unique_ptr<signature::SignatureCalculator> calc_;
  std::unique_ptr<tpstry::Tpstry> trie_;
  std::unique_ptr<motif::MotifMatcher> matcher_;
  std::unique_ptr<core::EqualOpportunism> allocator_;
  stream::SlidingWindow window_;
  motif::MatchList match_list_;
  std::vector<uint8_t> motif_label_;
  uint64_t since_compact_ = 0;
  Counters counters_;
  std::vector<uint8_t> admit_;
  std::vector<motif::MatchHandle> me_;
  std::vector<graph::EdgeId> to_assign_;
};

// ------------------------------------------------------------------ main

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

/// The sink each workload's pipeline feeds: the file workload writes an
/// assignment file, the served one publishes into loom_serve's lookup
/// table, mb-bfs keeps placements in memory.
std::unique_ptr<io::AssignmentSink> MakeSink(Workload w,
                                             const std::string& path) {
  switch (w) {
    case Workload::kLubmRandFile:
      return std::make_unique<io::FileAssignmentSink>(path);
    case Workload::kServeDblp:
      return std::make_unique<serve::AssignmentTable>();
    case Workload::kMbBfs:
      break;
  }
  return std::make_unique<io::MemoryAssignmentSink>();
}

int Run(const Args& args) {
  Inputs in = MakeInputs(args.workload, args.seed, args.scale, 0);
  const datasets::Dataset& ds = in.ds;
  const size_t n = ds.NumVertices();
  const std::string stream_path = args.tmp + "/stream.les";
  const std::string sink_path = args.tmp + "/trace_assignments.tsv";
  WriteStreamFile(in, stream_path);
  query::WriteWorkloadFile(ds.workload, ds.registry, args.tmp + "/workload.lw");

  std::unique_ptr<engine::EdgeSource> source;
  if (args.workload == Workload::kMbBfs) {
    source = std::make_unique<engine::GraphEdgeSource>(ds.graph, in.order);
  } else {
    source = std::make_unique<io::FileEdgeSource>(stream_path);
  }
  const engine::EngineOptions options = OptionsFor(ds);
  engine::SessionConfig config;
  config.spec = "loom";
  config.options = options;
  const engine::BuildContext context{&ds.workload, ds.registry.size()};

  std::vector<Check> checks;
  uint64_t reference_hash = 0;
  std::unique_ptr<engine::Session> reference;

  // The `loom` backend itself, untraced, with the same sink type.
  auto run_loom = [&]() -> double {
    reference.reset();
    std::string error;
    reference = engine::Session::Create(config, context, &error);
    if (reference == nullptr) throw std::runtime_error(error);
    std::unique_ptr<io::AssignmentSink> sink = MakeSink(args.workload, sink_path);
    reference->AddSink(sink.get());
    source->Reset();
    const double t0 = NowS();
    reference->Run(*source);
    const double wall = NowS() - t0;
    reference_hash = partition::AssignmentHash(reference->partitioning(), n);
    return wall;
  };

  Tracer tracer;
  ReplicaLoom::Counters counters;
  motif::MatcherStats matcher_stats;
  uint64_t pool_fresh = 0, pool_reused = 0;
  bool replica_match = true;
  // One replica rep; spans accumulate into `tracer` when `traced`.
  auto run_replica = [&](bool traced) -> double {
    std::unique_ptr<io::AssignmentSink> sink = MakeSink(args.workload, sink_path);
    Tracer* t = traced ? &tracer : nullptr;
    ReplicaLoom replica(options, ds.workload, ds.registry.size(), sink.get(), t);
    std::vector<stream::StreamEdge> batch(512);  // DriveConfig's default
    source->Reset();
    const double t0 = NowS();
    {
      Span root(t, kRoot);
      for (;;) {
        size_t got = 0;
        {
          Span s(t, kSource);
          got = source->NextBatch(batch);
        }
        if (got == 0) break;
        replica.IngestBatch(std::span<const stream::StreamEdge>(batch.data(), got));
      }
      replica.Finalize();
    }
    const double wall = NowS() - t0;
    const uint64_t hash = partition::AssignmentHash(replica.partitioning(), n);
    if (hash != reference_hash) replica_match = false;
    const std::string problem = CheckAllAssigned(replica.partitioning(), n);
    if (!problem.empty()) replica_match = false;
    counters = replica.counters();
    matcher_stats = replica.matcher_stats();
    pool_fresh = replica.pool().fresh_allocations();
    pool_reused = replica.pool().reused_allocations();
    return wall;
  };

  run_loom();  // warm-up; also the hash every replica rep must reproduce
  const uint64_t first_hash = reference_hash;
  const std::string problem = CheckAllAssigned(reference->partitioning(), n);
  checks.push_back({"loom_assigned", problem.empty(), problem});
  const double untraced_replica_s = run_replica(/*traced=*/false);

  std::vector<double> loom_s, traced_s;
  const double begin = NowS();
  while (traced_s.empty() || NowS() - begin < args.seconds) {
    loom_s.push_back(run_loom());
    if (reference_hash != first_hash) {
      checks.push_back({"loom_deterministic", false, "hash changed between reps"});
    }
    traced_s.push_back(run_replica(/*traced=*/true));
  }
  const size_t reps = traced_s.size();
  std::remove(sink_path.c_str());

  // ------------------------------------------------------------ metrics
  const std::vector<Tracer::Node>& nodes = tracer.nodes();
  std::array<uint64_t, kNumStages> calls{}, total{}, self{};
  for (const Tracer::Node& node : nodes) {
    calls[node.stage] += node.calls;
    total[node.stage] += node.total_ns;
    self[node.stage] += node.total_ns - std::min(node.child_ns, node.total_ns);
  }
  const double wall_ns = static_cast<double>(total[kRoot]);
  uint64_t covered = 0;
  for (int s = kRoot + 1; s < kNumStages; ++s) covered += self[s];

  const double edges = static_cast<double>(ds.NumEdges()) * static_cast<double>(reps);
  auto per = [](uint64_t ns, double units) {
    return units > 0 ? static_cast<double>(ns) / units : 0.0;
  };
  std::vector<std::pair<std::string, double>> metrics;
  auto stage = [&](Stage s, const char* unit, double units) {
    const std::string name = kStageName[s];
    metrics.emplace_back(name + ".ns_per_" + unit, per(total[s], units));
    metrics.emplace_back(name + ".calls", static_cast<double>(calls[s]) / reps);
    metrics.emplace_back(name + ".share", wall_ns > 0 ? self[s] / wall_ns : 0.0);
  };
  stage(kSource, "edge", edges);
  stage(kSink, "call", static_cast<double>(calls[kSink]));
  stage(kAdmit, "edge", edges);
  stage(kBuild, "edge", edges);
  stage(kBypass, "call", static_cast<double>(calls[kBypass]));
  stage(kWindow, "op", static_cast<double>(calls[kWindow]));
  stage(kMatch, "edge", static_cast<double>(calls[kMatch]));
  stage(kCollect, "call", static_cast<double>(calls[kCollect]));
  stage(kRetire, "call", static_cast<double>(calls[kRetire]));
  stage(kDecide, "call", static_cast<double>(calls[kDecide]));
  stage(kFallback, "call", static_cast<double>(calls[kFallback]));
  stage(kEvict, "call", static_cast<double>(calls[kEvict]));
  stage(kClusterAssign, "call", static_cast<double>(calls[kClusterAssign]));
  metrics.emplace_back("motif.matchlist.compact_ms", total[kCompact] / 1e6 / reps);
  metrics.emplace_back("partition.finalize_sweep_ms", total[kSweep] / 1e6 / reps);

  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  metrics.emplace_back("motif.admitted_ratio",
                       ratio(counters.admitted, counters.edges));
  metrics.emplace_back("motif.join_attempts_per_admitted",
                       ratio(matcher_stats.join_attempts, matcher_stats.edges_admitted));
  metrics.emplace_back("motif.join_hit_ratio",
                       ratio(matcher_stats.join_matches, matcher_stats.join_attempts));
  metrics.emplace_back("motif.extension_matches_per_admitted",
                       ratio(matcher_stats.extension_matches,
                             matcher_stats.edges_admitted));
  metrics.emplace_back("motif.pool.reuse_ratio",
                       ratio(pool_reused, pool_fresh + pool_reused));
  metrics.emplace_back("core.cluster_size_mean",
                       ratio(counters.cluster_matches, counters.clusters));
  metrics.emplace_back("core.fallback_ratio",
                       ratio(counters.fallbacks, counters.clusters));

  const Quality q = MeasureQuality(ds, reference->partitioning());
  metrics.emplace_back("query.run_workload_ms", q.run_workload_ms);
  const double overhead = ratio(Median(traced_s), Median(loom_s));
  metrics.emplace_back("trace.overhead_ratio", overhead);
  metrics.emplace_back("trace.coverage", wall_ns > 0 ? covered / wall_ns : 0.0);
  metrics.emplace_back("trace.replica_match", replica_match ? 1.0 : 0.0);
  if (!replica_match) {
    // Withhold every per-stage number: they describe some other pipeline.
    metrics.erase(metrics.begin(), metrics.end() - 3);
  }

  std::ofstream out(args.json);
  Json j(out);
  j.Begin();
  j.Key("workload").Str(ToString(args.workload));
  j.Key("seed").Int(args.seed);
  j.Key("edges").Int(ds.NumEdges());
  j.Key("reps").Int(reps);
  j.Key("loom_s").BeginArray();
  for (double s : loom_s) j.Num(s);
  j.EndArray();
  j.Key("traced_replica_s").BeginArray();
  for (double s : traced_s) j.Num(s);
  j.EndArray();
  j.Key("untraced_replica_s").Num(untraced_replica_s);
  j.Key("hash").Hex(first_hash);
  j.Key("edge_cut").Int(q.edge_cut);
  j.Key("max_part_load").Num(q.max_part_load);
  j.Key("metrics").Begin();
  for (const auto& [name, value] : metrics) j.Key(name).Num(value);
  j.End();
  j.Key("spans").BeginArray();
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Tracer::Node& node = nodes[i];
    j.Begin();
    j.Key("id").Int(i);
    j.Key("name").Str(kStageName[node.stage]);
    j.Key("parent").Num(node.parent);
    j.Key("calls").Int(node.calls);
    j.Key("total_ns").Int(node.total_ns);
    j.Key("self_ns").Int(node.total_ns - std::min(node.child_ns, node.total_ns));
    j.End();
  }
  j.EndArray();
  checks.push_back({"replica_match", replica_match,
                    replica_match ? "" : "replica hash differs from loom"});
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
      std::cerr << "usage: e2e_trace --workload NAME --seed N --seconds S "
                   "--tmp DIR --json OUT [--scale X]\n";
      return 2;
    }
    return Run(args);
  } catch (const std::exception& e) {
    std::cerr << "e2e_trace: " << e.what() << "\n";
    return 1;
  }
}
