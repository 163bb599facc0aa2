// LoomPartitioner's checkpoint codec.
//
// Sections written:
//   "loom"      — options fingerprint (every knob that steers a decision,
//                 doubles as bit patterns), label-space ctor/current counts,
//                 and a TPSTry++ support fingerprint (workload drift check)
//   "loom_stats"— LoomStats + MatcherStats counters
//   "partition" — the partition table (Partitioning::SaveTo)
//   "window"    — live sliding-window edges (SlidingWindow::SaveTo)
//   "matches"   — match pool + postings (MatchList::SaveTo)
//   "seen_graph"— the streamed-so-far adjacency (DynamicGraph::SaveTo)
//
// Restore verifies the fingerprint field-by-field (first differing knob is
// named in the error), rejects label-space mismatches, then loads the
// component sections and re-fits the open-alphabet tables to the label
// count the checkpointed run had grown to.

#include <cassert>
#include <cstring>
#include <string>

#include "core/loom_partitioner.h"

namespace loom {
namespace core {

namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}

/// FNV-1a over the trie's structure-relevant numbers: node count, per-node
/// (support bits, num_edges), threshold and normalising total. Two runs with
/// the same workload and options produce identical tries, so any difference
/// here means the resumed process was handed a drifted workload — its
/// admission/allocation decisions would silently diverge from the
/// checkpointed run's.
uint64_t TrieFingerprint(const tpstry::Tpstry& trie) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  mix(trie.NumNodes());
  mix(Bits(trie.support_threshold()));
  mix(Bits(trie.total_frequency()));
  for (uint32_t id = 0; id < trie.NumNodes(); ++id) {
    const tpstry::TpsNode& n = trie.node(id);
    mix(Bits(n.support));
    mix(n.num_edges);
  }
  return h;
}

/// The decision-steering knobs, in one fixed order. Save writes each value;
/// restore reads and compares, naming the first knob that differs. Doubles
/// travel and compare as bit patterns — a fingerprint match means the
/// resumed process computes with the exact same constants.
struct Knob {
  const char* name;
  uint64_t value;
};

std::vector<Knob> Fingerprint(const LoomOptions& o) {
  return {
      {"k", o.base.k},
      {"expected_vertices", o.base.expected_vertices},
      {"expected_edges", o.base.expected_edges},
      {"max_imbalance", Bits(o.base.max_imbalance)},
      {"window_size", o.window_size},
      {"support_threshold", Bits(o.support_threshold)},
      {"prime", o.prime},
      {"signature_seed", o.signature_seed},
      {"eo_alpha", Bits(o.equal_opportunism.alpha)},
      {"eo_balance_b", Bits(o.equal_opportunism.balance_b)},
      {"eo_neighbor_bid_weight", Bits(o.equal_opportunism.neighbor_bid_weight)},
      {"eo_disable_rationing", o.equal_opportunism.disable_rationing ? 1u : 0u},
      {"matcher_max_matches_per_vertex", o.matcher.max_matches_per_vertex},
  };
}

}  // namespace

bool LoomPartitioner::SaveState(io::CheckpointWriter* w,
                                std::string* error) const {
  (void)error;
  w->BeginSection("loom");
  w->U64(ctor_num_labels_);
  w->U64(label_values_->num_labels());  // may have grown past ctor
  const std::vector<Knob> knobs = Fingerprint(options_);
  w->U32(static_cast<uint32_t>(knobs.size()));
  for (const Knob& k : knobs) {
    w->Str(k.name);
    w->U64(k.value);
  }
  w->U64(TrieFingerprint(*trie_));
  w->EndSection();

  w->BeginSection("loom_stats");
  w->U64(stats_.edges_ingested);
  w->U64(stats_.edges_bypassed);
  w->U64(stats_.evictions);
  w->U64(stats_.empty_cluster_evictions);
  w->U64(stats_.clusters_allocated);
  w->U64(stats_.fallback_clusters);
  w->U64(stats_.cluster_edges_assigned);
  const motif::MatcherStats& m = matcher_->stats();
  w->U64(m.edges_admitted);
  w->U64(m.single_edge_matches);
  w->U64(m.extension_matches);
  w->U64(m.join_matches);
  w->U64(m.join_attempts);
  w->EndSection();

  partitioning_.SaveTo(w);
  window_.SaveTo(w);
  match_list_.SaveTo(w);
  seen_.SaveTo(w, "seen_graph");
  return true;
}

bool LoomPartitioner::RestoreState(io::CheckpointReader* r,
                                   std::string* error) {
  (void)error;
  assert(stats_.edges_ingested == 0 && "restore into a fresh backend");
  r->Open("loom");
  const uint64_t ctor_labels = r->U64();
  const uint64_t grown_labels = r->U64();
  if (ctor_labels != ctor_num_labels_) {
    r->Fail("label-space mismatch: checkpointed run started from " +
            std::to_string(ctor_labels) + " labels, this run from " +
            std::to_string(ctor_num_labels_) +
            " (dataset or label registry changed; resume with the original "
            "label space)");
  }
  const std::vector<Knob> knobs = Fingerprint(options_);
  const uint32_t n_knobs = r->U32();
  if (n_knobs != knobs.size()) {
    r->Fail("options fingerprint arity mismatch (checkpoint from a build "
            "with different Loom knobs)");
  }
  for (const Knob& k : knobs) {
    const std::string name = r->Str();
    const uint64_t value = r->U64();
    if (name != k.name) {
      r->Fail("options fingerprint key order mismatch: expected '" +
              std::string(k.name) + "', checkpoint has '" + name + "'");
    }
    if (value != k.value) {
      r->Fail("options mismatch on '" + name +
              "': the resumed run is configured differently from the "
              "checkpointed one");
    }
  }
  const uint64_t trie_fp = r->U64();
  if (trie_fp != TrieFingerprint(*trie_)) {
    r->Fail("workload mismatch: the TPSTry++ support fingerprint differs "
            "(resume must use the checkpointed run's workload and support "
            "threshold)");
  }
  r->Close();

  r->Open("loom_stats");
  stats_.edges_ingested = r->U64();
  stats_.edges_bypassed = r->U64();
  stats_.evictions = r->U64();
  stats_.empty_cluster_evictions = r->U64();
  stats_.clusters_allocated = r->U64();
  stats_.fallback_clusters = r->U64();
  stats_.cluster_edges_assigned = r->U64();
  motif::MatcherStats ms;
  ms.edges_admitted = r->U64();
  ms.single_edge_matches = r->U64();
  ms.extension_matches = r->U64();
  ms.join_matches = r->U64();
  ms.join_attempts = r->U64();
  matcher_->RestoreStats(ms);
  r->Close();

  partitioning_.LoadFrom(r);
  window_.LoadFrom(r);
  match_list_.LoadFrom(r);
  seen_.LoadFrom(r, "seen_graph");

  // Replay the label growth the checkpointed run performed: the retained-RNG
  // draw sequence makes the regrown values bit-identical.
  label_values_->EnsureLabels(grown_labels);
  const size_t grown = label_values_->num_labels();
  if (grown != ctor_num_labels_) {
    // The checkpointed run had grown its alphabet: re-fit the label-sized
    // tables exactly as EnsureLabelSpace did there.
    matcher_->InvalidateMotifCache();
    const std::vector<bool> mask = trie_->MotifLabelMask(grown);
    motif_label_.assign(mask.begin(), mask.end());
  }
  return true;
}

}  // namespace core
}  // namespace loom
