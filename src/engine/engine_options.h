// Unified, string-addressable configuration for every partitioner backend.
//
// The paper evaluates a *family* of streaming partitioners over many
// workloads; tools, benches and the eval harness all need to construct any
// backend from the same knobs. EngineOptions is that one surface: a flat set
// of typed fields, each addressable by a stable string key, so a CLI flag
// (`--opt window_size=4000`), a bench config line or a programmatic override
// all go through the same validated code path. Unknown keys and malformed
// values produce actionable errors (the offending key, the expected type and
// range, and the list of known keys) instead of silently falling back to a
// default.
//
// Every key round-trips: ToFlat() lists each key's canonical string form,
// which Set() parses back to the identical value (doubles use
// shortest-round-trip formatting). Every backend is constructed from one
// resolved EngineOptions and ignores the keys it has no use for — "hash"
// reads only k/expected_vertices, "loom" the shared keys and its own knobs.

#ifndef LOOM_ENGINE_ENGINE_OPTIONS_H_
#define LOOM_ENGINE_ENGINE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace loom {
namespace engine {

struct EngineOptions {
  // ------------------------------------------------- shared (all backends)
  /// Number of partitions.
  uint32_t k = 8;
  /// Expected totals n and m — the standard parameterisation for this
  /// family of streaming heuristics (usually filled from the dataset).
  uint64_t expected_vertices = 0;
  uint64_t expected_edges = 0;
  /// ν: per-partition capacity is ν·n/k (Fennel's and Loom's bound; LDG and
  /// hash override it internally, as the paper describes).
  double max_imbalance = 1.1;
  /// Not an option key and unread by the library: bench/e2e/trace.cc's
  /// replica still passes it to DynamicGraph (0 = the 64-entry default).
  uint32_t adj_page = 0;
  /// Visible degree at which a vertex gets incremental per-partition tally
  /// counters (0 = 128; 4294967295 disables the cache). Speed only: the
  /// counters equal the from-scratch tallies exactly.
  uint32_t hub_threshold = 0;

  // ------------------------------------------------------------ loom knobs
  /// Sliding window size t (paper default 10k edges).
  uint64_t window_size = 10000;
  /// Motif support threshold T (paper default 40%).
  double support_threshold = 0.4;
  /// Finite-field prime p for signatures (paper: 251).
  uint32_t prime = 251;
  /// Seed for the label -> random value assignment.
  uint64_t signature_seed = 0xC0FFEE;
  /// Equal-opportunism rationing aggression α in (0, 1].
  double alpha = 2.0 / 3.0;
  /// Imbalance bound b: partitions larger than b·Smin get ration 0.
  double balance_b = 1.1;
  /// Weight of the assigned-neighbour term in Eq. 1 bids (0 = literal Eq. 1).
  double neighbor_bid_weight = 0.25;
  /// Ablation escape hatch: disable rationing entirely.
  bool disable_rationing = false;
  /// Matcher cap N (motif::MatcherConfig): step 1 extends at most 2N live
  /// matches across both endpoints, step 2 pairs at most N per endpoint.
  uint64_t max_matches_per_vertex = 64;
  /// Not an option key and unread by the library (the match list prunes
  /// itself): bench/e2e/trace.cc's replica still reads it.
  uint64_t compact_interval = 1024;

  // ---------------------------------------------------------- fennel knobs
  /// Fennel's objective exponent γ (paper evaluation: 1.5).
  double fennel_gamma = 1.5;

  // ------------------------------------- edge-partitioner knobs (hdrf/dbh)
  /// HDRF balance weight λ: 0 = pure greedy replication score, larger
  /// values push toward even edge loads (HDRF paper default 1.1).
  double lambda = 1.1;
  /// HDRF balance-term denominator guard ε (> 0).
  double epsilon = 1.0;
  /// hep: a vertex goes high-degree (streamed via the HDRF fallback, its
  /// in-memory adjacency freed) once its partial degree exceeds
  /// threshold_factor x the running mean partial degree.
  double threshold_factor = 4.0;

  friend bool operator==(const EngineOptions&, const EngineOptions&) = default;

  /// Sets the field addressed by `key` from its string form. Returns false
  /// (and fills `*error` with an actionable message) on an unknown key, a
  /// malformed value, or an out-of-range value.
  bool Set(std::string_view key, std::string_view value, std::string* error);

  /// Applies a list of "key=value" overrides in order (CLI / bench-config
  /// form). Stops at the first error.
  bool ApplyOverrides(const std::vector<std::string>& overrides,
                      std::string* error);

  /// Every known key with its current canonical value, in declaration order.
  std::vector<std::pair<std::string, std::string>> ToFlat() const;

  /// All known key names, in declaration order.
  static std::vector<std::string_view> KeyNames();

  /// Static per-key documentation row: name, type/range spec (as quoted in
  /// error messages) and a one-line description. What `loom_partition
  /// --help-opts` and the README options table render.
  struct KeyInfo {
    std::string_view name;
    std::string_view spec;
    std::string_view help;
  };

  /// Every known key's documentation, in declaration order.
  static std::vector<KeyInfo> KeyTable();
};

}  // namespace engine
}  // namespace loom

#endif  // LOOM_ENGINE_ENGINE_OPTIONS_H_
