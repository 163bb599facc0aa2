#include "engine/engine_options.h"

#include <charconv>
#include <cmath>

namespace loom {
namespace engine {

namespace {

// ------------------------------------------------------- parse / format

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  // Accept 0x-prefixed hex (seeds are conventionally written that way).
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    s.remove_prefix(2);
  }
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, base);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  double v = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseBool(std::string_view s, bool* out) {
  if (s == "true" || s == "1" || s == "yes" || s == "on") {
    *out = true;
    return true;
  }
  if (s == "false" || s == "0" || s == "no" || s == "off") {
    *out = false;
    return true;
  }
  return false;
}

std::string FormatU64(uint64_t v) { return std::to_string(v); }

/// Shortest decimal that round-trips to the identical double (C++17
/// to_chars contract) — the property the registry tests pin down.
std::string FormatDouble(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("nan");
}

std::string FormatBool(bool v) { return v ? "true" : "false"; }

// ----------------------------------------------------------- key table

struct KeyDesc {
  std::string_view name;
  /// Type and legal range, quoted verbatim in error messages.
  std::string_view spec;
  /// One-line description for --help-opts / the README options table.
  std::string_view help;
  std::string (*get)(const EngineOptions&);
  bool (*set)(EngineOptions&, std::string_view);
};

// One entry per EngineOptions field except adj_page, in declaration order.
// Range checks live in the setters so every construction path (CLI, bench
// config, programmatic ApplyOverrides) rejects the same inputs.
const KeyDesc kKeys[] = {
    {"k", "uint, >= 1",
     "number of partitions",
     [](const EngineOptions& o) { return FormatU64(o.k); },
     [](EngineOptions& o, std::string_view v) {
       uint64_t x;
       if (!ParseU64(v, &x) || x < 1 || x > UINT32_MAX) return false;
       o.k = static_cast<uint32_t>(x);
       return true;
     }},
    {"expected_vertices", "uint",
     "expected vertex total n (sizes tables and capacity bounds)",
     [](const EngineOptions& o) { return FormatU64(o.expected_vertices); },
     [](EngineOptions& o, std::string_view v) {
       return ParseU64(v, &o.expected_vertices);
     }},
    {"expected_edges", "uint",
     "expected edge total m (Fennel's objective; adjacency pre-sizing)",
     [](const EngineOptions& o) { return FormatU64(o.expected_edges); },
     [](EngineOptions& o, std::string_view v) {
       return ParseU64(v, &o.expected_edges);
     }},
    {"max_imbalance", "float, >= 1.0",
     "nu: per-partition vertex capacity is nu*n/k",
     [](const EngineOptions& o) { return FormatDouble(o.max_imbalance); },
     [](EngineOptions& o, std::string_view v) {
       double x;
       if (!ParseDouble(v, &x) || x < 1.0) return false;
       o.max_imbalance = x;
       return true;
     }},
    {"hub_threshold", "uint (0 = default)",
     "degree at which LDG tallies go incremental; speed only, never quality",
     [](const EngineOptions& o) { return FormatU64(o.hub_threshold); },
     [](EngineOptions& o, std::string_view v) {
       uint64_t x;
       if (!ParseU64(v, &x) || x > UINT32_MAX) return false;
       o.hub_threshold = static_cast<uint32_t>(x);
       return true;
     }},
    {"window_size", "uint, >= 1",
     "loom: sliding window size t (paper default 10000 edges)",
     [](const EngineOptions& o) { return FormatU64(o.window_size); },
     [](EngineOptions& o, std::string_view v) {
       uint64_t x;
       if (!ParseU64(v, &x) || x < 1) return false;
       o.window_size = x;
       return true;
     }},
    {"support_threshold", "float in [0, 1]",
     "loom: motif support threshold T (paper default 0.4)",
     [](const EngineOptions& o) { return FormatDouble(o.support_threshold); },
     [](EngineOptions& o, std::string_view v) {
       double x;
       if (!ParseDouble(v, &x) || x < 0.0 || x > 1.0) return false;
       o.support_threshold = x;
       return true;
     }},
    {"prime", "uint, >= 2",
     "loom: finite-field prime p for signatures (paper: 251)",
     [](const EngineOptions& o) { return FormatU64(o.prime); },
     [](EngineOptions& o, std::string_view v) {
       uint64_t x;
       if (!ParseU64(v, &x) || x < 2 || x > UINT32_MAX) return false;
       o.prime = static_cast<uint32_t>(x);
       return true;
     }},
    {"signature_seed", "uint (decimal or 0x hex)",
     "loom: seed for the label -> random signature value draws",
     [](const EngineOptions& o) { return FormatU64(o.signature_seed); },
     [](EngineOptions& o, std::string_view v) {
       return ParseU64(v, &o.signature_seed);
     }},
    {"alpha", "float in (0, 1]",
     "loom: equal-opportunism rationing aggression (Eq. 2)",
     [](const EngineOptions& o) { return FormatDouble(o.alpha); },
     [](EngineOptions& o, std::string_view v) {
       double x;
       if (!ParseDouble(v, &x) || x <= 0.0 || x > 1.0) return false;
       o.alpha = x;
       return true;
     }},
    {"balance_b", "float, >= 1.0",
     "loom: partitions larger than b*Smin get ration 0",
     [](const EngineOptions& o) { return FormatDouble(o.balance_b); },
     [](EngineOptions& o, std::string_view v) {
       double x;
       if (!ParseDouble(v, &x) || x < 1.0) return false;
       o.balance_b = x;
       return true;
     }},
    {"neighbor_bid_weight", "float, >= 0",
     "loom: weight of the assigned-neighbour term in Eq. 1 bids",
     [](const EngineOptions& o) { return FormatDouble(o.neighbor_bid_weight); },
     [](EngineOptions& o, std::string_view v) {
       double x;
       if (!ParseDouble(v, &x) || x < 0.0) return false;
       o.neighbor_bid_weight = x;
       return true;
     }},
    {"disable_rationing", "bool (true/false)",
     "loom: ablation escape hatch disabling rationing entirely",
     [](const EngineOptions& o) { return FormatBool(o.disable_rationing); },
     [](EngineOptions& o, std::string_view v) {
       return ParseBool(v, &o.disable_rationing);
     }},
    {"max_matches_per_vertex", "uint, >= 1",
     "loom: matcher cap N per admitted edge: step 1 extends at most 2N "
     "matches across both endpoints, step 2 pairs at most N per endpoint",
     [](const EngineOptions& o) { return FormatU64(o.max_matches_per_vertex); },
     [](EngineOptions& o, std::string_view v) {
       uint64_t x;
       if (!ParseU64(v, &x) || x < 1) return false;
       o.max_matches_per_vertex = x;
       return true;
     }},
    {"fennel_gamma", "float, > 1.0",
     "fennel: objective exponent gamma (paper evaluation: 1.5)",
     [](const EngineOptions& o) { return FormatDouble(o.fennel_gamma); },
     [](EngineOptions& o, std::string_view v) {
       double x;
       if (!ParseDouble(v, &x) || x <= 1.0) return false;
       o.fennel_gamma = x;
       return true;
     }},
    {"lambda", "float, >= 0",
     "hdrf: balance weight (0 = pure greedy; HDRF paper default 1.1)",
     [](const EngineOptions& o) { return FormatDouble(o.lambda); },
     [](EngineOptions& o, std::string_view v) {
       double x;
       if (!ParseDouble(v, &x) || x < 0.0) return false;
       o.lambda = x;
       return true;
     }},
    {"epsilon", "float, > 0",
     "hdrf: balance-term denominator guard",
     [](const EngineOptions& o) { return FormatDouble(o.epsilon); },
     [](EngineOptions& o, std::string_view v) {
       double x;
       if (!ParseDouble(v, &x) || x <= 0.0) return false;
       o.epsilon = x;
       return true;
     }},
    {"threshold_factor", "float, > 0",
     "hep: high/low-degree split at threshold_factor * mean partial degree",
     [](const EngineOptions& o) { return FormatDouble(o.threshold_factor); },
     [](EngineOptions& o, std::string_view v) {
       double x;
       if (!ParseDouble(v, &x) || x <= 0.0) return false;
       o.threshold_factor = x;
       return true;
     }},
};

std::string KnownKeyList() {
  std::string out;
  for (const KeyDesc& d : kKeys) {
    if (!out.empty()) out += ", ";
    out += d.name;
  }
  return out;
}

}  // namespace

bool EngineOptions::Set(std::string_view key, std::string_view value,
                        std::string* error) {
  for (const KeyDesc& d : kKeys) {
    if (d.name != key) continue;
    if (!d.set(*this, value)) {
      if (error != nullptr) {
        *error = "invalid value '" + std::string(value) + "' for key '" +
                 std::string(key) + "' (expected " + std::string(d.spec) + ")";
      }
      return false;
    }
    return true;
  }
  if (error != nullptr) {
    *error = "unknown EngineOptions key '" + std::string(key) +
             "'; known keys: " + KnownKeyList();
  }
  return false;
}

std::string EngineOptions::Get(std::string_view key, bool* found) const {
  for (const KeyDesc& d : kKeys) {
    if (d.name == key) {
      if (found != nullptr) *found = true;
      return d.get(*this);
    }
  }
  if (found != nullptr) *found = false;
  return "";
}

bool EngineOptions::ApplyOverrides(const std::vector<std::string>& overrides,
                                   std::string* error) {
  for (const std::string& kv : overrides) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (error != nullptr) {
        *error = "malformed override '" + kv + "' (expected key=value)";
      }
      return false;
    }
    if (!Set(std::string_view(kv).substr(0, eq),
             std::string_view(kv).substr(eq + 1), error)) {
      return false;
    }
  }
  return true;
}

std::vector<std::pair<std::string, std::string>> EngineOptions::ToFlat()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(std::size(kKeys));
  for (const KeyDesc& d : kKeys) {
    out.emplace_back(std::string(d.name), d.get(*this));
  }
  return out;
}

std::vector<std::string_view> EngineOptions::KeyNames() {
  std::vector<std::string_view> out;
  out.reserve(std::size(kKeys));
  for (const KeyDesc& d : kKeys) out.push_back(d.name);
  return out;
}

std::vector<EngineOptions::KeyInfo> EngineOptions::KeyTable() {
  std::vector<KeyInfo> out;
  out.reserve(std::size(kKeys));
  for (const KeyDesc& d : kKeys) out.push_back({d.name, d.spec, d.help});
  return out;
}

}  // namespace engine
}  // namespace loom
