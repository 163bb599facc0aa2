// Shared helpers for the figure/table reproduction binaries.
//
// Scale note: every harness runs the synthetic datasets at LOOM_BENCH_SCALE
// (default 0.5) so the full suite finishes in minutes on a laptop; set the
// environment variable LOOM_BENCH_SCALE to run larger. Relative results
// (everything the paper reports) are stable across scales.

#ifndef LOOM_BENCH_BENCH_COMMON_H_
#define LOOM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace loom {
namespace bench {

inline double BenchScale(double fallback = 0.5) {
  const char* env = std::getenv("LOOM_BENCH_SCALE");
  if (env == nullptr) return fallback;
  // Finite-only parse: atof would hand back inf (inf > 0 passes the guard)
  // and the generators would spin forever sizing an infinite dataset.
  double v = 0.0;
  if (!util::ParseFiniteDouble(env, &v) || v <= 0) return fallback;
  return v;
}

inline size_t BenchWindow(size_t fallback = 4000) {
  const char* env = std::getenv("LOOM_BENCH_WINDOW");
  if (env == nullptr) return fallback;
  long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

/// Output path for machine-readable benchmark results (run_bench.sh diffs
/// this against the committed baseline).
inline std::string BenchJsonPath(const std::string& fallback) {
  const char* env = std::getenv("LOOM_BENCH_JSON");
  return env != nullptr ? env : fallback;
}

inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "(reproduces " << paper_ref
            << "; scale=" << BenchScale() << ", set LOOM_BENCH_SCALE to change)\n\n";
}

/// Minimal JSON emitter for BENCH_*.json files: objects/arrays with
/// automatic comma placement. Values are written pre-formatted; strings are
/// escaped minimally (keys/values here are identifiers and numbers).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(const std::string& k) {
    Comma();
    os_ << '"' << k << "\":";
    just_keyed_ = true;
    return *this;
  }

  JsonWriter& Value(const std::string& s) { return Raw('"' + s + '"'); }
  JsonWriter& Value(const char* s) { return Value(std::string(s)); }
  JsonWriter& Value(double v) {
    std::ostringstream tmp;
    tmp << v;
    return Raw(tmp.str());
  }
  JsonWriter& Value(uint64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Value(int v) { return Raw(std::to_string(v)); }

  /// Hex string for hashes (stable, diff-friendly).
  JsonWriter& HexValue(uint64_t v) {
    std::ostringstream tmp;
    tmp << std::hex << v;
    return Value(tmp.str());
  }

 private:
  JsonWriter& Open(char c) {
    Comma();
    os_ << c;
    need_comma_.push_back(false);
    just_keyed_ = false;
    return *this;
  }
  JsonWriter& Close(char c) {
    os_ << c;
    need_comma_.pop_back();
    if (!need_comma_.empty()) need_comma_.back() = true;
    return *this;
  }
  JsonWriter& Raw(const std::string& s) {
    Comma();
    os_ << s;
    if (!need_comma_.empty()) need_comma_.back() = true;
    just_keyed_ = false;
    return *this;
  }
  void Comma() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    if (!need_comma_.empty() && need_comma_.back()) os_ << ',';
    if (!need_comma_.empty()) need_comma_.back() = false;
  }

  std::ostream& os_;
  std::vector<bool> need_comma_;
  bool just_keyed_ = false;
};

}  // namespace bench
}  // namespace loom

#endif  // LOOM_BENCH_BENCH_COMMON_H_
