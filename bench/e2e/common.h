// Shared pieces of the end-to-end benchmark binaries (e2e_offline,
// e2e_trace, e2e_loadgen): the three workloads' seeded inputs, the engine
// options they run with, process-memory probes, percentiles, the host
// record and a small JSON writer. Everything here goes through the
// library's public headers only, so the benchmark measures the layers the
// way a user of them would.

#ifndef LOOM_BENCH_E2E_COMMON_H_
#define LOOM_BENCH_E2E_COMMON_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/schema.h"
#include "engine/engine_options.h"
#include "graph/types.h"
#include "partition/partitioning.h"

namespace loom {
namespace e2e {

enum class Workload { kMbBfs, kLubmRandFile, kServeDblp };

bool ParseWorkload(std::string_view name, Workload* out);
std::string ToString(Workload w);

/// A workload's generated input: the graph (with its registry and query
/// workload) and the arrival order of its edge ids.
struct Inputs {
  datasets::Dataset ds;
  std::vector<graph::EdgeId> order;
};

/// Generates graph instance `instance` of `w`'s input for `seed` at
/// `scale` (1.0 = the benchmark size; the smoke mode passes a small
/// fraction). Seed and instance drive the dataset generator's own RNG, so
/// each is a different graph of the same schema and size; mb-bfs and
/// serve-dblp stream it breadth-first from the generator's first vertex,
/// lubm-rand-file in a seeded random order. Same arguments, same bytes.
Inputs MakeInputs(Workload w, uint64_t seed, double scale, unsigned instance);

/// The paper defaults the benchmark runs at (k=8, t=10000, T=0.4), sized
/// for `ds`.
engine::EngineOptions OptionsFor(const datasets::Dataset& ds);

/// Writes `in` in arrival order as a binary LOOMES stream file — what
/// loom_serve and the file workload read.
void WriteStreamFile(const Inputs& in, const std::string& path);

/// Fails (returns a description) unless every vertex of the graph is
/// assigned to a partition id below k; empty string when all are.
std::string CheckAllAssigned(const partition::Partitioning& p,
                             size_t num_vertices);

/// Quality of a finished partitioning: workload-weighted ipt share
/// (query::RunWorkload), edge-cut share and the largest partition relative
/// to the mean (1 + imbalance).
struct Quality {
  double ipt_ratio = 0.0;
  double edge_cut_ratio = 0.0;
  double max_part_load = 0.0;
  uint64_t edge_cut = 0;
  uint64_t hash = 0;
  double run_workload_ms = 0.0;
};
Quality MeasureQuality(const datasets::Dataset& ds,
                       const partition::Partitioning& p);

// ------------------------------------------------------------- processes

/// A "VmRSS"/"VmHWM"-style field of /proc/<pid>/status in MB (pid 0 = this
/// process); -1 when unavailable.
double ProcStatusMb(const char* field, int pid = 0);

/// Returns freed heap memory to the OS, then resets this process's peak-RSS
/// counter (VmHWM) to the current RSS; false where the kernel does not
/// allow the reset.
bool ResetPeakRss();

/// Pins glibc's mmap threshold at its initial 128 KiB (no-op elsewhere).
/// By default glibc raises the threshold after the first large free, from
/// then on large buffers come from the heap and are reused resident — so
/// the first sessions of a process ran slower than later ones and peak-RSS
/// readings depended on what was freed before. Pinned, every session maps
/// and unmaps its large buffers the same way.
void PinMallocPolicy();

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile (q in [0,1]) of `v`; sorts `v`. 0 when empty.
double Percentile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

// ------------------------------------------------------------------ JSON

/// Minimal streaming JSON writer: Key() then a value, objects and arrays
/// nest, commas are placed automatically. Doubles keep 17 significant
/// digits (measured values are reported with all their digits).
class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {}

  Json& Begin();       // {
  Json& End();         // }
  Json& BeginArray();  // [
  Json& EndArray();    // ]
  Json& Key(std::string_view k);
  Json& Str(std::string_view s);
  Json& Num(double v);
  Json& Int(uint64_t v);
  Json& Bool(bool v);
  Json& Hex(uint64_t v);

 private:
  void Sep();
  void Quoted(std::string_view s);
  std::ostream& os_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// Writes the host record every results file carries: nproc, CPU model,
/// compiler and flags of this build, and the active util::simd level.
void WriteHost(Json* j);

/// One named pass/fail check with its detail, collected by each binary and
/// reported in its JSON; the driver fails the run on any false.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};
void WriteChecks(Json* j, const std::vector<Check>& checks);

/// steady_clock seconds since an arbitrary epoch.
double NowS();

}  // namespace e2e
}  // namespace loom

#endif  // LOOM_BENCH_E2E_COMMON_H_
