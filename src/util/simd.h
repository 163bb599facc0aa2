// Runtime-dispatched SIMD kernels for the streaming hot loops.
//
// Three of Loom's per-edge costs are data-parallel over small dense arrays:
// the signature layer's finite-field residues and multiset-extension test
// (factors are uint32 residues mod p; the paper's p = 251 packs into uint8
// lanes), equal opportunism's Eq. 1 bid totals across all k partitions, and
// the LDG neighbour tally (gather the partition of every neighbour, count
// per partition). Each kernel here exists in up to three implementations —
// portable scalar, SSE2 (the x86-64 baseline) and AVX2 — selected at
// runtime.
//
// THE CONTRACT THAT MAKES THIS SAFE: every level of every kernel is
// bit-identical to the scalar implementation on every input — identical
// integers, identical doubles (same operation order per output lane, no
// FMA contraction, masked lanes contribute exactly +0.0), identical
// booleans. Partition quality therefore cannot depend on the dispatch
// level; tests/simd_kernels_test.cc proves the kernels equal on exhaustive
// small domains and seeded fuzz, and tests/simd_equivalence_test.cc proves
// whole backends hash-identical under forced-scalar vs auto dispatch.
//
// Dispatch: the process-wide active level defaults to the strongest level
// the CPU supports, overridable by the LOOM_SIMD environment variable
// ("scalar" | "sse2" | "avx2" | "auto") or the engine option key "simd"
// (applied on every PartitionerRegistry::Create — note it is process-wide,
// not per-backend-instance; harmless because all levels are equivalent).
// Requests beyond what the CPU supports clamp down with a one-time stderr
// note. Non-x86 builds compile the scalar level only.

#ifndef LOOM_UTIL_SIMD_H_
#define LOOM_UTIL_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace loom {
namespace util {
namespace simd {

enum class Level : uint8_t { kScalar = 0, kSSE2 = 1, kAVX2 = 2 };

namespace detail {
/// 0xFF = not yet resolved from LOOM_SIMD / cpuid. Relaxed atomic: readers
/// only need *a* level, and every level computes identical results.
extern std::atomic<uint8_t> g_active_level;
/// Resolves (env, cpuid), installs and returns the level. Out of line.
Level ResolveActiveLevel();
}  // namespace detail

/// Display name: "scalar" / "sse2" / "avx2".
const char* LevelName(Level level);

/// Parses "scalar" / "sse2" / "avx2"; "auto" yields the CPU's best level.
/// Returns false on anything else.
bool ParseLevel(std::string_view text, Level* out);

/// Strongest level this CPU can run (kScalar on non-x86 builds).
Level DetectCpuLevel();

/// Every level the CPU supports, weakest first (always includes kScalar).
/// Differential tests iterate this.
std::vector<Level> SupportedLevels();

/// The process-wide dispatch level. Resolved once on first use: LOOM_SIMD
/// if set (clamped to DetectCpuLevel), else DetectCpuLevel. Inline — the
/// hot wrappers below read it per call.
inline Level ActiveLevel() {
  const uint8_t v = detail::g_active_level.load(std::memory_order_relaxed);
  return v != 0xFF ? static_cast<Level>(v) : detail::ResolveActiveLevel();
}

/// Forces the active level (clamped to DetectCpuLevel; returns the level
/// actually installed). Thread-compatible with concurrent kernel calls
/// (relaxed atomic), but callers should quiesce other kernel users before
/// switching.
Level SetActiveLevel(Level level);

/// Applies an engine-option / CLI spelling: "auto" is a no-op (keep the
/// active level — the environment default until something forces one),
/// anything else goes through ParseLevel + SetActiveLevel. Returns false
/// (and leaves the level untouched) on an unknown spelling.
bool Configure(std::string_view spec);

// ---------------------------------------------------------------------------
// Kernels. Each has an explicit-level form (tests drive every level) and a
// dispatched form using ActiveLevel(). All pointers may alias only where
// noted; n == 0 is always legal.
// ---------------------------------------------------------------------------

// ---- multiset / ordered-array primitives (signature layer) ----

/// Number of elements of a[0..n) that are <= v (on sorted input this is the
/// upper_bound index).
size_t CountLessEqU32(Level level, const uint32_t* a, size_t n, uint32_t v);
size_t CountLessEqU32(const uint32_t* a, size_t n, uint32_t v);

/// memcmp-style equality of two uint32 ranges.
bool RangeEqualU32(Level level, const uint32_t* a, const uint32_t* b,
                   size_t n);
bool RangeEqualU32(const uint32_t* a, const uint32_t* b, size_t n);

/// True iff sorted `grown`[0..m) equals the sorted multiset union of sorted
/// `base`[0..n) and sorted `delta`[0..d). The hot membership test of
/// Alg. 2: child.sig == node.sig ∪ edge-addition factors. The SIMD levels
/// locate delta's insertion points with CountLessEqU32 and compare the
/// segments between them with RangeEqualU32 — one vector pass over each
/// array instead of an element-at-a-time merge walk.
bool MultisetExtendsU32(Level level, const uint32_t* base, size_t n,
                        const uint32_t* delta, size_t d, const uint32_t* grown,
                        size_t m);
bool MultisetExtendsU32(const uint32_t* base, size_t n, const uint32_t* delta,
                        size_t d, const uint32_t* grown, size_t m);

/// Writes the needles NOT present in sorted `haystack`[0..n) to out (in
/// their original order) and returns how many were written. The join
/// preamble of Alg. 2: remaining = smaller.edges \ base.edges, with match
/// edge sets capped at kMaxQueryEdges (the SIMD levels compare each needle
/// against the whole haystack in 8-lane chunks instead of binary
/// searching). out must not alias haystack; out == needles is allowed
/// (in-place filter).
size_t SortedDifferenceU32(Level level, const uint32_t* needles, size_t m,
                           const uint32_t* haystack, size_t n, uint32_t* out);
size_t SortedDifferenceU32(const uint32_t* needles, size_t m,
                           const uint32_t* haystack, size_t n, uint32_t* out);

// ---- finite-field residues (signature layer; paper regime p <= 255) ----

/// out[i] = nonzero-mod(a[i] - b[i], p): the residue in [1, p] with 0
/// mapped to p (Sec. 2.1 edge factors). Requires p in [2, 255] and
/// a[i], b[i] < p. out may alias a or b.
void ResidueDiffU16(Level level, const uint16_t* a, const uint16_t* b,
                    size_t n, uint32_t p, uint16_t* out);
void ResidueDiffU16(const uint16_t* a, const uint16_t* b, size_t n, uint32_t p,
                    uint16_t* out);

/// out[i] = nonzero-mod(v[i], p) for arbitrary uint16 v[i]; p in [2, 255].
/// (Degree factors: (r(l) + degree) mod p with the value pre-summed into a
/// uint16.) out may alias v.
void ResidueU16(Level level, const uint16_t* v, size_t n, uint32_t p,
                uint16_t* out);
void ResidueU16(const uint16_t* v, size_t n, uint32_t p, uint16_t* out);

/// The three factors contributed by one edge addition (Sec. 2.1):
///   out[0] = nonzero-mod(va - vb, p)          edge factor, va/vb already in
///                                             the caller's canonical order
///   out[1] = nonzero-mod(vu + deg_u, p)       endpoint degree factors
///   out[2] = nonzero-mod(vv + deg_v, p)
/// va, vb, vu, vv < p; p >= 2 (any uint32 prime — levels above scalar
/// engage only in the uint16-friendly regime and fall back internally
/// otherwise, still bit-identical).
void EdgeAdditionFactors(Level level, uint32_t va, uint32_t vb, uint32_t vu,
                         uint32_t deg_u, uint32_t vv, uint32_t deg_v,
                         uint32_t p, uint32_t out[3]);

namespace detail {
/// Division-free residue triple for the non-scalar levels: three lanes are
/// far too few to amortise vector setup (measured 15x slower through the
/// uint16 kernels), so "SIMD" here means the lane arithmetic the batch
/// kernels use — compare/subtract instead of 64-bit division — scalarised
/// and inlined at the call site (~3M calls/s on the matcher hot path).
inline void EdgeAdditionFactorsFast(uint32_t va, uint32_t vb, uint32_t vu,
                                    uint32_t deg_u, uint32_t vv,
                                    uint32_t deg_v, uint32_t p,
                                    uint32_t out[3]) {
  // va, vb < p: one wrap (64-bit sum: p may be any uint32).
  const uint64_t t0 = static_cast<uint64_t>(va) + p - vb;  // in (0, 2p)
  const uint32_t r0 = static_cast<uint32_t>(t0 >= p ? t0 - p : t0);
  out[0] = r0 == 0 ? p : r0;
  // vu, vv < p; in-match degrees are tiny (one reduction), but stay exact
  // for any uint32 degree via the % fallback.
  const uint64_t t1 = static_cast<uint64_t>(vu) + deg_u;
  const uint32_t r1 = t1 < 2 * static_cast<uint64_t>(p)
                          ? static_cast<uint32_t>(t1 >= p ? t1 - p : t1)
                          : static_cast<uint32_t>(t1 % p);
  out[1] = r1 == 0 ? p : r1;
  const uint64_t t2 = static_cast<uint64_t>(vv) + deg_v;
  const uint32_t r2 = t2 < 2 * static_cast<uint64_t>(p)
                          ? static_cast<uint32_t>(t2 >= p ? t2 - p : t2)
                          : static_cast<uint32_t>(t2 % p);
  out[2] = r2 == 0 ? p : r2;
}
}  // namespace detail

inline void EdgeAdditionFactors(uint32_t va, uint32_t vb, uint32_t vu,
                                uint32_t deg_u, uint32_t vv, uint32_t deg_v,
                                uint32_t p, uint32_t out[3]) {
  if (ActiveLevel() != Level::kScalar) {
    detail::EdgeAdditionFactorsFast(va, vb, vu, deg_u, vv, deg_v, p, out);
    return;
  }
  EdgeAdditionFactors(Level::kScalar, va, vb, vu, deg_u, vv, deg_v, p, out);
}

// ---- partition tallies (LDG + equal opportunism) ----

/// out[i] = table[idx[i]] if idx[i] < table_n else oob.
void GatherU32(Level level, const uint32_t* table, size_t table_n,
               const uint32_t* idx, size_t n, uint32_t oob, uint32_t* out);
void GatherU32(const uint32_t* table, size_t table_n, const uint32_t* idx,
               size_t n, uint32_t oob, uint32_t* out);

/// counts[v] += #occurrences of v in vals[0..n) for every v < k; values
/// >= k (e.g. kNoPartition) are ignored. counts must hold k entries and is
/// accumulated into, not cleared.
void TallyU32(Level level, const uint32_t* vals, size_t n, uint32_t k,
              uint32_t* counts);
void TallyU32(const uint32_t* vals, size_t n, uint32_t k, uint32_t* counts);

/// Fused gather + tally: counts[table[idx[i]]] for idx[i] < table_n,
/// skipping entries whose gathered value is >= k. THE LDG/Eq. 1 neighbour
/// tally: table = the assignment array, idx = a neighbour span.
void TallyGatherU32(Level level, const uint32_t* table, size_t table_n,
                    const uint32_t* idx, size_t n, uint32_t k,
                    uint32_t* counts);

namespace detail {
/// Spans below this never reach the vector sweep: the per-partition
/// compare pass can't amortise its setup, and most neighbour spans are a
/// handful of entries — those run the histogram inline at the call site.
inline constexpr size_t kSmallTally = 32;
/// Above this k the compare sweep (k * n/32 compares) loses to the plain
/// histogram (n dependent increments) at any n.
inline constexpr uint32_t kTallyCompareMaxK = 32;
}  // namespace detail

inline void TallyGatherU32(const uint32_t* table, size_t table_n,
                           const uint32_t* idx, size_t n, uint32_t k,
                           uint32_t* counts) {
  if (n < detail::kSmallTally || k > detail::kTallyCompareMaxK) {
    for (size_t i = 0; i < n; ++i) {
      if (idx[i] >= table_n) continue;
      const uint32_t v = table[idx[i]];
      if (v < k) ++counts[v];
    }
    return;
  }
  TallyGatherU32(ActiveLevel(), table, table_n, idx, n, k, counts);
}

/// dst[i] += src[i] for i < n (integer, exact).
void AddU32(Level level, uint32_t* dst, const uint32_t* src, size_t n);

inline void AddU32(uint32_t* dst, const uint32_t* src, size_t n) {
  if (n <= 16) {  // typical k: below a vector's worth of call overhead
    for (size_t i = 0; i < n; ++i) dst[i] += src[i];
    return;
  }
  AddU32(ActiveLevel(), dst, src, n);
}

/// dst[i] += weight * double(src[i]); requires src[i] < 2^31 so the int
/// conversion is exact. Per-lane operation order matches the scalar loop,
/// so results are bit-identical doubles.
void AccumulateScaledU32(Level level, double* dst, const uint32_t* src,
                         double weight, size_t n);

inline void AccumulateScaledU32(double* dst, const uint32_t* src,
                                double weight, size_t n) {
  if (n <= 16) {
    for (size_t i = 0; i < n; ++i) {
      dst[i] += weight * static_cast<double>(src[i]);
    }
    return;
  }
  AccumulateScaledU32(ActiveLevel(), dst, src, weight, n);
}

// ---- Eq. 1 bid totals (equal opportunism) ----

/// For every partition si < k:
///   totals[si] = sum over i in [0, count[si]) of
///                  (overlap[i*k + si] * residual[si]) * support[i]
/// skipping terms whose overlap is <= 0 (they contribute exactly +0.0; the
/// SIMD levels add the masked +0.0 instead, which is bit-identical because
/// every term and every partial sum is >= +0.0). count[si] <= rows.
/// Accumulation order per partition is i ascending — the same operation
/// sequence as the scalar per-partition loop, so totals are bit-identical
/// doubles at every level. overlap must not overlap totals.
void BidTotals(Level level, const double* overlap, size_t rows, uint32_t k,
               const double* residual, const double* support,
               const uint32_t* count, double* totals);

inline void BidTotals(const double* overlap, size_t rows, uint32_t k,
                      const double* residual, const double* support,
                      const uint32_t* count, double* totals) {
  if (rows * k < 64) {  // single-match clusters dominate; skip the hop
    for (uint32_t si = 0; si < k; ++si) {
      double total = 0.0;
      for (size_t i = 0; i < count[si]; ++i) {
        const double ov = overlap[i * k + si];
        if (ov <= 0.0) continue;  // contributes exactly +0.0
        total += (ov * residual[si]) * support[i];
      }
      totals[si] = total;
    }
    return;
  }
  BidTotals(ActiveLevel(), overlap, rows, k, residual, support, count, totals);
}

}  // namespace simd
}  // namespace util
}  // namespace loom

#endif  // LOOM_UTIL_SIMD_H_
