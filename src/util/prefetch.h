// Cache-line prefetch hints for the ingest loop's look-ahead.
//
// A hint never faults and never changes a result; callers pass only
// addresses inside live objects, so the hints stay well-defined C++ and
// a sanitizer build sees nothing to report.
//
// Each hint ends in an empty volatile asm. GCC's pure-const analysis
// counts __builtin_prefetch as no effect at all, so without it a function
// whose only work is prefetching is deemed `const` and every call to it
// is deleted as dead code (GCC 12 at -O2/-O3 emptied the ingest loop's
// look-ahead that way). The asm emits no instruction; it is an effect the
// optimiser must keep, and it is no compiler memory barrier.

#ifndef LOOM_UTIL_PREFETCH_H_
#define LOOM_UTIL_PREFETCH_H_

namespace loom {
namespace util {

/// Asks for the line holding `p` ahead of a read.
inline void PrefetchRead(const void* p) {
  __builtin_prefetch(p, 0, 3);
  asm volatile("");
}

/// Asks for the line holding `p` ahead of a write.
inline void PrefetchWrite(const void* p) {
  __builtin_prefetch(p, 1, 3);
  asm volatile("");
}

}  // namespace util
}  // namespace loom

#endif  // LOOM_UTIL_PREFETCH_H_
