// The kernel level the hot loops run at, as reported in the end-to-end
// benchmark's host record (bench/e2e/common.cc prints
// LevelName(ActiveLevel())). Every hot loop has one portable
// implementation, so the only level is kScalar; this header exists for that
// record alone and carries no dispatch.

#ifndef LOOM_UTIL_SIMD_H_
#define LOOM_UTIL_SIMD_H_

#include <cstdint>

namespace loom {
namespace util {
namespace simd {

enum class Level : uint8_t { kScalar = 0 };

inline Level ActiveLevel() { return Level::kScalar; }

inline const char* LevelName(Level) { return "scalar"; }

}  // namespace simd
}  // namespace util
}  // namespace loom

#endif  // LOOM_UTIL_SIMD_H_
