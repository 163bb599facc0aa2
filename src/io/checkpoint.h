// "LOOMCK" checkpoint files: versioned, checksummed snapshots of a running
// partitioner, in the same page-file discipline as the LOOMES edge-stream
// format (magic, format version, per-section length + FNV-1a checksum).
//
// A checkpoint is a sequence of named sections. Each layer of the engine
// writes its own section(s) — the session writes "session" (backend id,
// stream cursor, options fingerprint, event totals), a backend writes its
// component state ("loom", "partition", "window", "matches", ...) — so no
// layer parses another's bytes. The writer buffers the whole file in
// memory and Commit() publishes it atomically: write to `path + ".tmp"`,
// fsync, rename over `path`, fsync the directory — a torn write (crash
// mid-checkpoint) can therefore never shadow the last good checkpoint.
//
// The reader loads the file, rebuilds the section directory and verifies
// every section checksum eagerly at construction, so corruption anywhere —
// truncation at any offset, flipped bytes, bad magic, an unsupported
// version — is an actionable std::runtime_error before any state is
// touched. Field-level reads are bounds-checked against their section and
// Close() rejects trailing bytes, which is what catches version-skewed
// section layouts that happen to checksum correctly.
//
// This header deliberately depends on the standard library only, so every
// layer (partition, core, stream, engine) can include it without cycles.

#ifndef LOOM_IO_CHECKPOINT_H_
#define LOOM_IO_CHECKPOINT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace loom {
namespace io {

/// Format version this build writes and reads. v2: the session section
/// dropped the shard progress fields and the shard option keys. v3: it
/// dropped the "simd" option key. v4: it dropped the "adj_page" option key.
/// v5: the session section dropped the five eviction/cluster event totals
/// and the "compact_interval" option key; "loom" dropped that knob from its
/// fingerprint; "loom_stats" gained two counters and lost the compaction
/// phase; "matches" dropped its live and total-added counts.
inline constexpr uint16_t kCheckpointVersion = 5;

/// Builds a checkpoint in memory, then commits it to disk atomically.
/// All methods throw std::runtime_error on misuse or I/O failure.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Opens a named section; sections cannot nest and names must be unique.
  void BeginSection(std::string_view name);

  /// Seals the open section (stamps its length and FNV-1a checksum).
  void EndSection();

  // Field writers (only valid inside a section). Little-endian, the only
  // platform this library targets (same convention as edge_stream_io).
  void U8(uint8_t v) { Raw(&v, 1); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  /// Doubles travel as bit patterns: restore is bit-exact, never a parse.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Str(std::string_view s);

  /// u64 count + raw element bytes. T must be trivially copyable.
  template <typename T>
  void PodVec(const std::vector<T>& v) {
    U64(v.size());
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(T));
  }

  /// Raw element bytes with NO count prefix — for callers assembling a
  /// PodVec-compatible payload from non-contiguous storage (the adjacency
  /// arena writes one U64 count, then one PodArray per page).
  template <typename T>
  void PodArray(const T* data, size_t n) {
    if (n > 0) Raw(data, n * sizeof(T));
  }

  /// Serialises and durably publishes the checkpoint: writes `path + ".tmp"`,
  /// fsyncs it, renames it over `path` and fsyncs the parent directory.
  /// Requires every section to be closed. Throws on I/O failure (the tmp
  /// file is cleaned up best-effort).
  void Commit(const std::string& path);

 private:
  void Raw(const void* data, size_t n);

  struct Section {
    std::string name;
    std::vector<char> payload;
  };

  std::vector<Section> sections_;
  bool in_section_ = false;
  bool committed_ = false;
};

/// Reads a checkpoint file. Construction validates the whole structure
/// (magic, version, section framing, every checksum); Open/field reads are
/// then in-memory and bounds-checked. Structural problems throw
/// std::runtime_error carrying the path and what was wrong.
class CheckpointReader {
 public:
  explicit CheckpointReader(const std::string& path);

  CheckpointReader(const CheckpointReader&) = delete;
  CheckpointReader& operator=(const CheckpointReader&) = delete;

  /// True if the checkpoint carries a section named `name`.
  bool Has(std::string_view name) const;

  /// Positions the cursor at the start of section `name`; throws if absent
  /// (names the sections that are present) or if another section is open.
  void Open(std::string_view name);

  /// Ends the open section; throws if unread bytes remain — a section that
  /// is longer than this build expects is a layout skew, not padding.
  void Close();

  // Field readers; throw on reading past the section's end.
  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::string Str();

  template <typename T>
  void PodVec(std::vector<T>* v) {
    const uint64_t n = U64();
    // Bound the count, not n * sizeof(T): the product wraps for a corrupt n.
    CheckRemaining(n > Remaining() / sizeof(T) ? UINT64_MAX : n * sizeof(T),
                   "vector payload");
    v->resize(static_cast<size_t>(n));
    if (n > 0) {
      std::memcpy(v->data(), Cursor(), static_cast<size_t>(n) * sizeof(T));
      pos_ += static_cast<size_t>(n) * sizeof(T);
    }
  }

  /// Raw element bytes with NO count prefix (the read half of
  /// CheckpointWriter::PodArray); bounds-checked against the section.
  template <typename T>
  void PodArray(T* out, size_t n) {
    if (n == 0) return;
    CheckRemaining(static_cast<uint64_t>(n) * sizeof(T), "array payload");
    std::memcpy(out, Cursor(), n * sizeof(T));
    pos_ += n * sizeof(T);
  }

  /// Unread bytes left in the open section.
  uint64_t Remaining() const;

  const std::string& path() const { return path_; }

  /// Throws a std::runtime_error carrying this checkpoint's path — the one
  /// error shape for semantic rejections (fingerprint/label mismatches), so
  /// callers and tests see uniform "checkpoint '<path>': ..." messages.
  [[noreturn]] void Fail(const std::string& detail) const;

 private:
  struct Section {
    std::string name;
    size_t offset = 0;  // into data_
    size_t length = 0;
  };

  const char* Cursor() const { return data_.data() + pos_; }
  void CheckRemaining(uint64_t need, const char* what);
  const Section* FindSection(std::string_view name) const;

  std::string path_;
  std::vector<char> data_;
  std::vector<Section> sections_;
  const Section* open_ = nullptr;
  size_t pos_ = 0;  // absolute offset into data_ while a section is open
};

}  // namespace io
}  // namespace loom

#endif  // LOOM_IO_CHECKPOINT_H_
