// File-backed edge streams: the paper's "possibly-infinite edge sequence"
// (Sec. 1.3) as an on-disk artifact.
//
// Two interchangeable formats carry the same logical content — a label
// table plus a sequence of labelled edges in arrival order:
//
//   * Binary ("LOOMES", versioned): fixed 36-byte header (magic, version,
//     edge/vertex counts, label-table size, FNV-1a payload checksum), a
//     length-prefixed label-name table, then 12-byte edge records
//     {u:u32, v:u32, label_u:u16, label_v:u16}. Stream ids are positions
//     and are not stored. The writer back-patches counts and checksum on
//     Close(), so streams can be appended without knowing their length up
//     front. Truncation, magic/version mismatches and checksum drift all
//     produce actionable std::runtime_errors on read.
//
//   * Text ("# loom-edge-stream v1", line oriented, '#' comments): a
//     counts line "N <vertices> <edges>", one "L <name>" line per label in
//     LabelId order (graph_io.h's convention), then "E <u> <v> <lu> <lv>"
//     lines. Inspectable with standard tools; no checksum.
//
// io::FileEdgeSource reads either format (sniffed from the first bytes)
// through the engine's pull interface in caller-sized batches — memory is
// bounded by the batch span, never by the stream length, which is what
// lets experiments replay datasets larger than RAM.

#ifndef LOOM_IO_EDGE_STREAM_IO_H_
#define LOOM_IO_EDGE_STREAM_IO_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/edge_source.h"
#include "graph/label_registry.h"
#include "stream/stream_edge.h"

namespace loom {
namespace io {

enum class StreamFormat {
  kBinary,  // "LOOMES" header, 12-byte records, checksummed
  kText,    // "# loom-edge-stream v1", L/E lines
};

/// Parses "binary"/"text"; false on anything else.
bool ParseStreamFormat(std::string_view name, StreamFormat* out);
std::string ToString(StreamFormat format);

/// Everything a stream file's header declares.
struct EdgeStreamInfo {
  StreamFormat format = StreamFormat::kBinary;
  uint64_t edge_count = 0;
  /// Number of distinct vertex ids the stream may mention (dense [0, n));
  /// what EngineOptions::expected_vertices should be sized with.
  uint64_t vertex_count = 0;
  /// Label names in LabelId order (the stream's label table).
  std::vector<std::string> labels;
};

/// Streams edges to a file. Append in arrival order, then Close() — the
/// binary writer back-patches the header's counts and checksum, so the
/// total edge count need not be known up front. Throws std::runtime_error
/// on I/O failure.
class EdgeStreamWriter {
 public:
  /// Creates/truncates `path`. The label table is captured from `registry`
  /// at construction; `vertex_count` is the dense vertex-id bound persisted
  /// for readers to size partitioners with.
  EdgeStreamWriter(const std::string& path,
                   const graph::LabelRegistry& registry, uint64_t vertex_count,
                   StreamFormat format = StreamFormat::kBinary);
  ~EdgeStreamWriter();  // closes (best effort) if Close() was not called

  EdgeStreamWriter(const EdgeStreamWriter&) = delete;
  EdgeStreamWriter& operator=(const EdgeStreamWriter&) = delete;

  void Append(const stream::StreamEdge& e);
  void AppendBatch(std::span<const stream::StreamEdge> batch);

  /// Pushes everything appended so far to the OS so a tailing reader (a
  /// follow-mode FileEdgeSource) can see it. Counts and checksum are NOT
  /// patched — that stays Close()'s job; tailing readers ignore them.
  /// No-op after Close. Throws on I/O failure.
  void Flush();

  /// Finalises the file (binary: seeks back and patches edge count +
  /// checksum). Idempotent. Throws on I/O failure.
  void Close();

  uint64_t edges_written() const { return edges_written_; }

 private:
  std::string path_;
  std::ofstream out_;
  StreamFormat format_;
  uint64_t edges_written_ = 0;
  uint64_t checksum_;
  std::streampos count_offset_;  // text: where the padded edge count lives
  bool closed_ = false;
};

/// Drains `source` (from its current position) into a new stream file at
/// `path`; returns the number of edges written.
uint64_t WriteEdgeStream(const std::string& path,
                         const graph::LabelRegistry& registry,
                         uint64_t vertex_count, engine::EdgeSource* source,
                         StreamFormat format = StreamFormat::kBinary);

/// How a FileEdgeSource behaves when it reaches the end of the data
/// currently on disk. The default is the classic offline contract: the
/// header's declared edge count is the stream length and reading past it is
/// a truncation error.
struct FollowOptions {
  /// Tail the file as it grows ("tail -f" for edge streams): NextBatch
  /// ignores the header's edge count and checksum (both are back-patched on
  /// Close, so they are stale on a live file), consumes only COMPLETE
  /// records (a partially flushed record/line is re-read once its tail
  /// lands), and polls at end-of-data instead of reporting exhaustion. The
  /// label table and vertex bound are still validated — the writer emits
  /// them whole before the first edge, so they are never stale.
  bool follow = false;
  /// How long to sleep between polls at end-of-data.
  int poll_interval_ms = 20;
  /// Optional stop signal. When it reads true, a polling NextBatch (or a
  /// constructor / SkipTo still waiting for data) gives up: NextBatch
  /// returns 0 and the source reports exhausted from then on.
  const std::atomic<bool>* stop = nullptr;
};

/// Pull-based source over a stream file (either format, sniffed). Reads
/// batches of at most the caller's span size; holds no per-stream state
/// besides the file handle, so memory stays bounded for streams larger
/// than RAM. Construction validates the header (bad magic, unsupported
/// version, malformed counts) and every NextBatch validates what it reads
/// (truncation, malformed records, and — once the binary stream is fully
/// consumed — the payload checksum), throwing std::runtime_error with the
/// offending path and detail.
class FileEdgeSource : public engine::EdgeSource {
 public:
  explicit FileEdgeSource(const std::string& path);

  /// Follow-mode construction waits (polling) for the file to exist and for
  /// its header to be completely written — text streams additionally wait
  /// for the first edge line, the only unambiguous end-of-header marker.
  /// Definitive errors (bad magic, unsupported version, malformed header
  /// lines) still throw immediately; a stop signal while waiting throws
  /// std::runtime_error too, since no valid source can be built.
  FileEdgeSource(const std::string& path, const FollowOptions& follow);

  size_t NextBatch(std::span<stream::StreamEdge> out) override;
  size_t SizeHint() const override { return info_.edge_count; }
  void Reset() override;

  /// Positions the source so the next edge read has id `stream_id` — the
  /// checkpoint-resume cursor (Session::edges_ingested()). Binary streams
  /// seek directly; text streams rewind and skip forward. Skipping past 0
  /// disables the end-of-stream payload checksum (it covers the full
  /// payload, which a resumed reader never sees); Reset() re-arms it.
  /// Throws if `stream_id` exceeds the declared edge count.
  void SkipTo(uint64_t stream_id);

  const EdgeStreamInfo& info() const { return info_; }

  /// Interns the file's label table into `registry` (in table order).
  /// Returns false and fills `*error` if `registry` already maps one of the
  /// names to a different id — mixing incompatible label spaces is the
  /// classic silent-corruption path for assignment files.
  bool InternLabels(graph::LabelRegistry* registry, std::string* error) const;

 private:
  void ReadHeader();  // positions the file at the first edge record
  /// Offline only (a followed file's count is not a promise): rejects a
  /// declared edge count the bytes after the header cannot hold, before
  /// SizeHint sizes anything from it.
  void CheckDeclaredCount();
  /// Follow-mode batch fill: blocks (polling) until at least one complete
  /// record is available or the stop signal fires (then returns 0).
  size_t ReadFollow(std::span<stream::StreamEdge> out);
  bool Stopped() const;
  void Poll() const;

  std::string path_;
  std::ifstream in_;
  FollowOptions follow_;
  EdgeStreamInfo info_;
  std::streampos data_start_;
  std::vector<char> buffer_;       // binary read buffer, batch-bounded
  uint64_t pos_ = 0;               // edges consumed
  uint64_t checksum_;              // running FNV-1a (binary only)
  uint64_t expected_checksum_ = 0; // header's claim (binary only)
  bool verify_checksum_ = true;    // false after a mid-stream SkipTo
  bool exhausted_ = false;
};

}  // namespace io
}  // namespace loom

#endif  // LOOM_IO_EDGE_STREAM_IO_H_
