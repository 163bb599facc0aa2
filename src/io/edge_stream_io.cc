#include "io/edge_stream_io.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace loom {
namespace io {

namespace {

// Binary layout (little-endian, the only platform this library targets):
//   [0..5]   magic "LOOMES"
//   [6..7]   uint16 version (kBinaryVersion)
//   [8..15]  uint64 edge_count     (back-patched on Close)
//   [16..23] uint64 vertex_count
//   [24..27] uint32 label_count
//   [28..35] uint64 payload checksum (FNV-1a over edge records, patched)
// then label_count x { uint16 len, bytes }, then edge_count x 12-byte
// records { u32 u, u32 v, u16 label_u, u16 label_v }.
constexpr char kMagic[6] = {'L', 'O', 'O', 'M', 'E', 'S'};
constexpr uint16_t kBinaryVersion = 1;
constexpr size_t kEdgeCountOffset = 8;
constexpr size_t kChecksumOffset = 28;
constexpr size_t kRecordBytes = 12;

constexpr char kTextMagic[] = "# loom-edge-stream v1";
// The shortest text record that parses: "E0 1 0 0\n".
constexpr size_t kMinTextRecordBytes = 9;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvMix(uint64_t h, const char* bytes, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= kFnvPrime;
  }
  return h;
}

void PackRecord(const stream::StreamEdge& e, char* out) {
  std::memcpy(out, &e.u, 4);
  std::memcpy(out + 4, &e.v, 4);
  std::memcpy(out + 8, &e.label_u, 2);
  std::memcpy(out + 10, &e.label_v, 2);
}

template <typename T>
void WriteRaw(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadRaw(std::istream& is, T* value) {
  is.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<size_t>(is.gcount()) == sizeof(T);
}

[[noreturn]] void Fail(const std::string& path, const std::string& detail) {
  throw std::runtime_error("edge stream '" + path + "': " + detail);
}

/// Thrown (follow mode only) where ReadHeader hits a condition that a
/// still-growing file explains — truncated fields, a line without its
/// newline yet — so the constructor can poll and re-parse from the top.
/// Definitive errors (bad magic, version skew, malformed complete lines)
/// keep throwing std::runtime_error straight through.
struct RetryableHeader {};

/// Decodes `n` packed binary records into `out`, stamping stream ids from
/// `first_id` on.
void DecodeRecords(const char* records, size_t n, uint64_t first_id,
                   stream::StreamEdge* out) {
  for (size_t i = 0; i < n; ++i) {
    const char* rec = records + i * kRecordBytes;
    stream::StreamEdge& e = out[i];
    std::memcpy(&e.u, rec, 4);
    std::memcpy(&e.v, rec + 4, 4);
    std::memcpy(&e.label_u, rec + 8, 2);
    std::memcpy(&e.label_v, rec + 10, 2);
    e.id = static_cast<graph::EdgeId>(first_id + i);
  }
}

/// Parses one text data line into `*e` with stream id `id`. Returns false
/// for a blank or comment line (no edge); throws on a malformed one.
bool ParseEdgeLine(const std::string& path, const std::string& line,
                   uint64_t id, stream::StreamEdge* e) {
  if (line.empty() || line[0] == '#') return false;
  unsigned long long u = 0, v = 0, lu = 0, lv = 0;
  std::istringstream ls(line);
  char tag = 0;
  if (!(ls >> tag >> u >> v >> lu >> lv) || tag != 'E') {
    Fail(path, "malformed edge line: '" + line + "'");
  }
  e->u = static_cast<graph::VertexId>(u);
  e->v = static_cast<graph::VertexId>(v);
  e->label_u = static_cast<graph::LabelId>(lu);
  e->label_v = static_cast<graph::LabelId>(lv);
  e->id = static_cast<graph::EdgeId>(id);
  return true;
}

}  // namespace

bool ParseStreamFormat(std::string_view name, StreamFormat* out) {
  if (name == "binary") {
    *out = StreamFormat::kBinary;
    return true;
  }
  if (name == "text") {
    *out = StreamFormat::kText;
    return true;
  }
  return false;
}

std::string ToString(StreamFormat format) {
  return format == StreamFormat::kBinary ? "binary" : "text";
}

// ----------------------------------------------------------------- writer

EdgeStreamWriter::EdgeStreamWriter(const std::string& path,
                                   const graph::LabelRegistry& registry,
                                   uint64_t vertex_count, StreamFormat format)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      format_(format),
      checksum_(kFnvOffset) {
  if (!out_) Fail(path_, "cannot open for writing");
  if (format_ == StreamFormat::kBinary) {
    out_.write(kMagic, sizeof(kMagic));
    WriteRaw(out_, kBinaryVersion);
    WriteRaw(out_, uint64_t{0});  // edge_count, patched on Close
    WriteRaw(out_, vertex_count);
    WriteRaw(out_, static_cast<uint32_t>(registry.size()));
    WriteRaw(out_, uint64_t{0});  // checksum, patched on Close
    for (const std::string& name : registry.names()) {
      if (name.size() > std::numeric_limits<uint16_t>::max()) {
        Fail(path_, "label name too long: '" + name.substr(0, 32) + "...'");
      }
      WriteRaw(out_, static_cast<uint16_t>(name.size()));
      out_.write(name.data(), static_cast<std::streamsize>(name.size()));
    }
  } else {
    // The final edge count is unknown until Close; reserve a fixed-width
    // (20-digit, zero-padded) field so it can be back-patched in place.
    out_ << kTextMagic << "\n"
         << "N " << vertex_count << " ";
    count_offset_ = out_.tellp();
    out_ << std::string(20, '0') << "\n";
    for (const std::string& name : registry.names()) out_ << "L " << name << "\n";
  }
  if (!out_) Fail(path_, "write failed while emitting the header");
}

EdgeStreamWriter::~EdgeStreamWriter() {
  try {
    Close();
  } catch (...) {
    // Destructors must not throw; an explicit Close() reports the error.
  }
}

void EdgeStreamWriter::Append(const stream::StreamEdge& e) {
  AppendBatch(std::span<const stream::StreamEdge>(&e, 1));
}

void EdgeStreamWriter::AppendBatch(std::span<const stream::StreamEdge> batch) {
  if (closed_) Fail(path_, "Append after Close");
  if (format_ == StreamFormat::kBinary) {
    char record[kRecordBytes];
    for (const stream::StreamEdge& e : batch) {
      PackRecord(e, record);
      checksum_ = FnvMix(checksum_, record, kRecordBytes);
      out_.write(record, kRecordBytes);
    }
  } else {
    for (const stream::StreamEdge& e : batch) {
      out_ << "E " << e.u << " " << e.v << " " << e.label_u << " " << e.label_v
           << "\n";
    }
  }
  edges_written_ += batch.size();
  if (!out_) Fail(path_, "write failed while appending edges");
}

void EdgeStreamWriter::Flush() {
  if (closed_) return;
  out_.flush();
  if (!out_) Fail(path_, "flush failed");
}

void EdgeStreamWriter::Close() {
  if (closed_) return;
  closed_ = true;
  if (format_ == StreamFormat::kBinary) {
    out_.seekp(static_cast<std::streamoff>(kEdgeCountOffset));
    WriteRaw(out_, edges_written_);
    out_.seekp(static_cast<std::streamoff>(kChecksumOffset));
    WriteRaw(out_, checksum_);
  } else {
    // Patch the fixed-width edge count inside the N line.
    std::ostringstream count;
    count.width(20);
    count.fill('0');
    count << edges_written_;
    out_.seekp(count_offset_);
    out_ << count.str();
  }
  out_.flush();
  if (!out_) Fail(path_, "flush failed on Close");
  out_.close();
}

uint64_t WriteEdgeStream(const std::string& path,
                         const graph::LabelRegistry& registry,
                         uint64_t vertex_count, engine::EdgeSource* source,
                         StreamFormat format) {
  EdgeStreamWriter writer(path, registry, vertex_count, format);
  std::vector<stream::StreamEdge> batch(4096);
  for (;;) {
    const size_t n = source->NextBatch(batch);
    if (n == 0) break;
    writer.AppendBatch(std::span<const stream::StreamEdge>(batch.data(), n));
  }
  writer.Close();
  return writer.edges_written();
}

// ----------------------------------------------------------------- reader

FileEdgeSource::FileEdgeSource(const std::string& path)
    : FileEdgeSource(path, FollowOptions{}) {}

FileEdgeSource::FileEdgeSource(const std::string& path,
                               const FollowOptions& follow)
    : path_(path),
      in_(path, std::ios::binary),
      follow_(follow),
      checksum_(kFnvOffset) {
  if (!follow_.follow) {
    if (!in_) Fail(path_, "cannot open for reading");
    ReadHeader();
    CheckDeclaredCount();
    return;
  }
  // Follow mode: the producer may still be creating the file or writing its
  // header — poll until a complete header (text: plus the first edge line,
  // the only unambiguous end-of-header marker) is on disk. Definitive
  // errors propagate immediately.
  for (;;) {
    if (in_.is_open() && in_) {
      try {
        ReadHeader();
        break;
      } catch (const RetryableHeader&) {
        // Not enough bytes yet — fall through to poll and re-parse.
      }
    }
    if (Stopped()) {
      Fail(path_, "stopped while waiting for a complete header (follow)");
    }
    Poll();
    info_ = EdgeStreamInfo{};
    in_.close();
    in_.open(path_, std::ios::binary);  // a successful open clears failbits
  }
  verify_checksum_ = false;  // the header's checksum is patched on Close only
}

void FileEdgeSource::ReadHeader() {
  char magic[6];
  in_.read(magic, sizeof(magic));
  if (follow_.follow && in_.gcount() < 6 &&
      std::memcmp(magic, kMagic, static_cast<size_t>(in_.gcount())) == 0) {
    // Empty file, or a binary header's first bytes still landing. (A text
    // stream's magic starts '#', so any strict kMagic prefix rules it out.)
    throw RetryableHeader{};
  }
  if (in_.gcount() == 6 && std::memcmp(magic, kMagic, 6) == 0) {
    info_.format = StreamFormat::kBinary;
    uint16_t version = 0;
    uint32_t label_count = 0;
    uint64_t expected_checksum = 0;
    if (!ReadRaw(in_, &version) || !ReadRaw(in_, &info_.edge_count) ||
        !ReadRaw(in_, &info_.vertex_count) || !ReadRaw(in_, &label_count) ||
        !ReadRaw(in_, &expected_checksum)) {
      if (follow_.follow) throw RetryableHeader{};
      Fail(path_, "truncated binary header (file shorter than 36 bytes)");
    }
    if (version != kBinaryVersion) {
      Fail(path_, "unsupported format version " + std::to_string(version) +
                      " (this reader speaks v" +
                      std::to_string(kBinaryVersion) + ")");
    }
    expected_checksum_ = expected_checksum;
    info_.labels.reserve(label_count);
    for (uint32_t i = 0; i < label_count; ++i) {
      uint16_t len = 0;
      if (!ReadRaw(in_, &len)) {
        if (follow_.follow) throw RetryableHeader{};
        Fail(path_, "truncated label table");
      }
      std::string name(len, '\0');
      in_.read(name.data(), len);
      if (static_cast<size_t>(in_.gcount()) != len) {
        if (follow_.follow) throw RetryableHeader{};
        Fail(path_, "truncated label table");
      }
      info_.labels.push_back(std::move(name));
    }
  } else {
    // Text: the whole first line must be the magic comment (an exact
    // match, so "... v10" is an unsupported version, not silently v1).
    in_.clear();
    in_.seekg(0);
    std::string line;
    if (!std::getline(in_, line)) {
      if (follow_.follow) throw RetryableHeader{};
      Fail(path_,
           "bad magic: neither a LOOMES binary stream nor a '" +
               std::string(kTextMagic) + "' text stream");
    }
    // A line that hit EOF has no terminating newline yet — the producer may
    // still be mid-write, so nothing on it is definitive.
    if (follow_.follow && in_.eof()) throw RetryableHeader{};
    if (line != kTextMagic) {
      if (line.rfind("# loom-edge-stream ", 0) == 0) {
        Fail(path_, "unsupported format version '" +
                        line.substr(std::strlen("# loom-edge-stream ")) +
                        "' (this reader speaks v1)");
      }
      Fail(path_,
           "bad magic: neither a LOOMES binary stream nor a '" +
               std::string(kTextMagic) + "' text stream");
    }
    info_.format = StreamFormat::kText;
    bool saw_counts = false;
    for (std::streampos before = in_.tellg(); std::getline(in_, line);
         before = in_.tellg()) {
      if (follow_.follow && in_.eof()) throw RetryableHeader{};
      if (line.empty() || line[0] == '#') continue;
      if (line[0] == 'N') {
        std::istringstream ls(line.substr(1));
        if (!(ls >> info_.vertex_count >> info_.edge_count)) {
          Fail(path_, "malformed counts line: '" + line + "'");
        }
        saw_counts = true;
      } else if (line[0] == 'L') {
        if (line.size() < 3 || line[1] != ' ') {
          Fail(path_, "malformed label line: '" + line + "'");
        }
        info_.labels.push_back(line.substr(2));
      } else if (line[0] == 'E') {
        // First edge record: the header is over.
        in_.clear();
        in_.seekg(before);
        break;
      } else {
        Fail(path_, "unexpected line in header: '" + line + "'");
      }
    }
    if (!saw_counts) {
      if (follow_.follow) throw RetryableHeader{};
      Fail(path_, "missing 'N <vertices> <edges>' line");
    }
    if (!in_) {
      // The header loop ran to EOF without meeting an 'E' line. In follow
      // mode that E line is the only unambiguous end-of-header marker (more
      // L lines may still be coming), so keep waiting; offline it's legal —
      // a zero-edge stream — so clear the fail state and let tellg() (and a
      // later Reset) land on end-of-file instead of -1.
      if (follow_.follow) throw RetryableHeader{};
      in_.clear();
      in_.seekg(0, std::ios::end);
    }
  }
  data_start_ = in_.tellg();
}

void FileEdgeSource::CheckDeclaredCount() {
  in_.seekg(0, std::ios::end);
  const uint64_t bytes = static_cast<uint64_t>(in_.tellg() - data_start_);
  in_.seekg(data_start_);
  const bool binary = info_.format == StreamFormat::kBinary;
  // The last text record may lack its newline.
  const uint64_t at_most =
      binary ? bytes / kRecordBytes : (bytes + 1) / kMinTextRecordBytes;
  if (info_.edge_count > at_most) {
    Fail(path_, "truncated: header declares " +
                    std::to_string(info_.edge_count) +
                    " edges but the file ends after " +
                    (binary ? "" : "at most ") + std::to_string(at_most));
  }
}

bool FileEdgeSource::Stopped() const {
  return follow_.stop != nullptr &&
         follow_.stop->load(std::memory_order_acquire);
}

void FileEdgeSource::Poll() const {
  std::this_thread::sleep_for(
      std::chrono::milliseconds(std::max(1, follow_.poll_interval_ms)));
}

size_t FileEdgeSource::ReadFollow(std::span<stream::StreamEdge> out) {
  if (info_.format == StreamFormat::kBinary) {
    buffer_.resize(out.size() * kRecordBytes);
    for (;;) {
      in_.clear();
      in_.read(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
      const size_t complete = static_cast<size_t>(in_.gcount()) / kRecordBytes;
      // Only whole records count; park the cursor right after the last
      // complete one so a partially flushed record is re-read intact once
      // its tail lands.
      in_.clear();
      in_.seekg(data_start_ +
                static_cast<std::streamoff>((pos_ + complete) * kRecordBytes));
      if (!in_) Fail(path_, "seek failed while tailing");
      if (complete > 0) {
        DecodeRecords(buffer_.data(), complete, pos_, out.data());
        return complete;
      }
      if (Stopped()) return 0;
      Poll();
    }
  }
  // Text: only a '\n'-terminated line is complete; getline at EOF hands back
  // the unterminated tail, so rewind and re-read it on the next poll.
  size_t produced = 0;
  std::string line;
  for (;;) {
    in_.clear();
    const std::streampos before = in_.tellg();
    if (!std::getline(in_, line) || in_.eof()) {
      in_.clear();
      in_.seekg(before);
      if (produced > 0) return produced;
      if (Stopped()) return 0;
      Poll();
      continue;
    }
    if (!ParseEdgeLine(path_, line, pos_ + produced, &out[produced])) {
      continue;
    }
    ++produced;
    if (produced == out.size()) return produced;
  }
}

size_t FileEdgeSource::NextBatch(std::span<stream::StreamEdge> out) {
  if (exhausted_ || out.empty()) return 0;
  const uint64_t remaining =
      follow_.follow ? std::numeric_limits<uint64_t>::max()
                     : info_.edge_count - pos_;
  const size_t want =
      static_cast<size_t>(std::min<uint64_t>(out.size(), remaining));
  size_t produced = 0;

  if (follow_.follow) {
    produced = ReadFollow(out);
    if (produced == 0) {
      // Stop signal observed mid-tail: the live stream is over for us.
      exhausted_ = true;
      return 0;
    }
  } else if (info_.format == StreamFormat::kBinary) {
    buffer_.resize(want * kRecordBytes);
    in_.read(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    const size_t got = static_cast<size_t>(in_.gcount());
    if (got != buffer_.size()) {
      Fail(path_, "truncated: header declares " +
                      std::to_string(info_.edge_count) + " edges but the " +
                      "file ends after " +
                      std::to_string(pos_ + got / kRecordBytes));
    }
    DecodeRecords(buffer_.data(), want, pos_, out.data());
    checksum_ = FnvMix(checksum_, buffer_.data(), buffer_.size());
    produced = want;
  } else {
    std::string line;
    while (produced < want && std::getline(in_, line)) {
      if (ParseEdgeLine(path_, line, pos_ + produced, &out[produced])) {
        ++produced;
      }
    }
    if (produced < want) {
      Fail(path_, "truncated: header declares " +
                      std::to_string(info_.edge_count) +
                      " edges but the file ends after " +
                      std::to_string(pos_ + produced));
    }
  }

  // Per-record sanity against the header's declared spaces.
  for (size_t i = 0; i < produced; ++i) {
    const stream::StreamEdge& e = out[i];
    if (e.u >= info_.vertex_count || e.v >= info_.vertex_count) {
      Fail(path_, "edge " + std::to_string(pos_ + i) + " (" +
                      std::to_string(e.u) + "," + std::to_string(e.v) +
                      ") exceeds the declared vertex count " +
                      std::to_string(info_.vertex_count));
    }
    if (e.label_u >= info_.labels.size() || e.label_v >= info_.labels.size()) {
      Fail(path_, "edge " + std::to_string(pos_ + i) +
                      " references a label id outside the table (" +
                      std::to_string(info_.labels.size()) + " labels)");
    }
    // Graphs in this library are self-loop-free (graph/types.h); reject at
    // the ingest boundary like every other producer (generators drop them,
    // serve's protocol refuses them) instead of letting one slip into the
    // backends, where it would have been double-counted pre-canonicalisation.
    if (e.u == e.v) {
      Fail(path_, "edge " + std::to_string(pos_ + i) + " is a self-loop (" +
                      std::to_string(e.u) + "," + std::to_string(e.v) +
                      "); the stream format forbids self-loops");
    }
  }

  pos_ += produced;
  if (!follow_.follow && pos_ == info_.edge_count) {
    exhausted_ = true;
    if (info_.format == StreamFormat::kBinary && verify_checksum_ &&
        checksum_ != expected_checksum_) {
      Fail(path_, "payload checksum mismatch (file corrupt, or written "
                  "without Close())");
    }
  }
  return produced;
}

void FileEdgeSource::Reset() {
  in_.clear();
  in_.seekg(data_start_);
  if (!in_) Fail(path_, "seek failed on Reset");
  pos_ = 0;
  checksum_ = kFnvOffset;
  verify_checksum_ = !follow_.follow;
  exhausted_ = false;
}

void FileEdgeSource::SkipTo(uint64_t stream_id) {
  // A live file's declared count is stale, so the bound only means
  // something offline; in follow mode any cursor is reachable — we wait.
  if (!follow_.follow && stream_id > info_.edge_count) {
    Fail(path_, "cannot skip to edge " + std::to_string(stream_id) +
                    ": the stream declares only " +
                    std::to_string(info_.edge_count) + " edges");
  }
  Reset();
  if (stream_id == 0) return;
  if (info_.format == StreamFormat::kBinary) {
    in_.seekg(data_start_ +
              static_cast<std::streamoff>(stream_id * kRecordBytes));
    if (!in_) Fail(path_, "seek failed on SkipTo");
  } else {
    // Text has no fixed record width: walk forward, counting edge lines.
    // Follow mode counts only complete lines and polls until the cursor's
    // worth of edges is on disk.
    std::string line;
    uint64_t skipped = 0;
    while (skipped < stream_id) {
      in_.clear();
      const std::streampos before = in_.tellg();
      if (!std::getline(in_, line) || (follow_.follow && in_.eof())) {
        if (!follow_.follow) {
          Fail(path_, "truncated: header declares " +
                          std::to_string(info_.edge_count) +
                          " edges but the file ends after " +
                          std::to_string(skipped));
        }
        in_.clear();
        in_.seekg(before);
        if (Stopped()) {
          Fail(path_, "stopped while skipping to the resume cursor (follow)");
        }
        Poll();
        continue;
      }
      if (line.empty() || line[0] == '#') continue;
      ++skipped;
    }
  }
  pos_ = stream_id;
  // The running checksum covers the payload from edge 0; a resumed reader
  // never sees the skipped prefix, so the end-of-stream check must not fire.
  verify_checksum_ = false;
  exhausted_ = !follow_.follow && pos_ == info_.edge_count;
}

bool FileEdgeSource::InternLabels(graph::LabelRegistry* registry,
                                  std::string* error) const {
  // Validate the whole table first so a failed check leaves `registry`
  // untouched (no partially interned, id-shifting label pollution), then
  // intern in a second pass.
  size_t simulated_size = registry->size();
  for (size_t i = 0; i < info_.labels.size(); ++i) {
    const graph::LabelId existing = registry->Find(info_.labels[i]);
    const graph::LabelId would_be =
        existing != graph::kInvalidLabel
            ? existing
            : static_cast<graph::LabelId>(simulated_size++);
    if (would_be != static_cast<graph::LabelId>(i)) {
      if (error != nullptr) {
        *error = "edge stream '" + path_ + "': label '" + info_.labels[i] +
                 "' is id " + std::to_string(i) + " in the file but id " +
                 std::to_string(would_be) +
                 " in the target registry — incompatible label spaces";
      }
      return false;
    }
  }
  for (const std::string& name : info_.labels) registry->Intern(name);
  return true;
}

}  // namespace io
}  // namespace loom
