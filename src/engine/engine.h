// loom::engine — the one facade every caller constructs partitioners
// through.
//
// The paper's contribution is a *family* of streaming partitioners compared
// uniformly across workloads and stream orders; this layer makes the code
// match that shape. Every backend's constructor takes one resolved
// EngineOptions and reads the keys it uses, so there is no per-backend
// config struct to assemble; callers:
//
//   engine::EngineOptions opts;              // typed, string-addressable
//   opts.Set("k", "8", &err);                // or opts.k = 8
//   engine::BuildContext ctx{&workload, num_labels};
//   auto p = engine::PartitionerRegistry::Global().Create("loom", opts, ctx,
//                                                         &err);
//
// and every run then goes through engine::Session (session.h), which
// resolves a spec string's overrides once, builds the backend from that
// value, pulls an EdgeSource into its IngestBatch and checks the same value
// against a checkpoint on resume.
//
// Backends: the vertex partitioners "hash", "ldg", "fennel", "loom" and the
// edge partitioners "hdrf", "dbh", "hep" — a fixed table, so adding a
// backend means adding a row in engine.cc. One-string construction
// ("loom:window_size=4000,alpha=0.5") is provided for CLIs and bench configs
// via BuildPartitioner/ParseBackendSpec.

#ifndef LOOM_ENGINE_ENGINE_H_
#define LOOM_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/edge_source.h"
#include "engine/engine_options.h"
#include "partition/partitioner.h"
#include "query/query.h"

namespace loom {
namespace engine {

/// Non-option inputs a backend may need at construction time. Options are
/// plain values (string-settable); the context carries the references.
struct BuildContext {
  /// The query workload ("loom" requires it; baselines ignore it).
  const query::Workload* workload = nullptr;
  /// Size of the label alphabet |LV| (for signature tables).
  size_t num_labels = 0;
};

/// Name -> factory lookup over the fixed table of built-in backends.
class PartitionerRegistry {
 public:
  /// The process-wide registry.
  static const PartitionerRegistry& Global();

  /// Backend names in table order: the vertex family, then the edge family.
  std::vector<std::string> Names() const;

  /// Builds backend `name`. Returns nullptr and an actionable `*error`
  /// (unknown name lists the known ones; factories report missing context)
  /// on failure.
  std::unique_ptr<partition::Partitioner> Create(std::string_view name,
                                                 const EngineOptions& options,
                                                 const BuildContext& context,
                                                 std::string* error) const;
};

/// A parsed "name" / "name:key=value,key=value" backend spec string (the
/// form CLIs and bench configs pass around).
struct BackendSpec {
  std::string name;
  std::vector<std::string> overrides;  // "key=value" strings
};

/// Parses `spec`; false + actionable `*error` on malformed input (the
/// overrides are validated later, by EngineOptions::ApplyOverrides).
bool ParseBackendSpec(std::string_view spec, BackendSpec* out,
                      std::string* error);

/// One-call construction from a spec string: parses `spec`, applies its
/// overrides on top of `base`, and builds via the global registry.
std::unique_ptr<partition::Partitioner> BuildPartitioner(
    std::string_view spec, EngineOptions base, const BuildContext& context,
    std::string* error);

/// How engine::Session feeds a backend.
struct DriveConfig {
  /// Edges pulled (and handed to IngestBatch) per iteration.
  size_t batch_size = 512;
};

}  // namespace engine
}  // namespace loom

#endif  // LOOM_ENGINE_ENGINE_H_
