// loom::engine — the one facade every caller constructs partitioners
// through.
//
// The paper's contribution is a *family* of streaming partitioners compared
// uniformly across workloads and stream orders; this layer makes the code
// match that shape. Instead of hand-rolled constructors (and one-off
// LoomOptions/PartitionerConfig assembly in every tool, bench and example),
// callers:
//
//   engine::EngineOptions opts;              // typed, string-addressable
//   opts.Set("k", "8", &err);                // or opts.k = 8
//   engine::BuildContext ctx{&workload, num_labels};
//   auto p = engine::PartitionerRegistry::Global().Create("loom", opts, ctx,
//                                                         &err);
//
// and every run then goes through engine::Session (session.h), which pulls
// an EdgeSource into the backend's IngestBatch.
//
// Registered backends: the vertex partitioners "hash", "ldg", "fennel",
// "loom" and the edge partitioners "hdrf", "dbh", "hep" (and anything a
// client registers at runtime — multi-backend experiments plug in here).
// One-string construction ("loom:window_size=4000,alpha=0.5") is provided
// for CLIs and bench configs via BuildPartitioner/ParseBackendSpec.

#ifndef LOOM_ENGINE_ENGINE_H_
#define LOOM_ENGINE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/edge_source.h"
#include "engine/engine_options.h"
#include "engine/observer.h"
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

/// Name -> factory registry. The built-in backends are pre-registered;
/// Register() adds experimental backends without touching any call site.
class PartitionerRegistry {
 public:
  using Factory = std::function<std::unique_ptr<partition::Partitioner>(
      const EngineOptions&, const BuildContext&, std::string* error)>;

  /// The process-wide registry with the built-in backends registered.
  static PartitionerRegistry& Global();

  /// Registers `factory` under `name`. Returns false (registry unchanged)
  /// if the name is already taken.
  bool Register(const std::string& name, Factory factory);

  bool Contains(std::string_view name) const;

  /// Registered backend names, registration order (built-ins first).
  std::vector<std::string> Names() const;

  /// Builds backend `name`. Returns nullptr and an actionable `*error`
  /// (unknown name lists the registered ones; factories report missing
  /// context) on failure.
  std::unique_ptr<partition::Partitioner> Create(std::string_view name,
                                                 const EngineOptions& options,
                                                 const BuildContext& context,
                                                 std::string* error) const;

 private:
  std::vector<std::pair<std::string, Factory>> factories_;
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
