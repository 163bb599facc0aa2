#include "engine/engine.h"

#include "core/loom_partitioner.h"
#include "partition/edge/dbh_partitioner.h"
#include "partition/edge/hdrf_partitioner.h"
#include "partition/edge/hep_partitioner.h"
#include "partition/fennel_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"
#include "util/string_util.h"

namespace loom {
namespace engine {

namespace {

using Factory = std::unique_ptr<partition::Partitioner> (*)(
    const EngineOptions&, const BuildContext&, std::string* error);

struct Backend {
  std::string_view name;
  Factory make;
};

// Every backend reads what it needs from the one resolved EngineOptions.
template <typename T>
std::unique_ptr<partition::Partitioner> Make(const EngineOptions& o,
                                             const BuildContext&,
                                             std::string*) {
  return std::make_unique<T>(o);
}

constexpr Backend kBackends[] = {
    {"hash", Make<partition::HashPartitioner>},
    {"ldg", Make<partition::LdgPartitioner>},
    {"fennel", Make<partition::FennelPartitioner>},
    {"loom",
     [](const EngineOptions& o, const BuildContext& ctx,
        std::string* error) -> std::unique_ptr<partition::Partitioner> {
       if (ctx.workload == nullptr) {
         if (error != nullptr) {
           *error = "backend 'loom' needs a workload: pass a BuildContext "
                    "with context.workload set (the TPSTry++ is derived "
                    "from it)";
         }
         return nullptr;
       }
       return std::make_unique<core::LoomPartitioner>(o, *ctx.workload,
                                                      ctx.num_labels);
     }},
    // Streaming EDGE partitioners (partition/edge/): they place edges, not
    // vertices, and report the (replication factor, edge balance, edge
    // hash) quality triple through FillFinalStats.
    {"hdrf", Make<partition::edge::HdrfPartitioner>},
    {"dbh", Make<partition::edge::DbhPartitioner>},
    {"hep", Make<partition::edge::HepPartitioner>},
};

}  // namespace

const PartitionerRegistry& PartitionerRegistry::Global() {
  static const PartitionerRegistry registry;
  return registry;
}

std::vector<std::string> PartitionerRegistry::Names() const {
  std::vector<std::string> out;
  for (const Backend& b : kBackends) out.emplace_back(b.name);
  return out;
}

std::unique_ptr<partition::Partitioner> PartitionerRegistry::Create(
    std::string_view name, const EngineOptions& options,
    const BuildContext& context, std::string* error) const {
  for (const Backend& b : kBackends) {
    if (b.name == name) return b.make(options, context, error);
  }
  if (error != nullptr) {
    std::string known;
    for (const Backend& b : kBackends) {
      if (!known.empty()) known += ", ";
      known += b.name;
    }
    *error = "unknown partitioner backend '" + std::string(name) +
             "'; registered backends: " + known;
  }
  return nullptr;
}

bool ParseBackendSpec(std::string_view spec, BackendSpec* out,
                      std::string* error) {
  out->name.clear();
  out->overrides.clear();
  const size_t colon = spec.find(':');
  out->name = std::string(spec.substr(0, colon));
  if (out->name.empty()) {
    if (error != nullptr) {
      *error = "empty backend name in spec '" + std::string(spec) +
               "' (expected name or name:key=value,...)";
    }
    return false;
  }
  if (colon == std::string_view::npos) return true;
  for (std::string& kv :
       util::Split(std::string(spec.substr(colon + 1)), ',')) {
    if (!kv.empty()) out->overrides.push_back(std::move(kv));
  }
  return true;
}

std::unique_ptr<partition::Partitioner> BuildPartitioner(
    std::string_view spec, EngineOptions base, const BuildContext& context,
    std::string* error) {
  BackendSpec parsed;
  if (!ParseBackendSpec(spec, &parsed, error)) return nullptr;
  if (!base.ApplyOverrides(parsed.overrides, error)) return nullptr;
  return PartitionerRegistry::Global().Create(parsed.name, base, context,
                                              error);
}

}  // namespace engine
}  // namespace loom
