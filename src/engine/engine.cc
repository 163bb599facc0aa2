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

core::LoomOptions ToLoomOptions(const EngineOptions& o) {
  core::LoomOptions lo;
  lo.base = o.BaseConfig();
  lo.window_size = static_cast<size_t>(o.window_size);
  lo.support_threshold = o.support_threshold;
  lo.prime = o.prime;
  lo.signature_seed = o.signature_seed;
  lo.equal_opportunism.alpha = o.alpha;
  lo.equal_opportunism.balance_b = o.balance_b;
  lo.equal_opportunism.neighbor_bid_weight = o.neighbor_bid_weight;
  lo.equal_opportunism.disable_rationing = o.disable_rationing;
  lo.matcher.max_matches_per_vertex =
      static_cast<size_t>(o.max_matches_per_vertex);
  lo.compact_interval = static_cast<size_t>(o.compact_interval);
  return lo;
}

void RegisterBuiltins(PartitionerRegistry* r) {
  r->Register("hash", [](const EngineOptions& o, const BuildContext&,
                         std::string*) -> std::unique_ptr<partition::Partitioner> {
    return std::make_unique<partition::HashPartitioner>(o.BaseConfig());
  });
  r->Register("ldg", [](const EngineOptions& o, const BuildContext&,
                        std::string*) -> std::unique_ptr<partition::Partitioner> {
    return std::make_unique<partition::LdgPartitioner>(o.BaseConfig());
  });
  r->Register("fennel", [](const EngineOptions& o, const BuildContext&,
                           std::string*) -> std::unique_ptr<partition::Partitioner> {
    return std::make_unique<partition::FennelPartitioner>(o.BaseConfig(),
                                                          o.fennel_gamma);
  });
  r->Register("loom", [](const EngineOptions& o, const BuildContext& ctx,
                         std::string* error) -> std::unique_ptr<partition::Partitioner> {
    if (ctx.workload == nullptr) {
      if (error != nullptr) {
        *error = "backend 'loom' needs a workload: pass a BuildContext with "
                 "context.workload set (the TPSTry++ is derived from it)";
      }
      return nullptr;
    }
    return std::make_unique<core::LoomPartitioner>(
        ToLoomOptions(o), *ctx.workload, ctx.num_labels);
  });
  // Streaming EDGE partitioners (partition/edge/): they place edges, not
  // vertices, and report the (replication factor, edge balance, edge hash)
  // quality triple through FillFinalStats.
  r->Register("hdrf", [](const EngineOptions& o, const BuildContext&,
                         std::string*) -> std::unique_ptr<partition::Partitioner> {
    return std::make_unique<partition::edge::HdrfPartitioner>(
        o.BaseConfig(), o.lambda, o.epsilon);
  });
  r->Register("dbh", [](const EngineOptions& o, const BuildContext&,
                        std::string*) -> std::unique_ptr<partition::Partitioner> {
    return std::make_unique<partition::edge::DbhPartitioner>(o.BaseConfig());
  });
  r->Register("hep", [](const EngineOptions& o, const BuildContext&,
                        std::string*) -> std::unique_ptr<partition::Partitioner> {
    return std::make_unique<partition::edge::HepPartitioner>(
        o.BaseConfig(), o.threshold_factor, o.lambda, o.epsilon);
  });
}

}  // namespace

PartitionerRegistry& PartitionerRegistry::Global() {
  static PartitionerRegistry* registry = [] {
    auto* r = new PartitionerRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

bool PartitionerRegistry::Register(const std::string& name, Factory factory) {
  if (Contains(name)) return false;
  factories_.emplace_back(name, std::move(factory));
  return true;
}

bool PartitionerRegistry::Contains(std::string_view name) const {
  for (const auto& [n, f] : factories_) {
    if (n == name) return true;
  }
  return false;
}

std::vector<std::string> PartitionerRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [n, f] : factories_) out.push_back(n);
  return out;
}

std::unique_ptr<partition::Partitioner> PartitionerRegistry::Create(
    std::string_view name, const EngineOptions& options,
    const BuildContext& context, std::string* error) const {
  for (const auto& [n, factory] : factories_) {
    if (n != name) continue;
    return factory(options, context, error);
  }
  if (error != nullptr) {
    std::string known;
    for (const auto& [n, f] : factories_) {
      if (!known.empty()) known += ", ";
      known += n;
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
