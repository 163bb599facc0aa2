// Dataset bundle: a labelled graph, its label registry, its canonical query
// workload, and descriptive metadata.
//
// The paper evaluates on DBLP, ProvGen, MusicBrainz and LUBM-100/4000
// (Table 1). The raw datasets are not redistributable (and at 31M-131M
// vertices far exceed a laptop-scale reproduction), so each is emulated by a
// deterministic synthetic generator that preserves what Loom's behaviour
// depends on: the label alphabet (|LV| = 8/3/12/15), the schema's edge types
// (so the workload queries actually match), heavy-tailed degree, and the
// relative dataset ordering by size.

#ifndef LOOM_DATASETS_SCHEMA_H_
#define LOOM_DATASETS_SCHEMA_H_

#include <string>

#include "graph/label_registry.h"
#include "graph/labeled_graph.h"
#include "query/query.h"

namespace loom {
namespace datasets {

struct DatasetMetadata {
  std::string name;
  bool real_world_analog = false;  // Table 1's "Real" column
  std::string description;
};

struct Dataset {
  DatasetMetadata meta;
  graph::LabelRegistry registry;
  graph::LabeledGraph graph;
  query::Workload workload;

  size_t NumVertices() const { return graph.NumVertices(); }
  size_t NumEdges() const { return graph.NumEdges(); }
  size_t NumLabels() const { return registry.size(); }
};

}  // namespace datasets
}  // namespace loom

#endif  // LOOM_DATASETS_SCHEMA_H_
