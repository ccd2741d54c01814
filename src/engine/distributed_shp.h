// Distributed SHP runs: SHP-k / SHP-2 executed on the simulated Giraph
// cluster (BspRefiner) with exact message accounting and cost-model timing.
// This is the harness behind Table 3 and Figure 5.
#pragma once

#include <cstdint>
#include <vector>

#include "core/recursive.h"
#include "core/shp_k.h"
#include "engine/bsp_engine.h"
#include "engine/cost_model.h"
#include "graph/bipartite_graph.h"

namespace shp {

struct DistributedShpOptions {
  BspConfig bsp;            ///< cluster shape (paper: 4, 8, 16 machines)
  CostModelConfig cost;
  bool recursive = true;    ///< true = SHP-2/r, false = SHP-k
  RecursiveOptions recursive_options;
  ShpKOptions shpk_options;
};

struct DistributedShpReport {
  std::vector<BucketId> assignment;
  BucketId k = 0;
  int num_workers = 0;
  uint64_t num_supersteps = 0;
  RouteStats total_traffic;
  /// Simulated cluster wall time / machine-seconds from the cost model.
  SimulatedTime simulated;
  /// Host wall time of the simulation itself (not a cluster estimate).
  double host_wall_seconds = 0.0;
  /// Peak estimated distributed state on the busiest worker, sampled at
  /// every epoch end (adjacency plus the query and accumulator replicas).
  uint64_t max_worker_state_bytes = 0;
  /// Per-superstep log (Fig. 5 scaling analysis drills into this).
  std::vector<SuperstepStats> supersteps;
};

class DistributedShp {
 public:
  explicit DistributedShp(const DistributedShpOptions& options);

  DistributedShpReport Run(const BipartiteGraph& graph, BucketId k,
                           ThreadPool* pool = nullptr) const;

 private:
  DistributedShpOptions options_;
};

}  // namespace shp
