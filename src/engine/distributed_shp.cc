#include "engine/distributed_shp.h"

#include <memory>

#include "common/timer.h"
#include "engine/shp_bsp.h"

namespace shp {

DistributedShp::DistributedShp(const DistributedShpOptions& options)
    : options_(options) {}

DistributedShpReport DistributedShp::Run(const BipartiteGraph& graph,
                                         BucketId k, ThreadPool* pool) const {
  DistributedShpReport report;
  report.k = k;
  report.num_workers = options_.bsp.num_workers;

  // The factory hands every driver level a BSP refiner that appends into the
  // shared superstep log. The BspRefiner keeps cross-iteration state (replicas,
  // cached proposals), so one instance per driver-level is exactly the Giraph
  // job lifetime. The worker-state peak is sampled at every epoch end, once
  // the replicas exist (a fresh refiner holds only adjacency), before the
  // caller's own hook runs.
  auto log = std::make_shared<std::vector<SuperstepStats>>();
  auto max_state = std::make_shared<uint64_t>(0);
  const BspConfig bsp = options_.bsp;
  RefinerFactory factory =
      [log, max_state, bsp](const BipartiteGraph& g,
                            const RefinerOptions& ropts)
      -> std::unique_ptr<RefinerInterface> {
    auto self = std::make_shared<const BspRefiner*>(nullptr);
    BspConfig config = bsp;
    config.on_epoch_end = [self, max_state, hook = bsp.on_epoch_end](
                              uint64_t epoch, uint64_t executed_moves) {
      *max_state = std::max(*max_state, (*self)->MaxWorkerStateBytes());
      if (hook) hook(epoch, executed_moves);
    };
    auto refiner = std::make_unique<BspRefiner>(g, ropts, config, log.get());
    *self = refiner.get();
    return refiner;
  };

  Timer timer;
  if (options_.recursive) {
    RecursiveOptions options = options_.recursive_options;
    options.k = k;
    options.refiner_factory = factory;
    report.assignment = RecursivePartitioner(options).Run(graph, pool)
                            .assignment;
  } else {
    ShpKOptions options = options_.shpk_options;
    options.k = k;
    options.refiner_factory = factory;
    report.assignment = ShpKPartitioner(options).Run(graph, pool).assignment;
  }
  report.host_wall_seconds = timer.ElapsedSeconds();

  report.supersteps = std::move(*log);
  report.num_supersteps = report.supersteps.size();
  for (const auto& stats : report.supersteps) {
    report.total_traffic += stats.traffic;
  }
  report.simulated = CostModel(options_.cost)
                         .Total(report.supersteps, options_.bsp.num_workers);
  report.max_worker_state_bytes = *max_state;
  return report;
}

}  // namespace shp
