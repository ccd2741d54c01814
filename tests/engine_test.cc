// BSP engine tests: routing/accounting, sharding, the BSP refiner's
// equivalence to the threaded refiner, Giraph-style optimizations (delta
// supersteps, message combining), and the cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/recursive.h"
#include "core/shp_k.h"
#include "engine/bsp_engine.h"
#include "engine/cost_model.h"
#include "engine/distributed_shp.h"
#include "engine/message_router.h"
#include "engine/shp_bsp.h"
#include "engine/wire_format.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "objective/objective.h"

namespace shp {
namespace {

TEST(MessageRouter, SeparatesLocalFromRemote) {
  MessageRouter<int> router(3);
  router.Send(0, 0, 1);  // local
  router.Send(0, 1, 2);  // remote
  router.Send(2, 1, 3);  // remote
  EXPECT_EQ(router.Incoming(0, 1).size(), 1u);
  const RouteStats stats = router.CollectAndClear(4);
  EXPECT_EQ(stats.local_messages, 1u);
  EXPECT_EQ(stats.remote_messages, 2u);
  EXPECT_EQ(stats.remote_bytes, 8u);
  // Cleared after collection.
  EXPECT_TRUE(router.Incoming(0, 1).empty());
}

TEST(MessageRouter, SizedCollection) {
  MessageRouter<std::vector<int>> router(2);
  router.Send(0, 1, {1, 2, 3});
  const RouteStats stats = router.CollectAndClearSized(
      [](const std::vector<int>& m) { return m.size() * sizeof(int); });
  EXPECT_EQ(stats.remote_bytes, 12u);
}

TEST(MessageRouter, PerWorkerByteCounters) {
  MessageRouter<int> router(2);
  router.Send(0, 1, 5);
  router.CollectAndClear(10);
  EXPECT_EQ(router.out_bytes()[0], 10u);
  EXPECT_EQ(router.in_bytes()[1], 10u);
  router.ResetByteCounters();
  EXPECT_EQ(router.out_bytes()[0], 0u);
}

TEST(MessageRouter, SizedCollectionCountsOnlyRemoteBytes) {
  // Local deliveries are free in Giraph ("replaced with a read from the
  // local memory"): they must count as local messages and zero bytes.
  MessageRouter<std::vector<int>> router(2);
  router.Send(0, 0, {1, 2, 3, 4});  // local
  router.Send(1, 0, {5});           // remote
  const RouteStats stats = router.CollectAndClearSized(
      [](const std::vector<int>& m) { return m.size() * sizeof(int); });
  EXPECT_EQ(stats.local_messages, 1u);
  EXPECT_EQ(stats.remote_messages, 1u);
  EXPECT_EQ(stats.remote_bytes, 4u);
  EXPECT_EQ(router.out_bytes()[0], 0u) << "local bytes never hit the wire";
  EXPECT_EQ(router.out_bytes()[1], 4u);
  EXPECT_EQ(router.in_bytes()[0], 4u);
}

TEST(MessageRouter, ByteCountersAccumulateAcrossSupersteps) {
  // The cost model's max-over-workers term reads the counters after several
  // supersteps; each CollectAndClear* must add, not overwrite.
  MessageRouter<int> router(3);
  router.Send(0, 1, 1);
  router.Send(0, 2, 2);
  const RouteStats first = router.CollectAndClear(8);
  EXPECT_EQ(first.remote_bytes, 16u);
  router.Send(0, 1, 3);
  router.Send(2, 1, 4);
  const RouteStats second = router.CollectAndClearSized(
      [](const int&) { return size_t{4}; });
  EXPECT_EQ(second.remote_bytes, 8u);
  EXPECT_EQ(router.out_bytes()[0], 8u + 8u + 4u);
  EXPECT_EQ(router.out_bytes()[2], 4u);
  EXPECT_EQ(router.in_bytes()[1], 8u + 4u + 4u);
  EXPECT_EQ(router.in_bytes()[2], 8u);
  router.ResetByteCounters();
  EXPECT_EQ(router.in_bytes()[1], 0u);
}

TEST(MessageCombiner, CombinesPerDestinationAndSurvivesReset) {
  MessageCombiner<int32_t> combiner;
  combiner.Reset(2);
  ++combiner.Slot(0, 1, 7);
  ++combiner.Slot(0, 1, 7);
  --combiner.Slot(0, 1, 9);
  ++combiner.Slot(1, 1, 7);  // different source row: independent
  EXPECT_EQ(combiner.Cell(0, 1).at(7), 2);
  EXPECT_EQ(combiner.Cell(0, 1).at(9), -1);
  EXPECT_EQ(combiner.Cell(1, 1).at(7), 1);
  EXPECT_TRUE(combiner.Cell(0, 0).empty());
  combiner.Reset(2);
  EXPECT_TRUE(combiner.Cell(0, 1).empty()) << "Reset clears combined state";
}

TEST(Sharding, CoversAllVerticesExactlyOnce) {
  const VertexSharding sharding(4, 99);
  const auto shards = VertexSharding::BuildDataShards(sharding, 1000);
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  EXPECT_EQ(total, 1000u);
  // Roughly even (hash distribution).
  for (const auto& shard : shards) {
    EXPECT_GT(shard.size(), 150u);
    EXPECT_LT(shard.size(), 350u);
  }
}

TEST(Sharding, QueryAndDataSaltsDiffer) {
  const VertexSharding sharding(16, 7);
  int differing = 0;
  for (VertexId v = 0; v < 100; ++v) {
    if (sharding.DataWorker(v) != sharding.QueryWorker(v)) ++differing;
  }
  EXPECT_GT(differing, 50) << "sides use independent hash streams";
}

BipartiteGraph TestGraph(uint64_t seed = 3) {
  SocialGraphConfig config;
  config.num_users = 1200;
  config.avg_degree = 8;
  config.seed = seed;
  return GenerateSocialGraph(config);
}

TEST(BspRefiner, QualityMatchesThreadedRefiner) {
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;

  ShpKOptions threaded_options;
  threaded_options.k = k;
  threaded_options.seed = 5;
  const ShpResult threaded = ShpKPartitioner(threaded_options).Run(g);

  ShpKOptions bsp_options = threaded_options;
  std::vector<SuperstepStats> log;
  bsp_options.refiner_factory = [&log](const BipartiteGraph& graph,
                                       const RefinerOptions& options) {
    BspConfig config;
    config.num_workers = 4;
    return std::make_unique<BspRefiner>(graph, options, config, &log);
  };
  const ShpResult bsp = ShpKPartitioner(bsp_options).Run(g);

  const double threaded_fanout = AverageFanout(g, threaded.assignment);
  const double bsp_fanout = AverageFanout(g, bsp.assignment);
  EXPECT_LT(std::abs(bsp_fanout - threaded_fanout) / threaded_fanout, 0.10)
      << "BSP and threaded engines run the same algorithm";
  EXPECT_TRUE(Partition::FromAssignment(bsp.assignment, k).IsBalanced(0.05));
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log.size() % 4, 0u) << "four supersteps per iteration (Fig. 3)";
}

// Both engines run the same superstep-1 fold, proposal, histogram and
// move-execution code, so from one starting partition their trajectories
// must agree bit for bit — for every topology, scan direction, cluster width
// and p, and under the anchor / nonpositive-filter / move-budget options.
// The fold emits one NeighborDelta per changed (query, bucket), whichever
// engine or worker count produced the counts, and both engines patch each
// vertex's push accumulator in ascending (query, bucket) order, so the
// accumulator floats match even where B^n is not dyadic (p = 0.3).
struct CrossEngineCase {
  const char* name;
  bool grouped;
  RefinerOptions::SweepMode sweep;
  int workers;
  double p = 0.5;
  double anchor_penalty = 0.0;
  bool propose_nonpositive = true;
  uint64_t max_moves = 0;
};

void ExpectBitIdenticalTrajectories(const CrossEngineCase& c) {
  SCOPED_TRACE(c.name);
  SocialGraphConfig graph_config;
  graph_config.num_users = 3000;
  graph_config.avg_degree = 8;
  graph_config.seed = 11;
  const BipartiteGraph g = GenerateSocialGraph(graph_config);
  const BucketId k = 16;
  const MoveTopology topo =
      c.grouped ? MoveTopology::Grouped(k, g.num_data(), 0.05,
                                        {{0, 1, 2, 3},
                                         {4, 5, 6, 7},
                                         {8, 9, 10, 11},
                                         {12, 13, 14, 15}})
                : MoveTopology::FullK(k, g.num_data(), 0.05);

  RefinerOptions options;
  options.p = c.p;
  options.sweep_mode = c.sweep;
  options.propose_nonpositive = c.propose_nonpositive;
  options.broker.max_moves_per_round = c.max_moves;
  BspConfig config;
  config.num_workers = c.workers;
  Refiner threaded(g, options);
  BspRefiner bsp(g, options, config);

  Partition p_threaded = Partition::BalancedRandom(g.num_data(), k, 4);
  Partition p_bsp = p_threaded;
  const std::vector<BucketId> anchor = p_threaded.assignment();
  const std::vector<BucketId>* anchor_ptr =
      c.anchor_penalty != 0.0 ? &anchor : nullptr;

  uint64_t total_moved = 0;
  // The threaded refiner folds a round's moves at the end of that round, BSP
  // at the next round's superstep 1, so BSP's record count of iteration i
  // is the threaded count of iteration i − 1 (none before the first fold).
  uint64_t threaded_records = 0;
  for (uint64_t iter = 0; iter < 15; ++iter) {
    const IterationStats a = threaded.RunIteration(
        topo, &p_threaded, 21, iter, nullptr, anchor_ptr, c.anchor_penalty);
    const IterationStats b = bsp.RunIteration(
        topo, &p_bsp, 21, iter, nullptr, anchor_ptr, c.anchor_penalty);
    ASSERT_EQ(p_threaded.assignment(), p_bsp.assignment())
        << "iteration " << iter;
    EXPECT_EQ(threaded_records, b.num_delta_records) << "iteration " << iter;
    threaded_records = a.num_delta_records;
    EXPECT_EQ(a.num_proposals, b.num_proposals) << "iteration " << iter;
    EXPECT_EQ(a.num_draws, b.num_draws) << "iteration " << iter;
    EXPECT_EQ(a.num_moved, b.num_moved) << "iteration " << iter;
    EXPECT_EQ(a.num_reverted, b.num_reverted) << "iteration " << iter;
    EXPECT_EQ(a.gain_moved, b.gain_moved) << "iteration " << iter;
    total_moved += a.num_moved;
  }
  EXPECT_GT(total_moved, 0u) << "the trajectory must move";
}

TEST(BspRefiner, TrajectoryBitIdenticalToThreadedRefiner) {
  const CrossEngineCase cases[] = {
      CrossEngineCase{"fullk_pull_w1", false,
                      RefinerOptions::SweepMode::kPull, 1},
      CrossEngineCase{"fullk_pull_w3", false,
                      RefinerOptions::SweepMode::kPull, 3},
      CrossEngineCase{"fullk_push_w1", false,
                      RefinerOptions::SweepMode::kPush, 1},
      CrossEngineCase{"fullk_push_w3", false,
                      RefinerOptions::SweepMode::kPush, 3},
      CrossEngineCase{"grouped_pull_w1", true,
                      RefinerOptions::SweepMode::kPull, 1},
      CrossEngineCase{"grouped_pull_w3", true,
                      RefinerOptions::SweepMode::kPull, 3},
      CrossEngineCase{"grouped_push_w1", true,
                      RefinerOptions::SweepMode::kPush, 1},
      CrossEngineCase{"grouped_push_w3", true,
                      RefinerOptions::SweepMode::kPush, 3},
      CrossEngineCase{"fullk_push_w1_p03", false,
                      RefinerOptions::SweepMode::kPush, 1, /*p=*/0.3},
      CrossEngineCase{"fullk_push_w3_p03", false,
                      RefinerOptions::SweepMode::kPush, 3, /*p=*/0.3},
      CrossEngineCase{"grouped_push_w1_p03", true,
                      RefinerOptions::SweepMode::kPush, 1, /*p=*/0.3},
      CrossEngineCase{"grouped_push_w3_p03", true,
                      RefinerOptions::SweepMode::kPush, 3, /*p=*/0.3},
      CrossEngineCase{"anchored_budgeted_p03", false,
                      RefinerOptions::SweepMode::kPull, 3,
                      /*p=*/0.3, /*anchor_penalty=*/0.05,
                      /*propose_nonpositive=*/false, /*max_moves=*/40}};
  for (const CrossEngineCase& c : cases) ExpectBitIdenticalTrajectories(c);
}

TEST(BspRefiner, DeltaSuperstepOneShrinksAfterFirstIteration) {
  // Giraph optimization (paper §3.3): vertices that did not move do not
  // send superstep-1 messages, so iteration 2's superstep 1 must carry far
  // fewer messages than iteration 1's (which announces everyone).
  const BipartiteGraph g = TestGraph();
  std::vector<SuperstepStats> log;
  ShpKOptions options;
  options.k = 4;
  options.max_iterations = 6;
  options.min_move_fraction = 0.0;
  options.refiner_factory = [&log](const BipartiteGraph& graph,
                                   const RefinerOptions& ropts) {
    BspConfig config;
    config.num_workers = 4;
    return std::make_unique<BspRefiner>(graph, ropts, config, &log);
  };
  ShpKPartitioner(options).Run(g);
  ASSERT_GE(log.size(), 24u);
  auto s1_messages = [&log](size_t iteration) {
    return log[iteration * 4].traffic.remote_messages +
           log[iteration * 4].traffic.local_messages;
  };
  // Early iterations move many vertices (two delta entries each), so the
  // first comparison is loose; by iteration 6 movement has decayed and the
  // delta traffic must be a small fraction of the initial announcement.
  EXPECT_LT(s1_messages(5), s1_messages(0) / 2)
      << "movement decays, so delta messages must shrink sharply";
}

TEST(BspRefiner, Superstep2VolumeBoundedByFanoutTimesEdges) {
  // Paper §3.3: superstep-2 volume ≈ Σ_q fanout(q)·(#dst) ≤ fanout·|E|.
  const BipartiteGraph g = TestGraph();
  std::vector<SuperstepStats> log;
  ShpKOptions options;
  options.k = 8;
  options.max_iterations = 1;
  options.min_move_fraction = 0.0;
  options.refiner_factory = [&log](const BipartiteGraph& graph,
                                   const RefinerOptions& ropts) {
    BspConfig config;
    config.num_workers = 4;
    return std::make_unique<BspRefiner>(graph, ropts, config, &log);
  };
  ShpKPartitioner(options).Run(g);
  ASSERT_GE(log.size(), 2u);
  const SuperstepStats& s2 = log[1];
  const uint64_t entries_upper =
      static_cast<uint64_t>(8) * g.num_edges();  // k·|E| hard bound
  EXPECT_LT(s2.traffic.remote_bytes / sizeof(BucketCount), entries_upper);
}

// Delta exchange + push sweep (sweep_mode kPush) vs the full-reship pull
// reference, across all three broker strategies and several cluster widths.
// The two exchanges accumulate floats in different orders, so the
// trajectories agree to tolerance, not bits (PR 2's contract): the Debug
// build additionally asserts the per-vertex proposal tolerance and the
// replica bit-equality inside RunIteration.
class BspDeltaExchange
    : public testing::TestWithParam<
          std::tuple<MoveBrokerOptions::Strategy, int>> {};

TEST_P(BspDeltaExchange, PushTrajectoryMatchesPullWithinTolerance) {
  const auto [strategy, workers] = GetParam();
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);

  RefinerOptions pull_options;
  pull_options.broker.strategy = strategy;
  pull_options.sweep_mode = RefinerOptions::SweepMode::kPull;
  // Always patch (no high-churn re-bootstrap) so every steady-state
  // iteration exercises the delta wire + accumulator patch path.
  pull_options.incremental_rebuild_fraction = 1.0;
  RefinerOptions push_options = pull_options;
  push_options.sweep_mode = RefinerOptions::SweepMode::kPush;
  BspConfig config;
  config.num_workers = workers;

  std::vector<SuperstepStats> pull_log;
  std::vector<SuperstepStats> push_log;
  BspRefiner pull(g, pull_options, config, &pull_log);
  BspRefiner push(g, push_options, config, &push_log);
  Partition p_pull = Partition::BalancedRandom(g.num_data(), k, 2);
  Partition p_push = p_pull;

  for (uint64_t iter = 0; iter < 6; ++iter) {
    const IterationStats a = pull.RunIteration(topo, &p_pull, 9, iter);
    const IterationStats b = push.RunIteration(topo, &p_push, 9, iter);
    EXPECT_FALSE(a.push_sweep);
    EXPECT_TRUE(b.push_sweep);
    const double f_pull = AveragePFanout(g, p_pull.assignment(), 0.5);
    const double f_push = AveragePFanout(g, p_push.assignment(), 0.5);
    ASSERT_NEAR(f_pull, f_push, 1e-6 * std::max(f_pull, f_push))
        << "iteration " << iter << " (strategy "
        << static_cast<int>(strategy) << ", W=" << workers << ")";
    if (iter > 0) {
      EXPECT_GT(b.num_delta_records, 0u)
          << "steady-state iterations must flow delta records";
    }
  }
  ASSERT_EQ(pull_log.size(), push_log.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndWidths, BspDeltaExchange,
    testing::Combine(
        testing::Values(MoveBrokerOptions::Strategy::kPlainProbability,
                        MoveBrokerOptions::Strategy::kHistogramMatching,
                        MoveBrokerOptions::Strategy::kExactPairing),
        testing::Values(1, 3, 8)));

TEST(BspRefiner, DeltaExchangeShrinksSteadyStateSuperstep2Traffic) {
  // The point of the delta exchange: steady-state superstep 2 moves
  // O(delta records), not O(Σ deg(dirty q) × touched workers). High-churn
  // early rounds re-bootstrap (full reship — the records would outweigh the
  // lists there); once movement decays, the delta supersteps must undercut
  // the full reship, and every delta-superstep remote byte must be a
  // fixed-width NeighborDelta record or fewer (the grouped varint codec
  // only shrinks them). The reship comparison uses the raw-record
  // equivalent — kRawDeltaBytes per delta record — so it holds without the
  // codec's help. The win scales with query fanout, so measure on a
  // power-law workload (hub queries with near-k fanout — the paper's
  // regime) rather than the low-degree social graph.
  PowerLawConfig pcfg;
  pcfg.num_queries = 4000;
  pcfg.num_data = 3000;
  pcfg.target_edges = 30000;
  pcfg.seed = 7;
  const BipartiteGraph g = GeneratePowerLaw(pcfg);
  const BucketId k = 32;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  BspConfig config;
  config.num_workers = 4;
  const uint64_t iterations = 14;

  auto run = [&](RefinerOptions::SweepMode mode) {
    RefinerOptions options;
    options.sweep_mode = mode;
    std::vector<SuperstepStats> log;
    BspRefiner refiner(g, options, config, &log);
    Partition partition = Partition::BalancedRandom(g.num_data(), k, 2);
    for (uint64_t iter = 0; iter < iterations; ++iter) {
      refiner.RunIteration(topo, &partition, 9, iter);
    }
    return log;
  };
  const auto pull_log = run(RefinerOptions::SweepMode::kPull);
  const auto push_log = run(RefinerOptions::SweepMode::kPush);
  ASSERT_EQ(pull_log.size(), push_log.size());
  ASSERT_EQ(push_log.size(), iterations * 4);

  // Steady state: the last half of the run.
  uint64_t pull_s2 = 0;
  uint64_t push_s2 = 0;
  uint64_t delta_supersteps = 0;
  for (size_t iter = iterations / 2; iter < iterations; ++iter) {
    pull_s2 += pull_log[iter * 4 + 1].traffic.remote_bytes;
    const SuperstepStats& s2 = push_log[iter * 4 + 1];
    if (s2.label == "2:ship-deltas+gains") {
      ++delta_supersteps;
      const uint64_t raw_bytes =
          s2.traffic.remote_messages * wire::kRawDeltaBytes;
      EXPECT_LE(s2.traffic.remote_bytes, raw_bytes)
          << "delta-mode superstep 2 ships at most fixed-width records";
      EXPECT_EQ(s2.traffic.remote_bytes == 0, raw_bytes == 0);
      push_s2 += raw_bytes;
    } else {
      push_s2 += s2.traffic.remote_bytes;
    }
  }
  EXPECT_GT(delta_supersteps, 0u)
      << "movement must decay into the delta-exchange regime";
  EXPECT_GT(pull_s2, 0u);
  EXPECT_LT(push_s2, pull_s2)
      << "delta exchange must undercut the full reship in steady state";
  // The first iteration bootstraps in both modes with the same reship.
  EXPECT_EQ(pull_log[1].traffic.remote_bytes,
            push_log[1].traffic.remote_bytes);
}

TEST(BspRefiner, GroupedDeltaExchangeShrinksSteadyStateSuperstep2Traffic) {
  // Same steady-state byte claim for the production scenario: a grouped
  // SHP-2 recursion window (sibling pairs over k = 32). The grouped pull
  // reference reships dirty queries' restricted lists; the delta exchange
  // must undercut it once movement decays.
  PowerLawConfig pcfg;
  pcfg.num_queries = 4000;
  pcfg.num_data = 3000;
  pcfg.target_edges = 30000;
  pcfg.seed = 7;
  const BipartiteGraph g = GeneratePowerLaw(pcfg);
  const BucketId k = 32;
  std::vector<std::vector<BucketId>> pairs;
  for (BucketId b = 0; b < k; b += 2) pairs.push_back({b, b + 1});
  const MoveTopology topo =
      MoveTopology::Grouped(k, g.num_data(), 0.05, std::move(pairs));
  BspConfig config;
  config.num_workers = 4;
  const uint64_t iterations = 14;

  auto run = [&](RefinerOptions::SweepMode mode) {
    RefinerOptions options;
    options.sweep_mode = mode;
    std::vector<SuperstepStats> log;
    BspRefiner refiner(g, options, config, &log);
    Partition partition = Partition::BalancedRandom(g.num_data(), k, 2);
    for (uint64_t iter = 0; iter < iterations; ++iter) {
      refiner.RunIteration(topo, &partition, 9, iter);
    }
    return log;
  };
  const auto pull_log = run(RefinerOptions::SweepMode::kPull);
  const auto push_log = run(RefinerOptions::SweepMode::kPush);
  ASSERT_EQ(push_log.size(), iterations * 4);

  uint64_t pull_s2 = 0;
  uint64_t push_s2 = 0;
  uint64_t delta_supersteps = 0;
  for (size_t iter = iterations / 2; iter < iterations; ++iter) {
    pull_s2 += pull_log[iter * 4 + 1].traffic.remote_bytes;
    const SuperstepStats& s2 = push_log[iter * 4 + 1];
    if (s2.label == "2:ship-deltas+gains") {
      ++delta_supersteps;
      const uint64_t raw_bytes =
          s2.traffic.remote_messages * wire::kRawDeltaBytes;
      EXPECT_LE(s2.traffic.remote_bytes, raw_bytes)
          << "delta-mode superstep 2 ships at most fixed-width records";
      EXPECT_EQ(s2.traffic.remote_bytes == 0, raw_bytes == 0);
      push_s2 += raw_bytes;
    } else {
      push_s2 += s2.traffic.remote_bytes;
    }
  }
  EXPECT_GT(delta_supersteps, 0u)
      << "grouped movement must decay into the delta-exchange regime";
  EXPECT_GT(pull_s2, 0u);
  EXPECT_LT(push_s2, pull_s2)
      << "grouped delta exchange must undercut the grouped full reship";
}

TEST(BspRefiner, VarintWireUndercutsRawSteadyStateSuperstep2Bytes) {
  // Once movement decays into the delta-exchange regime, the grouped varint
  // codec's steady-state superstep-2 bytes must come in well under the raw
  // 16-byte records those supersteps carry (kRawDeltaBytes × remote delta
  // records; the floor is a 25% reduction, steady state the codec sits near
  // 3 bytes/record). The codec is lossless — Debug builds verify every
  // delivered frame decodes to the sender's records.
  PowerLawConfig pcfg;
  pcfg.num_queries = 4000;
  pcfg.num_data = 3000;
  pcfg.target_edges = 30000;
  pcfg.seed = 7;
  const BipartiteGraph g = GeneratePowerLaw(pcfg);
  const BucketId k = 32;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  const uint64_t iterations = 14;

  BspConfig config;
  config.num_workers = 4;
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kPush;
  std::vector<SuperstepStats> log;
  BspRefiner refiner(g, options, config, &log);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 2);
  for (uint64_t iter = 0; iter < iterations; ++iter) {
    refiner.RunIteration(topo, &partition, 9, iter);
  }
  ASSERT_EQ(log.size(), iterations * 4);

  uint64_t raw_s2 = 0;
  uint64_t varint_s2 = 0;
  uint64_t delta_supersteps = 0;
  for (size_t iter = iterations / 2; iter < iterations; ++iter) {
    const SuperstepStats& s2 = log[iter * 4 + 1];
    if (s2.label != "2:ship-deltas+gains") continue;
    ++delta_supersteps;
    raw_s2 += s2.traffic.remote_messages * wire::kRawDeltaBytes;
    varint_s2 += s2.traffic.remote_bytes;
  }
  ASSERT_GT(delta_supersteps, 0u)
      << "movement must decay into the delta-exchange regime";
  ASSERT_GT(raw_s2, 0u);
  EXPECT_LT(varint_s2, raw_s2 - raw_s2 / 4)
      << "varint steady-state superstep-2 bytes must be >= 25% below raw";
}

TEST(BspRefiner, GroupedRoundsKeepDeltaExchangeAndReplicas) {
  // kAuto on one refiner instance alternating full-k and grouped recursion
  // windows: every round runs the delta exchange + push sweep (the full-k
  // gate is gone — grouped rounds scan the group-restricted accumulator
  // view), and the replicas survive the topology switches: one bootstrap
  // reship total, topology changes only re-slice the scan window. Debug
  // builds assert replica + proposal equivalence inside RunIteration.
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  const MoveTopology full = MoveTopology::FullK(k, g.num_data(), 0.05);
  const MoveTopology grouped = MoveTopology::Grouped(
      k, g.num_data(), 0.05, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kAuto;
  // Always patch: this test pins the replica lifecycle, not the churn
  // heuristic.
  options.incremental_rebuild_fraction = 1.0;
  BspConfig config;
  config.num_workers = 3;
  BspRefiner refiner(g, options, config);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 6);
  for (uint64_t iter = 0; iter < 8; ++iter) {
    const bool full_k_round = iter % 4 < 2;
    const IterationStats stats = refiner.RunIteration(
        full_k_round ? full : grouped, &partition, 9, iter);
    EXPECT_TRUE(stats.push_sweep)
        << "grouped rounds must stay on the delta exchange (iter " << iter
        << ")";
  }
  EXPECT_EQ(refiner.num_bootstrap_reships(), 1u)
      << "topology switches must re-slice, not reship";
  EXPECT_TRUE(Partition::FromAssignment(partition.assignment(), k)
                  .IsBalanced(0.051));
}

TEST(BspRefiner, ZeroMoveGroupedRoundKeepsReplicasFresh) {
  // A grouped round that folds the previous round's moves but itself moves
  // nothing (prohibitive anchor penalty): the fold's delta records must
  // patch the accumulator replicas — grouped rounds emit like full-k ones —
  // so the following full-k round carries on without a bootstrap reship.
  // Debug builds assert replica equality inside RunIteration.
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  const MoveTopology full = MoveTopology::FullK(k, g.num_data(), 0.05);
  const MoveTopology grouped = MoveTopology::Grouped(
      k, g.num_data(), 0.05, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kAuto;
  options.incremental_rebuild_fraction = 1.0;
  BspConfig config;
  config.num_workers = 3;
  BspRefiner refiner(g, options, config);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 6);
  uint64_t iter = 0;
  IterationStats stats;
  do {
    stats = refiner.RunIteration(full, &partition, 9, iter++);
  } while (iter < 40 && stats.num_moved == 0);
  ASSERT_GT(stats.num_moved, 0u) << "need moves pending for the grouped fold";
  const uint64_t bootstraps = refiner.num_bootstrap_reships();
  // Grouped round: folds the pending moves, executes none of its own.
  const std::vector<BucketId> anchor = partition.assignment();
  stats = refiner.RunIteration(grouped, &partition, 9, iter++, nullptr,
                               &anchor, 1e9);
  EXPECT_TRUE(stats.push_sweep);
  EXPECT_EQ(stats.num_moved, 0u) << "the repro needs a zero-move fold round";
  EXPECT_GT(stats.num_delta_records, 0u)
      << "the grouped fold must emit the patch records";
  stats = refiner.RunIteration(full, &partition, 9, iter++);
  EXPECT_TRUE(stats.push_sweep);
  EXPECT_EQ(refiner.num_bootstrap_reships(), bootstraps)
      << "no re-bootstrap across the grouped fold";
}

/// Deals each bucket's members over `children` in deterministic hash order
/// with exact quotas — the recursion driver's redistribution, reproduced for
/// manually driven level advances.
void RedistributeByQuota(Partition* partition, BucketId parent,
                         const std::vector<BucketId>& children,
                         uint64_t seed) {
  std::vector<VertexId> members;
  for (VertexId v = 0; v < partition->num_data(); ++v) {
    if (partition->bucket_of(v) == parent) members.push_back(v);
  }
  std::sort(members.begin(), members.end(), [&](VertexId a, VertexId b) {
    const uint64_t ha = HashCombine(seed, a, 0);
    const uint64_t hb = HashCombine(seed, b, 0);
    if (ha != hb) return ha < hb;
    return a < b;
  });
  size_t cursor = 0;
  for (size_t c = 0; c < children.size(); ++c) {
    size_t quota = members.size() / children.size();
    if (c + 1 == children.size()) quota = members.size() - cursor;
    for (size_t i = 0; i < quota && cursor < members.size(); ++i) {
      partition->Move(members[cursor++], children[c]);
    }
  }
}

// Grouped delta exchange vs the grouped full-reship pull reference, across
// all three broker strategies and several cluster widths, over two manually
// driven SHP-2 recursion levels (level advance = quota redistribution, the
// driver's external mutation). Trajectories agree to the established rtol
// 1e-4 fanout contract; Debug builds additionally assert the per-vertex
// proposal tolerance and replica consistency inside RunIteration.
class BspGroupedDeltaExchange
    : public testing::TestWithParam<
          std::tuple<MoveBrokerOptions::Strategy, int>> {};

TEST_P(BspGroupedDeltaExchange, TrajectoryMatchesPullAcrossRecursionLevels) {
  const auto [strategy, workers] = GetParam();
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  // SHP-2 over k = 8: level 1 splits [0,8) into {0,4}; level 2 splits the
  // halves into {{0,2},{4,6}}.
  const MoveTopology level1 =
      MoveTopology::Grouped(k, g.num_data(), 0.05, {{0, 4}});
  const MoveTopology level2 =
      MoveTopology::Grouped(k, g.num_data(), 0.05, {{0, 2}, {4, 6}});

  RefinerOptions pull_options;
  pull_options.broker.strategy = strategy;
  pull_options.sweep_mode = RefinerOptions::SweepMode::kPull;
  pull_options.incremental_rebuild_fraction = 1.0;
  RefinerOptions push_options = pull_options;
  push_options.sweep_mode = RefinerOptions::SweepMode::kPush;
  BspConfig config;
  config.num_workers = workers;

  BspRefiner pull(g, pull_options, config);
  BspRefiner push(g, push_options, config);
  Partition p_pull(g.num_data(), k);  // all in bucket 0 = the root node
  Partition p_push(g.num_data(), k);
  RedistributeByQuota(&p_pull, 0, {0, 4}, 0x5eed);
  RedistributeByQuota(&p_push, 0, {0, 4}, 0x5eed);

  uint64_t iter = 0;
  uint64_t push_delta_records = 0;
  const auto run_level = [&](const MoveTopology& topo) {
    for (int i = 0; i < 4; ++i, ++iter) {
      const IterationStats a = pull.RunIteration(topo, &p_pull, 9, iter);
      const IterationStats b = push.RunIteration(topo, &p_push, 9, iter);
      EXPECT_FALSE(a.push_sweep);
      EXPECT_TRUE(b.push_sweep);
      push_delta_records += b.num_delta_records;
      const double f_pull = AveragePFanout(g, p_pull.assignment(), 0.5);
      const double f_push = AveragePFanout(g, p_push.assignment(), 0.5);
      ASSERT_NEAR(f_pull, f_push, 1e-4 * std::max(f_pull, f_push))
          << "iteration " << iter << " (strategy "
          << static_cast<int>(strategy) << ", W=" << workers << ")";
    }
  };
  run_level(level1);
  // Level advance: the driver's redistribution, applied to each trajectory.
  RedistributeByQuota(&p_pull, 0, {0, 2}, 0xfeed);
  RedistributeByQuota(&p_pull, 4, {4, 6}, 0xfeed);
  RedistributeByQuota(&p_push, 0, {0, 2}, 0xfeed);
  RedistributeByQuota(&p_push, 4, {4, 6}, 0xfeed);
  run_level(level2);

  EXPECT_GT(push_delta_records, 0u)
      << "grouped steady-state iterations must flow delta records";
  EXPECT_EQ(push.num_bootstrap_reships(), 1u)
      << "the level advance must re-restrict the replicas, not reship them";
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndWidths, BspGroupedDeltaExchange,
    testing::Combine(
        testing::Values(MoveBrokerOptions::Strategy::kPlainProbability,
                        MoveBrokerOptions::Strategy::kHistogramMatching,
                        MoveBrokerOptions::Strategy::kExactPairing),
        testing::Values(1, 3, 8)));

TEST(BspRefiner, RecursionLevelAdvanceReRestrictsWithoutBootstrapReship) {
  // The real SHP-2/r driver with one BSP refiner reused across levels
  // (constant gain base: future-split objective off): the whole recursion
  // performs exactly one bootstrap reship — every later level advance
  // re-restricts the accumulator replicas through the diff-scan records.
  const BipartiteGraph g = TestGraph();
  RecursiveOptions options;
  options.k = 8;
  options.seed = 5;
  options.iterations_per_level = 4;
  options.future_split_objective = false;
  options.refiner.sweep_mode = RefinerOptions::SweepMode::kPush;
  options.refiner.incremental_rebuild_fraction = 1.0;
  // The driver owns (and destroys) the refiner it gets from the factory, so
  // hand it a forwarding proxy and keep the real engine alive in the test to
  // read its counters after Run returns.
  struct Proxy : RefinerInterface {
    std::shared_ptr<BspRefiner> impl;
    IterationStats RunIteration(const MoveTopology& topo,
                                Partition* partition, uint64_t seed,
                                uint64_t iteration, ThreadPool* pool,
                                const std::vector<BucketId>* anchor,
                                double anchor_penalty) override {
      return impl->RunIteration(topo, partition, seed, iteration, pool,
                                anchor, anchor_penalty);
    }
  };
  std::shared_ptr<BspRefiner> refiner;
  int factory_calls = 0;
  options.refiner_factory = [&](const BipartiteGraph& graph,
                                const RefinerOptions& ropts)
      -> std::unique_ptr<RefinerInterface> {
    ++factory_calls;
    BspConfig config;
    config.num_workers = 4;
    refiner = std::make_shared<BspRefiner>(graph, ropts, config);
    auto proxy = std::make_unique<Proxy>();
    proxy->impl = refiner;
    return proxy;
  };
  const RecursiveResult result = RecursivePartitioner(options).Run(g);
  EXPECT_EQ(result.levels_run, 3u);
  EXPECT_EQ(factory_calls, 1)
      << "a constant gain base must reuse one refiner across levels";
  ASSERT_NE(refiner, nullptr);
  EXPECT_EQ(refiner->num_bootstrap_reships(), 1u)
      << "level advances must patch the replicas, never reship";
  EXPECT_TRUE(Partition::FromAssignment(result.assignment, 8)
                  .IsBalanced(0.051));
}

TEST(BspRefiner, ExternalPartitionMutationSelfHeals) {
  // The replica guard must detect an externally mutated partition, re-sync
  // the query replicas through the per-vertex diff scan, and keep the
  // delta-patched accumulators consistent (Debug builds assert replica
  // equality inside RunIteration).
  const BipartiteGraph g = TestGraph();
  const BucketId k = 4;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  options.sweep_mode = RefinerOptions::SweepMode::kPush;
  BspConfig config;
  config.num_workers = 3;
  BspRefiner refiner(g, options, config);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 5);
  refiner.RunIteration(topo, &partition, 9, 0);
  refiner.RunIteration(topo, &partition, 9, 1);
  // Mutate behind the refiner's back (the recursive driver does this when
  // redistributing between levels).
  for (VertexId v = 0; v < 50; ++v) {
    partition.Move(v, (partition.bucket_of(v) + 1) % k);
  }
  const IterationStats healed = refiner.RunIteration(topo, &partition, 9, 2);
  EXPECT_TRUE(healed.full_rebuild) << "mutation must trigger the diff scan";
  const IterationStats steady = refiner.RunIteration(topo, &partition, 9, 3);
  EXPECT_FALSE(steady.full_rebuild) << "healed state carries incrementally";
}

TEST(BspRefiner, WorkerStateEstimatePositive) {
  const BipartiteGraph g = TestGraph();
  RefinerOptions options;
  BspConfig config;
  config.num_workers = 4;
  BspRefiner refiner(g, options, config);
  EXPECT_GT(refiner.MaxWorkerStateBytes(), 0u);
}

TEST(CostModel, MoreBytesCostsMoreTime) {
  CostModelConfig config;
  CostModel model(config);
  SuperstepStats cheap;
  cheap.work_units = {100, 100};
  SuperstepStats heavy = cheap;
  heavy.traffic.remote_bytes = 1000000;
  EXPECT_GT(model.SuperstepSecondsEven(heavy, 2),
            model.SuperstepSecondsEven(cheap, 2));
}

TEST(CostModel, SlowestWorkerGates) {
  CostModelConfig config;
  config.barrier_ns = 0;
  config.ns_per_remote_byte = 0;
  CostModel model(config);
  SuperstepStats stats;
  stats.work_units = {10, 1000, 10};
  EXPECT_DOUBLE_EQ(
      model.SuperstepSeconds(stats, {0, 0, 0}),
      1000 * config.ns_per_work_unit * 1e-9);
}

TEST(CostModel, TotalAccumulatesAndScalesMachineSeconds) {
  CostModel model({});
  SuperstepStats stats;
  stats.work_units = {100};
  const SimulatedTime time = model.Total({stats, stats}, 4);
  EXPECT_GT(time.seconds, 0.0);
  EXPECT_DOUBLE_EQ(time.machine_seconds, time.seconds * 4);
}

TEST(DistributedShp, ReportIsConsistent) {
  const BipartiteGraph g = TestGraph();
  DistributedShpOptions options;
  options.bsp.num_workers = 4;
  options.recursive = true;
  const DistributedShpReport report = DistributedShp(options).Run(g, 8);
  EXPECT_EQ(report.k, 8);
  EXPECT_EQ(report.assignment.size(), g.num_data());
  EXPECT_GT(report.num_supersteps, 0u);
  EXPECT_EQ(report.num_supersteps % 4, 0u);
  EXPECT_GT(report.simulated.seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.simulated.machine_seconds,
                   report.simulated.seconds * 4);
  EXPECT_TRUE(Partition::FromAssignment(report.assignment, 8)
                  .IsBalanced(0.05));
}

TEST(DistributedShp, MoreWorkersMoreCommunication) {
  const BipartiteGraph g = TestGraph();
  auto traffic = [&](int workers) {
    DistributedShpOptions options;
    options.bsp.num_workers = workers;
    options.recursive = true;
    options.recursive_options.seed = 9;
    return DistributedShp(options).Run(g, 4).total_traffic.remote_bytes;
  };
  // With more workers a larger fraction of edges crosses machines.
  EXPECT_GT(traffic(8), traffic(2));
}

TEST(BspRefiner, EpochEndCallbackFiresPerIteration) {
  // The serving loop hangs its epoch bookkeeping off on_epoch_end: it must
  // fire exactly once per completed iteration, on the driver thread, with
  // the executed move count of that iteration.
  const BipartiteGraph g = TestGraph();
  const BucketId k = 4;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  BspConfig config;
  config.num_workers = 3;
  std::vector<std::pair<uint64_t, uint64_t>> calls;
  config.on_epoch_end = [&calls](uint64_t epoch, uint64_t moves) {
    calls.emplace_back(epoch, moves);
  };
  BspRefiner refiner(g, options, config);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 5);
  std::vector<uint64_t> moved;
  for (uint64_t iter = 0; iter < 3; ++iter) {
    moved.push_back(refiner.RunIteration(topo, &partition, 9, iter).num_moved);
  }
  ASSERT_EQ(calls.size(), 3u);
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, i);
    EXPECT_EQ(calls[i].second, moved[i]);
  }
}

TEST(BspRefiner, MoveBudgetCapsIteration) {
  // SetMoveBudget flows through BspConfig-independent broker options into
  // superstep 4's trim: no iteration may exceed it, on either engine.
  const BipartiteGraph g = TestGraph();
  const BucketId k = 4;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  BspConfig config;
  config.num_workers = 3;
  BspRefiner bsp(g, options, config);
  Refiner threaded(g, options);
  for (RefinerInterface* refiner :
       std::initializer_list<RefinerInterface*>{&bsp, &threaded}) {
    Partition partition = Partition::BalancedRandom(g.num_data(), k, 5);
    // First iteration unlimited: from a random start the refiner moves far
    // more than the budget we are about to impose.
    const IterationStats free_run =
        refiner->RunIteration(topo, &partition, 9, 0);
    EXPECT_GT(free_run.num_moved, 50u);
    refiner->SetMoveBudget(50);
    for (uint64_t iter = 1; iter < 4; ++iter) {
      const IterationStats stats =
          refiner->RunIteration(topo, &partition, 9, iter);
      EXPECT_LE(stats.num_moved, 50u);
    }
    refiner->SetMoveBudget(0);
    // 0 restores unlimited (no crash, no residual cap semantics to assert
    // beyond the run completing).
    refiner->RunIteration(topo, &partition, 9, 4);
  }
}

}  // namespace
}  // namespace shp
