// Incremental neighbor-data maintenance tests: randomized batched-move
// equivalence against a fresh Build, arena compaction behavior, executed
// move lists matching the partition delta (all broker strategies), and
// full-trajectory equivalence of the incremental refiner against the
// rebuild-everything reference path.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/move_broker.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "core/refiner.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "objective/neighbor_data.h"

namespace shp {
namespace {

BipartiteGraph TestGraph(uint64_t seed = 3) {
  PowerLawConfig config;
  config.num_queries = 300;
  config.num_data = 200;
  config.target_edges = 1400;
  config.seed = seed;
  return GeneratePowerLaw(config);
}

void ExpectSameContent(const QueryNeighborData& incremental,
                       const QueryNeighborData& fresh, const char* context) {
  ASSERT_EQ(incremental.num_queries(), fresh.num_queries()) << context;
  EXPECT_EQ(incremental.TotalEntries(), fresh.TotalEntries()) << context;
  EXPECT_TRUE(incremental.ContentEquals(fresh)) << context;
  for (VertexId q = 0; q < fresh.num_queries(); ++q) {
    const auto a = incremental.Entries(q);
    const auto b = fresh.Entries(q);
    ASSERT_EQ(a.size(), b.size()) << context << " q=" << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << context << " q=" << q << " i=" << i;
    }
  }
}

/// Draws a random batch of distinct-vertex moves and mutates `assignment`.
std::vector<VertexMove> RandomBatch(std::vector<BucketId>* assignment,
                                    BucketId k, uint64_t seed, uint64_t round,
                                    size_t batch_size) {
  std::vector<VertexMove> moves;
  const VertexId n = static_cast<VertexId>(assignment->size());
  for (size_t i = 0; i < batch_size; ++i) {
    const VertexId v = static_cast<VertexId>(
        HashToBounded(seed ^ 0xbeef, round, i, n));
    const BucketId from = (*assignment)[v];
    // Already moved this round? A round's moves must have distinct vertices.
    bool duplicate = false;
    for (const VertexMove& m : moves) duplicate |= m.v == v;
    if (duplicate) continue;
    const BucketId to = static_cast<BucketId>(
        HashToBounded(seed ^ 0xf00d, round, i + 1000, static_cast<uint64_t>(k)));
    if (to == from) continue;
    moves.push_back({v, from, to});
    (*assignment)[v] = to;
  }
  return moves;
}

TEST(NeighborDataIncremental, BatchedMovesMatchFreshBuild) {
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 11).assignment();

  QueryNeighborData incremental;
  incremental.Build(g, assignment);
  for (uint64_t round = 0; round < 30; ++round) {
    // Vary batch sizes: single-digit trickles up to bulk churn.
    const size_t batch = 1 + static_cast<size_t>(
        HashToBounded(99, round, 0, 40));
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 17, round, batch);
    std::vector<VertexId> touched;
    incremental.ApplyMoves(g, moves, nullptr, &touched);

    QueryNeighborData fresh;
    fresh.Build(g, assignment);
    ExpectSameContent(incremental, fresh, "after batch");

    // Touched-query report: exactly the queries adjacent to a moved vertex,
    // each once, ascending.
    std::vector<VertexId> expected;
    for (const VertexMove& m : moves) {
      const auto nbrs = g.DataNeighbors(m.v);
      expected.insert(expected.end(), nbrs.begin(), nbrs.end());
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(touched, expected) << "round " << round;
  }
}

TEST(NeighborDataIncremental, GrowthIntoNewBucketsAndCompaction) {
  const BipartiteGraph g = TestGraph(5);
  // Start fully concentrated: every query has fanout 1, so almost every move
  // inserts a new bucket entry and exercises slack growth + relocation.
  std::vector<BucketId> assignment(g.num_data(), 0);
  QueryNeighborData incremental;
  incremental.Build(g, assignment);

  const BucketId k = 32;
  for (uint64_t round = 0; round < 40; ++round) {
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 23, round, 25);
    incremental.ApplyMoves(g, moves);
    QueryNeighborData fresh;
    fresh.Build(g, assignment);
    ExpectSameContent(incremental, fresh, "growth round");
  }

  // Explicit compaction preserves content and drops relocation garbage to
  // the canonical fresh-build arena shape.
  QueryNeighborData fresh;
  fresh.Build(g, assignment);
  const uint64_t before = incremental.ArenaSlots();
  incremental.Compact();
  ExpectSameContent(incremental, fresh, "after Compact");
  EXPECT_LE(incremental.ArenaSlots(), before);
  EXPECT_EQ(incremental.ArenaSlots(), fresh.ArenaSlots())
      << "compacted arena must match a fresh build's layout volume";
}

TEST(NeighborDataIncremental, SingleMoveSplicesInPlace) {
  const BipartiteGraph g = TestGraph(9);
  const BucketId k = 4;
  std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 3).assignment();
  QueryNeighborData incremental;
  incremental.Build(g, assignment);

  for (uint64_t step = 0; step < 200; ++step) {
    const VertexId v = static_cast<VertexId>(
        HashToBounded(7, step, 0, g.num_data()));
    const BucketId from = assignment[v];
    const BucketId to = static_cast<BucketId>((from + 1 + step % (k - 1)) % k);
    if (to == from) continue;
    const VertexMove move{v, from, to};
    incremental.ApplyMoves(g, {&move, 1});
    assignment[v] = to;
  }
  QueryNeighborData fresh;
  fresh.Build(g, assignment);
  ExpectSameContent(incremental, fresh, "after 200 single moves");
}

TEST(NeighborDataIncremental, SignedDeltasFromEmptyMatchFreshBuild) {
  // The BSP cold start: every pin announced as +1 into empty replicas, here
  // split into unit messages, with cancelling ±2 pairs and duplicate
  // (query, bucket) runs mixed in. The fold must reproduce a counting
  // build, emit one 0 → count record per occupied (query, bucket), and
  // report every query that received a message as touched.
  const BipartiteGraph g = TestGraph(17);
  const BucketId k = 8;
  const std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 5).assignment();
  std::vector<BucketDeltaMsg> msgs;
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    for (VertexId v : g.QueryNeighbors(q)) {
      msgs.push_back({q, assignment[v], 1});
    }
    msgs.push_back({q, static_cast<BucketId>(q % k), 2});
    msgs.push_back({q, static_cast<BucketId>(q % k), -2});
  }
  ThreadPool pool(4);
  QueryNeighborData folded;
  folded.Clear(g.num_queries());
  std::vector<VertexId> touched;
  std::vector<NeighborDelta> records;
  folded.ApplyDeltas(msgs, &pool, &touched, &records);

  QueryNeighborData fresh;
  fresh.Build(g, assignment);
  ExpectSameContent(folded, fresh, "cold fold");
  EXPECT_EQ(touched.size(), static_cast<size_t>(g.num_queries()));
  std::vector<NeighborDelta> expected;
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    for (const BucketCount& e : fresh.Entries(q)) {
      expected.push_back({q, e.bucket, 0, e.count});
    }
  }
  EXPECT_EQ(records, expected);
}

// ----------------------------------------------------- executed move lists
class MoveOutcomeDelta
    : public testing::TestWithParam<MoveBrokerOptions::Strategy> {};

TEST_P(MoveOutcomeDelta, MovesMatchPartitionDelta) {
  const BipartiteGraph g = TestGraph(13);
  const BucketId k = 6;
  // Tight capacities force repair reversions, so the net list is exercised.
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.01);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 5);

  std::vector<BucketId> targets(g.num_data(), -1);
  std::vector<double> gains(g.num_data(), 0.0);
  for (VertexId v = 0; v < g.num_data(); ++v) {
    if (v % 3 == 0) continue;  // some vertices propose nothing
    targets[v] = static_cast<BucketId>(
        HashToBounded(31, 0, v, static_cast<uint64_t>(k)));
    if (targets[v] == partition.bucket_of(v)) targets[v] = -1;
    gains[v] = HashToUnitDouble(37, 1, v) - 0.3;  // mixed signs
  }

  MoveBrokerOptions options;
  options.strategy = GetParam();
  MoveBroker broker(options);
  const std::vector<BucketId> before = partition.assignment();
  const MoveOutcome outcome =
      broker.Apply(topo, targets, gains, 3, 0, &partition);

  // The move list IS the partition delta, net of repair.
  std::vector<VertexMove> expected;
  for (VertexId v = 0; v < g.num_data(); ++v) {
    if (partition.bucket_of(v) != before[v]) {
      expected.push_back({v, before[v], partition.bucket_of(v)});
    }
  }
  EXPECT_EQ(outcome.moves, expected);
  EXPECT_EQ(outcome.num_moved, expected.size());
  for (const VertexMove& m : outcome.moves) {
    EXPECT_EQ(m.to, targets[m.v]) << "a surviving move lands on its target";
    EXPECT_NE(m.from, m.to);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MoveOutcomeDelta,
    testing::Values(MoveBrokerOptions::Strategy::kPlainProbability,
                    MoveBrokerOptions::Strategy::kHistogramMatching,
                    MoveBrokerOptions::Strategy::kExactPairing));

// ------------------------------------------------ refiner path equivalence
BipartiteGraph RefinerGraph() {
  SocialGraphConfig config;
  config.num_users = 700;
  config.avg_degree = 8;
  config.seed = 21;
  return GenerateSocialGraph(config);
}

TEST(RefinerIncremental, TrajectoryMatchesFullRebuildPath) {
  const BipartiteGraph g = RefinerGraph();
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);

  RefinerOptions incremental_options;
  incremental_options.exploration_probability = 0.05;
  incremental_options.incremental = true;
  // Always patch (never high-churn fallback) so the rebuild count below is
  // exactly 1; trajectories are identical either way.
  incremental_options.incremental_rebuild_fraction = 1.0;
  RefinerOptions full_options = incremental_options;
  full_options.incremental = false;

  Partition p_incremental = Partition::BalancedRandom(g.num_data(), k, 2);
  Partition p_full = p_incremental;
  Refiner incremental(g, incremental_options);
  Refiner full(g, full_options);

  for (uint64_t iter = 0; iter < 8; ++iter) {
    const IterationStats a =
        incremental.RunIteration(topo, &p_incremental, 9, iter);
    const IterationStats b = full.RunIteration(topo, &p_full, 9, iter);
    ASSERT_EQ(p_incremental.assignment(), p_full.assignment())
        << "iteration " << iter;
    EXPECT_EQ(a.num_moved, b.num_moved);
    EXPECT_DOUBLE_EQ(a.gain_moved, b.gain_moved);
    EXPECT_EQ(b.full_rebuild, true);
    EXPECT_EQ(a.full_rebuild, iter == 0)
        << "incremental path must rebuild only on the first iteration";
  }
  EXPECT_EQ(incremental.num_full_rebuilds(), 1u);
  EXPECT_EQ(full.num_full_rebuilds(), 8u);
}

TEST(RefinerIncremental, GroupedTopologyAndAnchorsStayEquivalent) {
  const BipartiteGraph g = RefinerGraph();
  MoveTopology topo;
  topo.k = 4;
  topo.full_k = false;
  topo.group_children = {{0, 1}, {2, 3}};
  topo.group_of_bucket = {0, 0, 1, 1};
  topo.capacity = MoveTopology::FullK(4, g.num_data(), 0.05).capacity;

  Partition p_incremental = Partition::BalancedRandom(g.num_data(), 4, 6);
  Partition p_full = p_incremental;
  const std::vector<BucketId> anchor = p_incremental.assignment();

  RefinerOptions options;
  options.incremental_rebuild_fraction = 1.0;
  RefinerOptions full_options = options;
  full_options.incremental = false;
  Refiner incremental(g, options);
  Refiner full(g, full_options);
  for (uint64_t iter = 0; iter < 5; ++iter) {
    incremental.RunIteration(topo, &p_incremental, 4, iter, nullptr, &anchor,
                             0.02);
    full.RunIteration(topo, &p_full, 4, iter, nullptr, &anchor, 0.02);
    ASSERT_EQ(p_incremental.assignment(), p_full.assignment())
        << "iteration " << iter;
  }
  EXPECT_EQ(incremental.num_full_rebuilds(), 1u);
}

TEST(RefinerIncremental, ExternalPartitionChangeTriggersRebuild) {
  const BipartiteGraph g = RefinerGraph();
  const BucketId k = 4;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 8);
  RefinerOptions options;
  options.incremental_rebuild_fraction = 1.0;
  Refiner refiner(g, options);
  refiner.RunIteration(topo, &partition, 1, 0);
  refiner.RunIteration(topo, &partition, 1, 1);
  EXPECT_EQ(refiner.num_full_rebuilds(), 1u);

  // Mutate the partition behind the refiner's back: it must detect the
  // drift and rebuild rather than trust stale state.
  partition.Move(0, (partition.bucket_of(0) + 1) % k);
  partition.Move(1, (partition.bucket_of(1) + 1) % k);
  const IterationStats stats = refiner.RunIteration(topo, &partition, 1, 2);
  EXPECT_TRUE(stats.full_rebuild);
  EXPECT_EQ(refiner.num_full_rebuilds(), 2u);
  partition.CheckInvariants();
}

TEST(RefinerIncremental, SteadyStateRecomputesOnlyBlastRadius) {
  const BipartiteGraph g = RefinerGraph();
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 4);
  RefinerOptions options;
  options.exploration_probability = 0.0;
  options.incremental_rebuild_fraction = 1.0;
  Refiner refiner(g, options);

  IterationStats last;
  for (uint64_t iter = 0; iter < 20; ++iter) {
    last = refiner.RunIteration(topo, &partition, 6, iter);
    if (last.moved_fraction < 0.01) break;
  }
  // Converged: the final iterations must not be recomputing everything.
  EXPECT_LT(last.num_recomputed, g.num_data())
      << "steady-state iterations must skip clean vertices";
  EXPECT_EQ(refiner.num_full_rebuilds(), 1u);
}

}  // namespace
}  // namespace shp
