// Refiner-level tests: grouped vs full-k equivalence, anchor penalties,
// accumulator re-windowing on topology switches, exploration determinism,
// and iteration accounting.
#include <gtest/gtest.h>

#include "core/partition.h"
#include "core/refiner.h"
#include "graph/gen_planted.h"
#include "graph/gen_social.h"
#include "graph/io_partition.h"

namespace shp {
namespace {

BipartiteGraph SmallGraph(uint64_t seed = 4) {
  SocialGraphConfig config;
  config.num_users = 800;
  config.avg_degree = 8;
  config.seed = seed;
  return GenerateSocialGraph(config);
}

// A grouped topology whose single group holds both buckets of a bisection
// must behave like the full-k topology at k = 2.
TEST(Refiner, GroupedBisectionMatchesFullK) {
  const BipartiteGraph g = SmallGraph();
  RefinerOptions options;
  options.exploration_probability = 0.0;

  Partition full = Partition::BalancedRandom(g.num_data(), 2, 7);
  Partition grouped = full;

  MoveTopology full_topo = MoveTopology::FullK(2, g.num_data(), 0.05);
  MoveTopology grouped_topo;
  grouped_topo.k = 2;
  grouped_topo.full_k = false;
  grouped_topo.group_children = {{0, 1}};
  grouped_topo.group_of_bucket = {0, 0};
  grouped_topo.capacity = full_topo.capacity;

  Refiner refiner_full(g, options);
  Refiner refiner_grouped(g, options);
  for (uint64_t iter = 0; iter < 3; ++iter) {
    refiner_full.RunIteration(full_topo, &full, 1, iter);
    refiner_grouped.RunIteration(grouped_topo, &grouped, 1, iter);
  }
  EXPECT_EQ(full.assignment(), grouped.assignment())
      << "identical candidate sets and seeds must give identical moves";
}

TEST(Refiner, InactiveBucketsAreFrozen) {
  const BipartiteGraph g = SmallGraph();
  Partition partition = Partition::BalancedRandom(g.num_data(), 4, 3);
  const std::vector<BucketId> before = partition.assignment();

  // Only buckets {0, 1} form a group; 2 and 3 are not refined.
  MoveTopology topo;
  topo.k = 4;
  topo.full_k = false;
  topo.group_children = {{0, 1}};
  topo.group_of_bucket = {0, 0, -1, -1};
  topo.capacity = MoveTopology::FullK(4, g.num_data(), 0.05).capacity;

  RefinerOptions options;
  Refiner refiner(g, options);
  refiner.RunIteration(topo, &partition, 5, 0);
  for (VertexId v = 0; v < g.num_data(); ++v) {
    if (before[v] >= 2) {
      EXPECT_EQ(partition.bucket_of(v), before[v])
          << "vertices in inactive buckets must not move";
    } else {
      EXPECT_LT(partition.bucket_of(v), 2) << "group members stay in group";
    }
  }
}

TEST(Refiner, AnchorPenaltySuppressesMovement) {
  const BipartiteGraph g = SmallGraph();
  auto moved_with_penalty = [&](double penalty) {
    Partition partition = Partition::BalancedRandom(g.num_data(), 4, 9);
    const std::vector<BucketId> anchor = partition.assignment();
    const MoveTopology topo = MoveTopology::FullK(4, g.num_data(), 0.05);
    RefinerOptions options;
    Refiner refiner(g, options);
    uint64_t moved = 0;
    for (uint64_t iter = 0; iter < 5; ++iter) {
      moved += refiner
                   .RunIteration(topo, &partition, 2, iter, nullptr, &anchor,
                                 penalty)
                   .num_moved;
    }
    return moved;
  };
  const uint64_t free_moves = moved_with_penalty(0.0);
  const uint64_t heavy_moves = moved_with_penalty(1e9);
  EXPECT_EQ(heavy_moves, 0u) << "prohibitive penalty freezes everything";
  EXPECT_GT(free_moves, 0u);
}

TEST(Refiner, TopologySwitchReWindowsTheAccumulators) {
  // The refiner's accumulators hold only each vertex's group window, so a
  // new topology over an unchanged assignment must rebuild them: grouped A
  // -> grouped B (sparse groups, unrefined buckets) -> full-k, with every
  // move frozen by a prohibitive anchor penalty. After each switch the
  // proposals must equal a fresh refiner's exactly; within one topology the
  // accumulators are kept.
  const BipartiteGraph g = SmallGraph(6);
  const BucketId k = 8;
  const double eps = 0.05;
  const MoveTopology grouped_a = MoveTopology::Grouped(
      k, g.num_data(), eps, {{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  const MoveTopology grouped_b =
      MoveTopology::Grouped(k, g.num_data(), eps, {{0, 2}, {4, 5, 6}});
  const MoveTopology full = MoveTopology::FullK(k, g.num_data(), eps);
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 5);
  const std::vector<BucketId> anchor = partition.assignment();
  const double penalty = 1e9;

  RefinerOptions options;
  options.incremental_rebuild_fraction = 1.0;
  Refiner refiner(g, options);
  uint64_t iter = 0;
  uint64_t expected_builds = 0;
  for (const MoveTopology* topo : {&grouped_a, &grouped_b, &full}) {
    ++expected_builds;
    for (int round = 0; round < 2; ++round, ++iter) {
      const IterationStats stats = refiner.RunIteration(
          *topo, &partition, 3, iter, nullptr, &anchor, penalty);
      ASSERT_TRUE(stats.push_sweep);
      ASSERT_EQ(stats.num_moved, 0u) << "the anchor penalty freezes moves";
      EXPECT_EQ(refiner.num_sweep_builds(), expected_builds)
          << "topology " << expected_builds << " round " << round;
      EXPECT_EQ(refiner.num_full_rebuilds(), 1u)
          << "the neighbor data survives every switch";

      Partition copy = partition;
      Refiner fresh(g, options);
      fresh.RunIteration(*topo, &copy, 3, iter, nullptr, &anchor, penalty);
      ASSERT_EQ(refiner.targets(), fresh.targets())
          << "topology " << expected_builds << " round " << round;
      ASSERT_EQ(refiner.gains(), fresh.gains())
          << "topology " << expected_builds << " round " << round;
    }
  }
}

TEST(Refiner, GroupedSteadyRoundsPatchTheWindowedAccumulators) {
  const BipartiteGraph g = SmallGraph(8);
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::Grouped(
      k, g.num_data(), 0.05, {{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 2);
  RefinerOptions options;
  options.incremental_rebuild_fraction = 1.0;
  Refiner refiner(g, options);
  uint64_t moved = 0;
  for (uint64_t iter = 0; iter < 6; ++iter) {
    moved += refiner.RunIteration(topo, &partition, 4, iter).num_moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(refiner.num_sweep_builds(), 1u)
      << "steady grouped rounds must patch, not rebuild, the accumulators";
  const AffinitySweep& sweep = refiner.affinity_sweep();
  ASSERT_EQ(sweep.windows(), topo.AccumulatorWindows(partition.assignment()));
  for (VertexId v = 0; v < g.num_data(); ++v) {
    for (const AffinityEntry& e : sweep.Entries(v)) {
      ASSERT_TRUE(sweep.windows()[v].Contains(e.bucket)) << "v=" << v;
    }
  }
}

TEST(Refiner, DrawFloorCutsDrawsOnConvergedInstance) {
  // Superstep-4 draw floor: on a converged instance most bucket pairs carry
  // one-sided or negative-only demand, so their probability rows are all
  // zero and their draws are skipped — the draw count must drop strictly
  // below the proposal count. (core_test's PairProbabilityTable and
  // DrawsExactlyTheProposalsOnNonzeroPairs tests check that a skipped draw
  // had probability 0 and could never have fired.)
  const BipartiteGraph g = SmallGraph(11);
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  const uint64_t iterations = 14;

  Refiner refiner(g, RefinerOptions{});
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 3);
  IterationStats last;
  for (uint64_t iter = 0; iter < iterations; ++iter) {
    last = refiner.RunIteration(topo, &partition, 5, iter);
    EXPECT_LE(last.num_draws, last.num_proposals);
  }
  EXPECT_LT(last.moved_fraction, 0.02) << "instance must converge";
  EXPECT_GT(last.num_proposals, 0u);
  EXPECT_LT(last.num_draws, last.num_proposals)
      << "converged dead pairs must stop drawing";
}

TEST(Refiner, DeterministicAcrossRuns) {
  const BipartiteGraph g = SmallGraph();
  auto run = [&] {
    Partition partition = Partition::BalancedRandom(g.num_data(), 8, 3);
    const MoveTopology topo = MoveTopology::FullK(8, g.num_data(), 0.05);
    RefinerOptions options;
    options.exploration_probability = 0.05;  // exploration is hash-driven too
    Refiner refiner(g, options);
    for (uint64_t iter = 0; iter < 4; ++iter) {
      refiner.RunIteration(topo, &partition, 11, iter);
    }
    return partition.assignment();
  };
  EXPECT_EQ(run(), run());
}

TEST(Refiner, StatsAddUp) {
  const BipartiteGraph g = SmallGraph();
  Partition partition = Partition::BalancedRandom(g.num_data(), 4, 1);
  const MoveTopology topo = MoveTopology::FullK(4, g.num_data(), 0.05);
  RefinerOptions options;
  Refiner refiner(g, options);
  const IterationStats stats = refiner.RunIteration(topo, &partition, 1, 0);
  EXPECT_LE(stats.num_moved, stats.num_proposals);
  EXPECT_NEAR(stats.moved_fraction,
              static_cast<double>(stats.num_moved) / g.num_data(), 1e-12);
  partition.CheckInvariants();
}

// ---------------------------------------------------------- partition I/O
TEST(PartitionIo, RoundTrip) {
  const std::vector<BucketId> assignment = {0, 3, 1, 2, 2, 0};
  const std::string path = testing::TempDir() + "/assignment.txt";
  ASSERT_TRUE(WritePartition(assignment, path).ok());
  auto back = ReadPartition(path, 4, assignment.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), assignment);
}

TEST(PartitionIo, RejectsOutOfRangeBucket) {
  const std::string path = testing::TempDir() + "/bad_assignment.txt";
  ASSERT_TRUE(WritePartition({0, 1, 5}, path).ok());
  auto result = ReadPartition(path, 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(PartitionIo, RejectsWrongCount) {
  const std::string path = testing::TempDir() + "/short_assignment.txt";
  ASSERT_TRUE(WritePartition({0, 1}, path).ok());
  EXPECT_FALSE(ReadPartition(path, 2, 5).ok());
}

TEST(PartitionIo, SkipsComments) {
  const std::string path = testing::TempDir() + "/commented.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("% header\n0\n# mid\n1\n", f);
  std::fclose(f);
  auto result = ReadPartition(path, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);
}

}  // namespace
}  // namespace shp
