// Query-major affinity sweep tests: NeighborDelta emission from ApplyMoves
// (one record per changed (q, bucket) vs before/after CountFor diffs),
// accumulator build/patch equivalence with a fresh build, windowed
// accumulators against the window slice of an unwindowed build,
// thread-count independence, pull-vs-push best-target consistency
// (tie-breaks, restricted windows, empty-window fallback), and the
// refiner-level pull-vs-push tolerance harness across all three MoveBroker
// strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/move_broker.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "core/refiner.h"
#include "graph/gen_powerlaw.h"
#include "graph/gen_social.h"
#include "graph/graph_builder.h"
#include "objective/affinity_sweep.h"
#include "objective/gain.h"
#include "objective/neighbor_data.h"
#include "objective/objective.h"
#include "objective/pow_table.h"

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

uint64_t PackQB(VertexId q, BucketId b) {
  return (static_cast<uint64_t>(q) << 32) | static_cast<uint32_t>(b);
}

// ------------------------------------------------------- delta emission API
TEST(DeltaEmission, RecordsGoFromBeforeToAfterCounts) {
  const BipartiteGraph g = TestGraph();
  const BucketId k = 8;
  std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 11).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);

  for (uint64_t round = 0; round < 30; ++round) {
    // The fold emits one record per (q, bucket) whose count changed, in
    // strictly ascending (q, bucket) order, carrying the before and after
    // counts; replaying the records over a snapshot of the before-counts
    // must reproduce the after-counts exactly — no change lost, none
    // fabricated.
    std::unordered_map<uint64_t, uint32_t> tracked;
    for (VertexId q = 0; q < g.num_queries(); ++q) {
      for (const BucketCount& e : ndata.Entries(q)) {
        tracked[PackQB(q, e.bucket)] = e.count;
      }
    }

    const size_t batch =
        1 + static_cast<size_t>(HashToBounded(99, round, 0, 40));
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 17, round, batch);
    std::vector<NeighborDelta> deltas;
    ndata.ApplyMoves(g, moves, nullptr, nullptr, &deltas);

    for (size_t i = 0; i < deltas.size(); ++i) {
      const NeighborDelta& rec = deltas[i];
      const uint64_t key = PackQB(rec.q, rec.bucket);
      if (i > 0) {
        ASSERT_LT(PackQB(deltas[i - 1].q, deltas[i - 1].bucket), key)
            << "records are strictly ascending and unique per (q, bucket)";
      }
      ASSERT_NE(rec.old_count, rec.new_count) << "only changed counts emit";
      const auto it = tracked.find(key);
      const uint32_t before = it == tracked.end() ? 0 : it->second;
      ASSERT_EQ(before, rec.old_count)
          << "round " << round << " q=" << rec.q << " b=" << rec.bucket;
      ASSERT_EQ(ndata.CountFor(rec.q, rec.bucket), rec.new_count)
          << "round " << round << " q=" << rec.q << " b=" << rec.bucket;
      tracked[key] = rec.new_count;
    }
    for (VertexId q = 0; q < g.num_queries(); ++q) {
      for (BucketId b = 0; b < k; ++b) {
        const auto it = tracked.find(PackQB(q, b));
        const uint32_t replayed = it == tracked.end() ? 0 : it->second;
        ASSERT_EQ(replayed, ndata.CountFor(q, b))
            << "round " << round << " q=" << q << " b=" << b;
      }
    }
  }
}

TEST(DeltaEmission, UntouchedQueriesEmitNothing) {
  const BipartiteGraph g = TestGraph(5);
  const BucketId k = 4;
  std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 7).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);

  // Two vertices in different buckets that share a query swap buckets: on
  // every shared query the moves cancel (A→B plus B→A).
  VertexId v1 = 0;
  VertexId v2 = 0;
  for (VertexId q = 0; q < g.num_queries() && v1 == v2; ++q) {
    const auto nbrs = g.QueryNeighbors(q);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      if (assignment[nbrs[i]] != assignment[nbrs[0]]) {
        v1 = nbrs[0];
        v2 = nbrs[i];
        break;
      }
    }
  }
  ASSERT_NE(v1, v2);
  const BucketId a = assignment[v1];
  const BucketId b = assignment[v2];
  const VertexMove moves[] = {{v1, a, b}, {v2, b, a}};
  std::vector<NeighborDelta> deltas;
  std::vector<VertexId> touched;
  ndata.ApplyMoves(g, moves, nullptr, &touched, &deltas);

  const auto n1 = g.DataNeighbors(v1);
  const auto n2 = g.DataNeighbors(v2);
  const auto adjacent = [](std::span<const VertexId> nbrs, VertexId q) {
    return std::binary_search(nbrs.begin(), nbrs.end(), q);
  };
  size_t exclusive = 0;  // queries adjacent to exactly one of v1, v2
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    const bool in1 = adjacent(n1, q);
    const bool in2 = adjacent(n2, q);
    if (in1 != in2) ++exclusive;
    EXPECT_EQ(std::binary_search(touched.begin(), touched.end(), q),
              in1 || in2)
        << "every query that received a delta is touched, q=" << q;
  }
  for (const NeighborDelta& rec : deltas) {
    EXPECT_TRUE(adjacent(n1, rec.q) != adjacent(n2, rec.q))
        << "record for q=" << rec.q
        << ", which is untouched or whose moves cancel";
    EXPECT_TRUE(rec.bucket == a || rec.bucket == b);
  }
  // One record per changed (query, bucket): both buckets of every query
  // adjacent to exactly one mover.
  EXPECT_EQ(deltas.size(), 2 * exclusive);
}

// ------------------------------------------------------ accumulator content
TEST(AffinitySweep, BuildMatchesBruteForce) {
  const BipartiteGraph g = TestGraph(9);
  const BucketId k = 8;
  const double p = 0.5;
  const auto assignment = Partition::Random(g.num_data(), k, 3).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const PowTable pow(1.0 - p, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);

  AffinitySweep sweep;
  sweep.Build(g, ndata, pow);

  for (VertexId v = 0; v < g.num_data(); ++v) {
    for (BucketId b = 0; b < k; ++b) {
      double expected = 0.0;
      uint32_t support = 0;
      for (VertexId q : g.DataNeighbors(v)) {
        const uint32_t c = ndata.CountFor(q, b);
        if (c == 0) continue;
        ++support;
        expected += 1.0 - pow.Pow(c);
      }
      EXPECT_NEAR(sweep.AffinityFor(v, b), expected, 1e-12)
          << "v=" << v << " b=" << b;
      const auto entries = sweep.Entries(v);
      const auto it = std::find_if(
          entries.begin(), entries.end(),
          [b](const AffinityEntry& e) { return e.bucket == b; });
      EXPECT_EQ(it == entries.end() ? 0u : it->support, support);
    }
  }
}

TEST(AffinitySweep, ApplyDeltasMatchesFreshBuild) {
  const BipartiteGraph g = TestGraph(13);
  const BucketId k = 16;
  const double p = 0.5;
  // Start fully concentrated so early batches constantly occupy new buckets
  // and exercise slack growth, overflow relocation, and entry removal.
  std::vector<BucketId> assignment(g.num_data(), 0);
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const PowTable pow(1.0 - p, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);

  AffinitySweep sweep;
  sweep.Build(g, ndata, pow);
  for (uint64_t round = 0; round < 40; ++round) {
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 23, round, 25);
    std::vector<NeighborDelta> deltas;
    ndata.ApplyMoves(g, moves, nullptr, nullptr, &deltas);
    sweep.ApplyDeltas(g, deltas, pow);

    AffinitySweep fresh;
    fresh.Build(g, ndata, pow);
    ASSERT_TRUE(sweep.ApproxEquals(fresh, 1e-9, 1e-9)) << "round " << round;
    ASSERT_EQ(sweep.TotalEntries(), fresh.TotalEntries()) << "round " << round;
  }

  // Compaction preserves content and drops relocation garbage.
  const uint64_t before = sweep.ArenaSlots();
  sweep.Compact();
  AffinitySweep fresh;
  fresh.Build(g, ndata, pow);
  EXPECT_TRUE(sweep.ApproxEquals(fresh, 1e-9, 1e-9));
  EXPECT_LE(sweep.ArenaSlots(), before);
  EXPECT_EQ(sweep.ArenaSlots(), fresh.ArenaSlots());
}

TEST(AffinitySweepSharded, BuildShardedMatchesUnshardedBuild) {
  // The owner-sharded build (BSP hash placement) merges each vertex's
  // contributions in the same ascending query order as the contiguous-range
  // Build, so the accumulators are bit-identical — only the ownership
  // filter differs.
  const BipartiteGraph g = TestGraph(17);
  const BucketId k = 8;
  const double p = 0.5;
  const PowTable pow(1.0 - p, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  const std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 3).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);

  AffinitySweep base;
  base.Build(g, ndata, pow);
  const int num_shards = 3;
  std::vector<int32_t> owner(g.num_data());
  for (VertexId v = 0; v < g.num_data(); ++v) {
    owner[v] = static_cast<int32_t>(HashToBounded(77, v, 1, num_shards));
  }
  AffinitySweep sharded;
  const std::vector<uint64_t> work =
      sharded.BuildSharded(g, ndata, pow, owner, num_shards);
  ASSERT_EQ(work.size(), static_cast<size_t>(num_shards));
  EXPECT_GT(work[0] + work[1] + work[2], 0u);
  EXPECT_EQ(sharded.TotalEntries(), base.TotalEntries());
  for (VertexId v = 0; v < g.num_data(); ++v) {
    const auto a = base.Entries(v);
    const auto b = sharded.Entries(v);
    ASSERT_EQ(a.size(), b.size()) << "v=" << v;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "v=" << v << " i=" << i;
    }
  }
}

TEST(AffinitySweepSharded, BootstrapReadsAdjacencyExactlyOnceForAnyShardCount) {
  // The one-pass bootstrap bins pins by owner shard and merges per shard —
  // each (query, data-neighbor) pin is read exactly once, so the adjacency
  // read counter must equal num_edges() for every worker count W (the old
  // layout streamed the full adjacency once PER shard: W × |E|). Accumulator
  // content must stay identical across W.
  const BipartiteGraph g = TestGraph(23);
  const BucketId k = 8;
  const double p = 0.5;
  const PowTable pow(1.0 - p, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  const std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 5).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);

  AffinitySweep reference;
  bool have_reference = false;
  for (const int num_shards : {1, 3, 8}) {
    std::vector<int32_t> owner(g.num_data());
    for (VertexId v = 0; v < g.num_data(); ++v) {
      owner[v] = static_cast<int32_t>(HashToBounded(55, v, 3, num_shards));
    }
    AffinitySweep sweep;
    sweep.BuildSharded(g, ndata, pow, owner, num_shards);
    EXPECT_EQ(sweep.last_build_adjacency_reads(), g.num_edges())
        << "W=" << num_shards;
    if (!have_reference) {
      reference.BuildSharded(g, ndata, pow, owner, 1);
      have_reference = true;
    }
    ASSERT_EQ(sweep.TotalEntries(), reference.TotalEntries())
        << "W=" << num_shards;
    for (VertexId v = 0; v < g.num_data(); ++v) {
      const auto a = reference.Entries(v);
      const auto b = sweep.Entries(v);
      ASSERT_EQ(a.size(), b.size()) << "W=" << num_shards << " v=" << v;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "W=" << num_shards << " v=" << v;
      }
    }
  }
  // The threaded variant keeps the single-pass guarantee.
  ThreadPool pool(4);
  std::vector<int32_t> owner(g.num_data());
  for (VertexId v = 0; v < g.num_data(); ++v) {
    owner[v] = static_cast<int32_t>(HashToBounded(55, v, 3, 4));
  }
  AffinitySweep threaded;
  threaded.BuildSharded(g, ndata, pow, owner, 4, &pool);
  EXPECT_EQ(threaded.last_build_adjacency_reads(), g.num_edges());
}

TEST(AffinitySweepSharded, ApplyDeltasShardedMatchesFreshBuild) {
  // BSP wiring: every worker receives the records of queries with neighbors
  // in its shard and patches only owned vertices. Broadcasting the full
  // record list to every shard must therefore be equivalent to a fresh
  // owner-sharded build (the ownership filter discards the rest).
  const BipartiteGraph g = TestGraph(29);
  const BucketId k = 16;
  const double p = 0.5;
  const PowTable pow(1.0 - p, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  std::vector<BucketId> assignment(g.num_data(), 0);
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const int num_shards = 4;
  std::vector<int32_t> owner(g.num_data());
  for (VertexId v = 0; v < g.num_data(); ++v) {
    owner[v] = static_cast<int32_t>(HashToBounded(13, v, 2, num_shards));
  }

  AffinitySweep sweep;
  sweep.BuildSharded(g, ndata, pow, owner, num_shards);
  for (uint64_t round = 0; round < 30; ++round) {
    const std::vector<VertexMove> moves =
        RandomBatch(&assignment, k, 41, round, 25);
    std::vector<NeighborDelta> deltas;
    ndata.ApplyMoves(g, moves, nullptr, nullptr, &deltas);
    const std::vector<std::span<const NeighborDelta>> inboxes(
        num_shards, std::span<const NeighborDelta>(deltas));
    const std::vector<uint64_t> work =
        sweep.ApplyDeltasSharded(g, inboxes, pow, &owner);
    ASSERT_EQ(work.size(), static_cast<size_t>(num_shards));

    AffinitySweep fresh;
    fresh.BuildSharded(g, ndata, pow, owner, num_shards);
    ASSERT_TRUE(sweep.ApproxEquals(fresh, 1e-9, 1e-9)) << "round " << round;
    ASSERT_EQ(sweep.TotalEntries(), fresh.TotalEntries()) << "round " << round;
  }
}

TEST(AffinitySweep, PatchIsThreadCountInvariant) {
  const BipartiteGraph g = TestGraph(21);
  const BucketId k = 8;
  const double p = 0.3;
  const PowTable pow(1.0 - p, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  ThreadPool pool1(1);
  ThreadPool pool4(4);

  std::vector<BucketId> a1 = Partition::Random(g.num_data(), k, 5).assignment();
  std::vector<BucketId> a4 = a1;
  QueryNeighborData nd1, nd4;
  nd1.Build(g, a1, &pool1);
  nd4.Build(g, a4, &pool4);
  AffinitySweep s1, s4;
  s1.Build(g, nd1, pow, &pool1);
  s4.Build(g, nd4, pow, &pool4);

  for (uint64_t round = 0; round < 10; ++round) {
    const std::vector<VertexMove> moves = RandomBatch(&a1, k, 31, round, 20);
    a4 = a1;
    std::vector<NeighborDelta> d1, d4;
    nd1.ApplyMoves(g, moves, &pool1, nullptr, &d1);
    nd4.ApplyMoves(g, moves, &pool4, nullptr, &d4);
    ASSERT_EQ(d1, d4) << "the fold's records do not depend on thread count";
    s1.ApplyDeltas(g, d1, pow, &pool1);
    s4.ApplyDeltas(g, d4, pow, &pool4);
    for (VertexId v = 0; v < g.num_data(); ++v) {
      const auto e1 = s1.Entries(v);
      const auto e4 = s4.Entries(v);
      ASSERT_EQ(e1.size(), e4.size()) << "v=" << v;
      for (size_t i = 0; i < e1.size(); ++i) {
        // Bitwise-equal floats: canonical records make the patched
        // accumulators independent of the emitting/applying thread counts.
        ASSERT_EQ(e1[i], e4[i]) << "v=" << v << " i=" << i;
      }
    }
  }
}

// ----------------------------------------- pull vs push target consistency
TEST(PullPushTargets, AgreeOnRandomGraphsAndRestrictedWindows) {
  for (const double p : {0.1, 0.5, 0.9}) {
    const BipartiteGraph g = TestGraph(7);
    const BucketId k = 8;
    const auto assignment = Partition::Random(g.num_data(), k, 2).assignment();
    QueryNeighborData ndata;
    ndata.Build(g, assignment);
    const GainComputer gain(p, static_cast<uint32_t>(g.MaxQueryDegree()));
    AffinitySweep sweep;
    sweep.Build(g, ndata, gain.pow_table());

    std::vector<double> affinity(static_cast<size_t>(k), 0.0);
    std::vector<BucketId> touched;
    const std::pair<BucketId, BucketId> windows[] = {{0, k}, {2, 6}, {5, 6}};
    for (const auto& [wb, we] : windows) {
      for (VertexId v = 0; v < g.num_data(); ++v) {
        if (g.DataDegree(v) == 0) continue;
        const BucketId from = assignment[v];
        const auto pull =
            gain.FindBestTarget(g, ndata, v, from, wb, we, &affinity, &touched);
        const auto push = gain.FindBestTargetPush(
            sweep, v, from, wb, we, static_cast<double>(g.DataDegree(v)));
        ASSERT_EQ(pull.bucket == -1, push.bucket == -1)
            << "p=" << p << " v=" << v << " window [" << wb << "," << we << ")";
        if (pull.bucket == -1) continue;
        EXPECT_NEAR(pull.gain, push.gain,
                    1e-9 + 1e-6 * std::fabs(pull.gain))
            << "p=" << p << " v=" << v;
        if (pull.bucket != push.bucket) {
          // Divergent picks are legal only on an affinity tie ≤ 1e-9:
          // evaluate both in the pull frame.
          const double g_pull = gain.MoveGain(g, ndata, v, from, pull.bucket);
          const double g_push = gain.MoveGain(g, ndata, v, from, push.bucket);
          EXPECT_NEAR(g_pull, g_push, 1e-9)
              << "p=" << p << " v=" << v << " pull->" << pull.bucket
              << " push->" << push.bucket;
        }
      }
    }
  }
}

/// Graph where data vertex 0 has two queries with exactly symmetric mass in
/// buckets 1 and 2: q0 = {0, 1}, q1 = {0, 2}, v1 -> bucket 1, v2 -> bucket 2.
BipartiteGraph TieGraph() {
  GraphBuilder builder;
  builder.AddHyperedge(0, {0, 1});
  builder.AddHyperedge(1, {0, 2});
  return builder.Build();
}

TEST(PullPushTargets, ExactTieBreaksToLowerBucketOnBothPaths) {
  const BipartiteGraph g = TieGraph();
  const std::vector<BucketId> assignment = {0, 1, 2};
  const BucketId k = 4;
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const GainComputer gain(0.5, static_cast<uint32_t>(g.MaxQueryDegree()));
  AffinitySweep sweep;
  sweep.Build(g, ndata, gain.pow_table());

  std::vector<double> affinity(static_cast<size_t>(k), 0.0);
  std::vector<BucketId> touched;
  // Buckets 1 and 2 have identical affinity (one neighbor each, identical
  // float contributions); both scan paths must deterministically pick the
  // lower bucket id.
  const auto pull =
      gain.FindBestTarget(g, ndata, 0, 0, 0, k, &affinity, &touched);
  const auto push = gain.FindBestTargetPush(sweep, 0, 0, 0, k, 2.0);
  EXPECT_EQ(pull.bucket, 1);
  EXPECT_EQ(push.bucket, 1);
  EXPECT_NEAR(pull.gain, push.gain, 1e-12);
}

TEST(PullPushTargets, EmptyWindowFallbackIsSharedAndChecksFrom) {
  const BipartiteGraph g = TieGraph();
  const std::vector<BucketId> assignment = {0, 1, 2};
  const BucketId k = 8;
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const GainComputer gain(0.5, static_cast<uint32_t>(g.MaxQueryDegree()));
  AffinitySweep sweep;
  sweep.Build(g, ndata, gain.pow_table());
  std::vector<double> affinity(static_cast<size_t>(k), 0.0);
  std::vector<BucketId> touched;

  // Window [4, 8) holds no occupied bucket: both paths fall back to the
  // lowest bucket of the window (4), with the empty-bucket gain.
  {
    const auto pull =
        gain.FindBestTarget(g, ndata, 0, 0, 4, 8, &affinity, &touched);
    const auto push = gain.FindBestTargetPush(sweep, 0, 0, 4, 8, 2.0);
    EXPECT_EQ(pull.bucket, 4);
    EXPECT_EQ(push.bucket, 4);
    EXPECT_NEAR(pull.gain, push.gain, 1e-12);
  }
  // Window starting at `from` must skip it: [0, 4) with from = 0 and no
  // touched candidate cannot return 0. (Buckets 1 and 2 are touched here,
  // so restrict to [0, 1), where only `from` itself lies -> no target.)
  {
    const auto pull =
        gain.FindBestTarget(g, ndata, 0, 0, 0, 1, &affinity, &touched);
    const auto push = gain.FindBestTargetPush(sweep, 0, 0, 0, 1, 2.0);
    EXPECT_EQ(pull.bucket, -1);
    EXPECT_EQ(push.bucket, -1);
  }
  // Window [3, 8) with from = 3: fallback must pick 4, never `from`.
  {
    std::vector<BucketId> moved = assignment;
    moved[0] = 3;
    QueryNeighborData nd2;
    nd2.Build(g, moved);
    AffinitySweep sw2;
    sw2.Build(g, nd2, gain.pow_table());
    const auto pull =
        gain.FindBestTarget(g, nd2, 0, 3, 3, 8, &affinity, &touched);
    const auto push = gain.FindBestTargetPush(sw2, 0, 3, 3, 8, 2.0);
    EXPECT_EQ(pull.bucket, 4);
    EXPECT_EQ(push.bucket, 4);
  }
}

// ----------------------------------------------- group-restricted push scan
TEST(AffinitySweep, EntriesInWindowIsAPureSliceOfEntries) {
  const BipartiteGraph g = TestGraph(13);
  const BucketId k = 16;
  const auto assignment = Partition::Random(g.num_data(), k, 4).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const GainComputer gain(0.5, static_cast<uint32_t>(g.MaxQueryDegree()));
  AffinitySweep sweep;
  sweep.Build(g, ndata, gain.pow_table());

  for (VertexId v = 0; v < g.num_data(); ++v) {
    const auto all = sweep.Entries(v);
    const std::pair<BucketId, BucketId> windows[] = {
        {0, k}, {3, 9}, {9, 9}, {k, k + 4}};
    for (const auto& [wb, we] : windows) {
      const auto window = sweep.EntriesInWindow(v, wb, we);
      // Exactly the contiguous run of entries with bucket in [wb, we) — a
      // view into the same arena storage, no copy.
      size_t expected = 0;
      const AffinityEntry* first = nullptr;
      for (const AffinityEntry& e : all) {
        if (e.bucket >= wb && e.bucket < we) {
          if (first == nullptr) first = &e;
          ++expected;
        }
      }
      ASSERT_EQ(window.size(), expected) << "v=" << v << " [" << wb << ","
                                         << we << ")";
      if (expected > 0) EXPECT_EQ(window.data(), first);
    }
  }
}

// ------------------------------------------------- windowed accumulators
/// A random recursion-shaped grouped topology over k buckets and an
/// assignment under it: [0, k) is cut into contiguous node ranges; about two
/// thirds of the nodes of two or more buckets are refined with a sparse
/// sibling set (the node's first bucket plus a random subset of the rest),
/// the others stay unrefined. Each vertex sits on a random member of a
/// random node — the node's first bucket when it is unrefined.
struct GroupedFixture {
  MoveTopology topo;
  std::vector<BucketId> assignment;
};

GroupedFixture RandomGroupedFixture(BucketId k, VertexId n, uint64_t seed) {
  std::vector<std::vector<BucketId>> groups;
  std::vector<std::vector<BucketId>> node_members;  // refined or not
  for (BucketId lo = 0; lo < k;) {
    const BucketId span = static_cast<BucketId>(
        1 + HashToBounded(seed, 1, static_cast<uint64_t>(lo),
                          static_cast<uint64_t>(std::min<BucketId>(
                              k - lo, std::max<BucketId>(2, k / 4)))));
    std::vector<BucketId> members = {lo};
    if (span >= 2 && HashToBounded(seed, 2, static_cast<uint64_t>(lo), 3) > 0) {
      for (BucketId b = lo + 1; b < lo + span; ++b) {
        if (HashToBounded(seed, 3, static_cast<uint64_t>(b), 2) == 0) {
          members.push_back(b);
        }
      }
      if (members.size() == 1) members.push_back(lo + span - 1);
      groups.push_back(members);
    }
    node_members.push_back(std::move(members));
    lo += span;
  }
  GroupedFixture out;
  out.topo = MoveTopology::Grouped(k, n, 0.05, groups);
  out.assignment.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto& members = node_members[static_cast<size_t>(
        HashToBounded(seed, 4, v, node_members.size()))];
    out.assignment[v] =
        members[static_cast<size_t>(HashToBounded(seed, 5, v, members.size()))];
  }
  return out;
}

TEST(WindowedSweep, BuildIsTheWindowSliceOfAnUnwindowedBuild) {
  // A windowed build keeps exactly the entries of each vertex's window, and
  // sums them in the same ascending-query order as an unwindowed build —
  // every kept entry is bit-identical (operator==), not merely close.
  for (const BucketId k : {8, 64}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      PowerLawConfig config;
      config.num_queries = 600;
      config.num_data = 400;
      config.target_edges = 3000;
      config.seed = seed;
      const BipartiteGraph g = GeneratePowerLaw(config);
      const GroupedFixture fx = RandomGroupedFixture(k, g.num_data(), seed);
      QueryNeighborData ndata;
      ndata.Build(g, fx.assignment);
      const PowTable pow(0.5, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);

      AffinitySweep all;
      all.Build(g, ndata, pow);
      AffinitySweep windowed;
      windowed.Build(g, ndata, pow, nullptr,
                     fx.topo.AccumulatorWindows(fx.assignment));
      ASSERT_EQ(windowed.windows().size(), g.num_data());
      uint64_t kept = 0;
      for (VertexId v = 0; v < g.num_data(); ++v) {
        const BucketWindow w = windowed.windows()[v];
        const auto slice = all.EntriesInWindow(v, w.begin, w.end);
        const auto entries = windowed.Entries(v);
        ASSERT_EQ(entries.size(), slice.size())
            << "k=" << k << " seed=" << seed << " v=" << v;
        for (size_t i = 0; i < entries.size(); ++i) {
          ASSERT_EQ(entries[i], slice[i])
              << "k=" << k << " seed=" << seed << " v=" << v << " i=" << i;
        }
        if (w.begin == w.end) {
          EXPECT_TRUE(entries.empty()) << "unrefined vertex keeps nothing";
        }
        kept += entries.size();
      }
      EXPECT_EQ(windowed.TotalEntries(), kept);
      EXPECT_LT(windowed.TotalEntries(), all.TotalEntries());
    }
  }
}

TEST(WindowedSweep, PatchesStayInsideTheWindowsAndMatchAFreshBuild) {
  for (const BucketId k : {8, 64}) {
    PowerLawConfig config;
    config.num_queries = 600;
    config.num_data = 400;
    config.target_edges = 3000;
    config.seed = 5;
    const BipartiteGraph g = GeneratePowerLaw(config);
    GroupedFixture fx = RandomGroupedFixture(k, g.num_data(), 7);
    QueryNeighborData ndata;
    ndata.Build(g, fx.assignment);
    const PowTable pow(0.5, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
    AffinitySweep sweep;
    sweep.Build(g, ndata, pow, nullptr,
                fx.topo.AccumulatorWindows(fx.assignment));
    const std::vector<BucketWindow> windows = sweep.windows();

    for (uint64_t round = 0; round < 12; ++round) {
      // Random moves within each vertex's group (the only moves a grouped
      // round makes); vertices on unrefined buckets stay put.
      std::vector<VertexMove> moves;
      std::vector<uint8_t> seen(g.num_data(), 0);
      for (uint64_t i = 0; i < 40; ++i) {
        const VertexId v =
            static_cast<VertexId>(HashToBounded(11, round, i, g.num_data()));
        const BucketId from = fx.assignment[v];
        const int32_t group =
            fx.topo.group_of_bucket[static_cast<size_t>(from)];
        if (seen[v] || group < 0) continue;
        seen[v] = 1;
        const auto& siblings =
            fx.topo.group_children[static_cast<size_t>(group)];
        const BucketId to = siblings[static_cast<size_t>(
            HashToBounded(13, round, i, siblings.size()))];
        if (to == from) continue;
        moves.push_back({v, from, to});
        fx.assignment[v] = to;
      }
      std::vector<NeighborDelta> deltas;
      ndata.ApplyMoves(g, moves, nullptr, nullptr, &deltas);
      sweep.ApplyDeltas(g, deltas, pow);

      ASSERT_EQ(fx.topo.AccumulatorWindows(fx.assignment), windows)
          << "in-group moves keep every window";
      for (VertexId v = 0; v < g.num_data(); ++v) {
        for (const AffinityEntry& e : sweep.Entries(v)) {
          ASSERT_TRUE(windows[v].Contains(e.bucket))
              << "k=" << k << " round " << round << " v=" << v
              << " holds bucket " << e.bucket << " outside ["
              << windows[v].begin << ", " << windows[v].end << ")";
        }
      }
      AffinitySweep fresh;
      fresh.Build(g, ndata, pow, nullptr, windows);
      ASSERT_TRUE(sweep.ApproxEquals(fresh, 1e-9, 1e-9))
          << "k=" << k << " round " << round;
      ASSERT_EQ(sweep.TotalEntries(), fresh.TotalEntries());
    }
  }
}

/// Asserts two sweeps hold bit-identical accumulators and the same arena
/// shape.
void ExpectIdenticalSweeps(const AffinitySweep& got,
                           const AffinitySweep& want, const std::string& at) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices()) << at;
  ASSERT_EQ(got.windows(), want.windows()) << at;
  EXPECT_EQ(got.TotalEntries(), want.TotalEntries()) << at;
  EXPECT_EQ(got.ArenaSlots(), want.ArenaSlots()) << at;
  for (VertexId v = 0; v < got.num_vertices(); ++v) {
    const auto a = got.Entries(v);
    const auto b = want.Entries(v);
    ASSERT_EQ(a.size(), b.size()) << at << " v=" << v;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << at << " v=" << v << " i=" << i;
    }
  }
}

TEST(AffinitySweepSharded, BuildShardedMatchesBruteForceOracle) {
  // Independent oracle, computed from the assignment and the adjacency
  // alone: per vertex, walk its queries in ascending id order, count each
  // query's neighbors per bucket in a std::map, and sum 1 − B^count per
  // bucket in a std::map — the summation order BuildSharded promises, so
  // the floats must match bit for bit. Per-shard work is recounted
  // directly as Σ over owned v and q ∈ N(v) of q's occupied buckets.
  PowerLawConfig config;
  config.num_queries = 500;
  config.num_data = 300;
  config.target_edges = 2600;
  config.seed = 31;
  const BipartiteGraph g = GeneratePowerLaw(config);
  const BucketId k = 16;
  const std::vector<BucketId> assignment =
      Partition::Random(g.num_data(), k, 9).assignment();
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const PowTable pow(0.6, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);

  std::vector<std::map<BucketId, uint32_t>> counts(g.num_queries());
  for (VertexId q = 0; q < g.num_queries(); ++q) {
    for (const VertexId v : g.QueryNeighbors(q)) ++counts[q][assignment[v]];
  }
  std::vector<std::vector<AffinityEntry>> expected(g.num_data());
  for (VertexId v = 0; v < g.num_data(); ++v) {
    const auto nbrs = g.DataNeighbors(v);
    std::vector<VertexId> queries(nbrs.begin(), nbrs.end());
    std::sort(queries.begin(), queries.end());
    std::map<BucketId, std::pair<uint32_t, double>> sum;
    for (const VertexId q : queries) {
      for (const auto& [b, c] : counts[q]) {
        ++sum[b].first;
        sum[b].second += 1.0 - pow.Pow(c);
      }
    }
    for (const auto& [b, acc] : sum) {
      expected[v].push_back({b, acc.first, acc.second});
    }
  }

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (const int num_shards : {1, 3, 8}) {
    std::vector<int32_t> owner(g.num_data());
    std::vector<uint64_t> expected_work(static_cast<size_t>(num_shards), 0);
    for (VertexId v = 0; v < g.num_data(); ++v) {
      owner[v] = static_cast<int32_t>(HashToBounded(19, v, 4, num_shards));
      for (const VertexId q : g.DataNeighbors(v)) {
        expected_work[static_cast<size_t>(owner[v])] += counts[q].size();
      }
    }
    for (ThreadPool* pool : {&pool1, &pool4}) {
      AffinitySweep sweep;
      const std::vector<uint64_t> work =
          sweep.BuildSharded(g, ndata, pow, owner, num_shards, pool);
      const std::string at = "W=" + std::to_string(num_shards) +
                             " threads=" + std::to_string(pool->num_threads());
      EXPECT_EQ(work, expected_work) << at;
      EXPECT_EQ(sweep.last_build_adjacency_reads(), g.num_edges()) << at;
      EXPECT_TRUE(sweep.windows().empty()) << at;
      uint64_t total = 0;
      for (VertexId v = 0; v < g.num_data(); ++v) {
        const auto got = sweep.Entries(v);
        ASSERT_EQ(got.size(), expected[v].size()) << at << " v=" << v;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expected[v][i]) << at << " v=" << v << " i=" << i;
        }
        total += got.size();
      }
      EXPECT_EQ(sweep.TotalEntries(), total) << at;
    }
  }
}

TEST(AffinitySweep, RebuildOverAnOldArenaMatchesAFreshBuild) {
  // Build starts its first run in the previous arena's storage. Whatever
  // that arena held — windowed entries, patch relocations, a sharded
  // build — the rebuild must equal a fresh sweep's build bit for bit,
  // arena size included, on one host thread and on several.
  PowerLawConfig config;
  config.num_queries = 600;
  config.num_data = 400;
  config.target_edges = 3000;
  config.seed = 12;
  const BipartiteGraph g = GeneratePowerLaw(config);
  const BucketId k = 64;
  const GroupedFixture a = RandomGroupedFixture(k, g.num_data(), 1);
  const GroupedFixture b = RandomGroupedFixture(k, g.num_data(), 2);
  QueryNeighborData ndata_a;
  ndata_a.Build(g, a.assignment);
  QueryNeighborData ndata_b;
  ndata_b.Build(g, b.assignment);
  const PowTable pow(0.5, static_cast<uint32_t>(g.MaxQueryDegree()) + 2);
  const std::vector<BucketWindow> windows_a =
      a.topo.AccumulatorWindows(a.assignment);
  const std::vector<BucketWindow> windows_b =
      b.topo.AccumulatorWindows(b.assignment);
  std::vector<int32_t> owner(g.num_data());
  for (VertexId v = 0; v < g.num_data(); ++v) {
    owner[v] = static_cast<int32_t>(HashToBounded(3, v, 1, 4));
  }

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (ThreadPool* pool : {&pool1, &pool4}) {
    const std::string threads =
        " threads=" + std::to_string(pool->num_threads());
    AffinitySweep sweep;
    sweep.Build(g, ndata_a, pow, pool);
    // Patch rounds grow accumulators past their slack, leaving relocated
    // lists and garbage in the arena the next build starts from.
    std::vector<BucketId> moved = a.assignment;
    QueryNeighborData ndata_moved;
    ndata_moved.Build(g, moved);
    for (uint64_t round = 0; round < 6; ++round) {
      const std::vector<VertexMove> moves =
          RandomBatch(&moved, k, 17, round, 60);
      std::vector<NeighborDelta> deltas;
      ndata_moved.ApplyMoves(g, moves, nullptr, nullptr, &deltas);
      sweep.ApplyDeltas(g, deltas, pow, pool);
    }
    ASSERT_GT(sweep.ArenaSlots(), sweep.TotalEntries());

    AffinitySweep fresh;
    sweep.Build(g, ndata_b, pow, pool);
    fresh.Build(g, ndata_b, pow, pool);
    ExpectIdenticalSweeps(sweep, fresh, "A patched -> B" + threads);

    sweep.Build(g, ndata_a, pow, pool, windows_a);
    sweep.Build(g, ndata_b, pow, pool, windows_b);
    AffinitySweep fresh_windowed;
    fresh_windowed.Build(g, ndata_b, pow, pool, windows_b);
    ExpectIdenticalSweeps(sweep, fresh_windowed,
                          "A windowed -> B windowed" + threads);

    sweep.Build(g, ndata_b, pow, pool);
    ExpectIdenticalSweeps(sweep, fresh, "B windowed -> B" + threads);

    AffinitySweep fresh_sharded;
    sweep.BuildSharded(g, ndata_a, pow, owner, 4, pool);
    fresh_sharded.BuildSharded(g, ndata_a, pow, owner, 4, pool);
    ExpectIdenticalSweeps(sweep, fresh_sharded, "B -> A sharded" + threads);
  }
}

TEST(PullPushTargets, GroupedScanMatchesDirectSiblingEvaluation) {
  // The recursion scan: sparse sibling candidate sets (non-contiguous
  // bucket ids) against the same topology-free accumulators. Reference =
  // direct per-sibling MoveGain argmax with first-candidate-wins ties —
  // exactly the grouped pull path of both engines.
  for (const double p : {0.1, 0.5, 0.9}) {
    const BipartiteGraph g = TestGraph(7);
    const BucketId k = 8;
    const auto assignment = Partition::Random(g.num_data(), k, 2).assignment();
    QueryNeighborData ndata;
    ndata.Build(g, assignment);
    const GainComputer gain(p, static_cast<uint32_t>(g.MaxQueryDegree()));
    AffinitySweep sweep;
    sweep.Build(g, ndata, gain.pow_table());

    const std::vector<std::vector<BucketId>> sibling_sets = {
        {0, 4}, {2, 3}, {1, 3, 5, 7}, {0, 2, 4, 6}};
    for (const auto& siblings : sibling_sets) {
      for (VertexId v = 0; v < g.num_data(); ++v) {
        if (g.DataDegree(v) == 0) continue;
        const BucketId from = assignment[v];
        if (std::find(siblings.begin(), siblings.end(), from) ==
            siblings.end()) {
          continue;  // vertex not in this group
        }
        GainComputer::BestTarget ref;
        bool first = true;
        for (BucketId candidate : siblings) {
          if (candidate == from) continue;
          const double gg = gain.MoveGain(g, ndata, v, from, candidate);
          if (first || gg > ref.gain) {
            ref.gain = gg;
            ref.bucket = candidate;
            first = false;
          }
        }
        const auto push = gain.FindBestTargetPushGrouped(
            sweep, v, from, std::span<const BucketId>(siblings),
            static_cast<double>(g.DataDegree(v)));
        ASSERT_EQ(ref.bucket == -1, push.bucket == -1)
            << "p=" << p << " v=" << v;
        if (ref.bucket == -1) continue;
        if (ref.bucket == push.bucket) {
          EXPECT_NEAR(ref.gain, push.gain, 1e-9 + 1e-6 * std::fabs(ref.gain))
              << "p=" << p << " v=" << v;
        } else {
          // Divergent picks are legal only on a gain tie, evaluated in the
          // pull frame (the PR 2 contract).
          const double g_ref = gain.MoveGain(g, ndata, v, from, ref.bucket);
          const double g_push = gain.MoveGain(g, ndata, v, from, push.bucket);
          EXPECT_NEAR(g_ref, g_push, 1e-9)
              << "p=" << p << " v=" << v << " ref->" << ref.bucket
              << " push->" << push.bucket;
        }
      }
    }
  }
}

TEST(PullPushTargets, GroupedFallbackPicksLowestSiblingNotFrom) {
  const BipartiteGraph g = TieGraph();
  const std::vector<BucketId> assignment = {0, 1, 2};
  QueryNeighborData ndata;
  ndata.Build(g, assignment);
  const GainComputer gain(0.5, static_cast<uint32_t>(g.MaxQueryDegree()));
  AffinitySweep sweep;
  sweep.Build(g, ndata, gain.pow_table());

  // Siblings {0, 4, 6} from bucket 0: 4 and 6 are both empty — the grouped
  // pull argmax takes the first candidate ≠ from (= 4), so must the push
  // fallback; the gain is the empty-bucket gain.
  const std::vector<BucketId> siblings = {0, 4, 6};
  const auto push = gain.FindBestTargetPushGrouped(
      sweep, 0, 0, std::span<const BucketId>(siblings), 2.0);
  EXPECT_EQ(push.bucket, 4);
  EXPECT_NEAR(push.gain, gain.MoveGain(g, ndata, 0, 0, 4), 1e-12);
  // A one-member "group" (from only) has no target.
  const std::vector<BucketId> lone = {0};
  EXPECT_EQ(gain.FindBestTargetPushGrouped(
                sweep, 0, 0, std::span<const BucketId>(lone), 2.0)
                .bucket,
            -1);
}

// -------------------------------------- refiner-level tolerance equivalence
BipartiteGraph RefinerGraph() {
  SocialGraphConfig config;
  config.num_users = 700;
  config.avg_degree = 8;
  config.seed = 21;
  return GenerateSocialGraph(config);
}

class PullPushTrajectory
    : public testing::TestWithParam<MoveBrokerOptions::Strategy> {};

TEST_P(PullPushTrajectory, FanoutTrajectoriesAgreeWithinTolerance) {
  const BipartiteGraph g = RefinerGraph();
  const BucketId k = 8;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);

  RefinerOptions pull_options;
  pull_options.exploration_probability = 0.05;
  pull_options.incremental_rebuild_fraction = 1.0;
  pull_options.broker.strategy = GetParam();
  pull_options.sweep_mode = RefinerOptions::SweepMode::kPull;
  RefinerOptions push_options = pull_options;
  push_options.sweep_mode = RefinerOptions::SweepMode::kPush;

  Partition p_pull = Partition::BalancedRandom(g.num_data(), k, 2);
  Partition p_push = p_pull;
  Refiner pull(g, pull_options);
  Refiner push(g, push_options);

  for (uint64_t iter = 0; iter < 8; ++iter) {
    const IterationStats a = pull.RunIteration(topo, &p_pull, 9, iter);
    const IterationStats b = push.RunIteration(topo, &p_push, 9, iter);
    EXPECT_FALSE(a.push_sweep);
    EXPECT_TRUE(b.push_sweep);

    // Tolerance harness: the two scan directions accumulate floats in
    // different orders, so the trajectories agree to tolerance, not bits —
    // per-vertex proposals match modulo gain ties (the Debug build asserts
    // that inside RunIteration) and the end-to-end objective trajectory
    // stays within rtol 1e-6.
    const double f_pull = AveragePFanout(g, p_pull.assignment(), 0.5);
    const double f_push = AveragePFanout(g, p_push.assignment(), 0.5);
    ASSERT_NEAR(f_pull, f_push, 1e-6 * std::max(f_pull, f_push))
        << "iteration " << iter;
  }
  EXPECT_EQ(push.num_full_rebuilds(), 1u);
  EXPECT_EQ(push.num_sweep_builds(), 1u)
      << "steady state must patch, not rebuild, the accumulators";
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PullPushTrajectory,
    testing::Values(MoveBrokerOptions::Strategy::kPlainProbability,
                    MoveBrokerOptions::Strategy::kHistogramMatching,
                    MoveBrokerOptions::Strategy::kExactPairing));

TEST(PullPushTrajectory, FanoutLimitFallsBackToPull) {
  // p = 1, future_splits = 1 ⇒ pow base 0: the push gain formulas are
  // unavailable (they divide by B), so kAuto must run the pull path.
  const BipartiteGraph g = RefinerGraph();
  const BucketId k = 4;
  const MoveTopology topo = MoveTopology::FullK(k, g.num_data(), 0.05);
  RefinerOptions options;
  options.p = 1.0;
  options.sweep_mode = RefinerOptions::SweepMode::kAuto;
  Partition partition = Partition::BalancedRandom(g.num_data(), k, 3);
  Refiner refiner(g, options);
  const IterationStats stats = refiner.RunIteration(topo, &partition, 1, 0);
  EXPECT_FALSE(stats.push_sweep);
  EXPECT_EQ(refiner.num_sweep_builds(), 0u);
}

}  // namespace
}  // namespace shp
