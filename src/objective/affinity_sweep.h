// Query-major affinity sweep: per-vertex sparse affinity accumulators for
// the superstep-2 gain scan, maintained by streaming the neighbor-data arena
// (full pass) or by folding in ApplyMoves delta records (steady state).
//
// The pull-based gain scan (GainComputer::FindBestTarget) gathers, for every
// recomputed vertex v, the entry lists of all its adjacent queries — a
// random-access walk over the arena that dominates steady-state iteration
// latency. The paper's superstep 2 is naturally query-major: each query q
// contributes 1 − B^{n_j(q)} to the affinity of bucket j for *every* data
// neighbor of q. This module inverts the scan accordingly and keeps the
// result alive across iterations:
//
//   affinity_v[b] = Σ_{q ∈ N(v), n_b(q) > 0} (1 − B^{n_b(q)})
//   support_v[b]  = #{q ∈ N(v) : n_b(q) > 0}
//
// Build streams the neighbor-data arena once in query order (sequential
// reads; each query's per-bucket contribution is computed once and scattered
// to all its data neighbors, instead of being recomputed per vertex). In
// steady state, ApplyDeltas consumes the (q, bucket, old, new) records that
// QueryNeighborData::ApplyMoves emits and patches only the accumulators of
// vertices adjacent to a changed query — no rescan of untouched queries.
//
// The integer support count makes entry lifetime exact: an accumulator entry
// exists iff some adjacent query occupies the bucket, and dropping the entry
// at support == 0 resets the float to exactly 0, so cancellation drift never
// fabricates phantom affinity. Patching changes float summation order
// relative to a fresh build, so affinities (and the gains derived from them)
// agree with the pull path only up to accumulation error — the refiner's
// equivalence story is tolerance-based, not bit-exact (see docs/refinement.md).
// The superstep-1 fold emits one record per changed (q, bucket) in ascending
// (q, bucket) order, and every patch applies records in that order, so
// accumulator contents are a pure function of the build assignment and the
// per-round count changes — independent of thread count, of the BSP worker
// count, and of which engine produced the records.
//
// Storage mirrors QueryNeighborData: one flat arena of entries plus a packed
// per-vertex {begin, size, cap} record with slack, tail relocation on growth,
// and epoch compaction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"
#include "objective/neighbor_data.h"
#include "objective/pow_table.h"

namespace shp {

class ThreadPool;

/// One accumulator slot: bucket, number of adjacent queries occupying it,
/// and their summed affinity contribution Σ (1 − B^{n_bucket(q)}).
struct AffinityEntry {
  BucketId bucket;
  uint32_t support;
  double affinity;

  bool operator==(const AffinityEntry&) const = default;
};

class AffinitySweep {
 public:
  /// Full query-major pass: streams ndata's arena once in query order and
  /// scatters each query's per-bucket contributions to all its data
  /// neighbors. Vertices are range-sharded across workers; each shard
  /// streams the (cache-resident) arena sequentially and keeps only its own
  /// vertices' accumulators.
  void Build(const BipartiteGraph& graph, const QueryNeighborData& ndata,
             const PowTable& pow, ThreadPool* pool = nullptr);

  /// Steady-state patch: folds the superstep-1 records (ascending (q,
  /// bucket), as QueryNeighborData::ApplyDeltas emits them) into the
  /// affected accumulators. O(Σ_records deg(q)) — proportional to the move
  /// blast radius, with no rescan of untouched queries. `pow` must match
  /// Build's. The one-shard case of ApplyDeltasSharded.
  void ApplyDeltas(const BipartiteGraph& graph,
                   std::span<const NeighborDelta> deltas, const PowTable& pow,
                   ThreadPool* pool = nullptr) {
    ApplyDeltasSharded(graph, {deltas}, pow, nullptr, pool);
  }

  /// Owner-sharded build for the BSP engine: data vertices are distributed
  /// over `num_shards` simulated workers by `owner_of` (hash placement, not
  /// contiguous ranges), and shard s keeps accumulators only for its own
  /// vertices — vertices it does not own stay empty. The bootstrap is ONE
  /// pass over the adjacency regardless of shard count: a first parallel
  /// sweep bins each query's neighbors by owner shard (contiguous ascending
  /// query ranges per host worker), and a second merges each shard's binned
  /// queries — in ascending query order, so accumulator floats are identical
  /// to Build's — into its own vertices' lists. Returns per-shard simulated
  /// work units (accumulator merge operations; the binning pass is host
  /// bookkeeping and is not charged).
  std::vector<uint64_t> BuildSharded(const BipartiteGraph& graph,
                                     const QueryNeighborData& ndata,
                                     const PowTable& pow,
                                     const std::vector<int32_t>& owner_of,
                                     int num_shards,
                                     ThreadPool* pool = nullptr);

  /// Owner-sharded patch: shard s applies `records[s]` — for the BSP engine
  /// a worker's merged superstep-2 inbox, ascending (q, bucket) — to the
  /// accumulators of the vertices `owner_of` assigns it (all vertices when
  /// `owner_of` is null, which takes exactly one shard). Shards are
  /// single-writer (disjoint ownership); on the host, each shard's patch is
  /// sub-split into Σ-degree-weighted vertex ranges sized by Σ deg(q) of its
  /// records, so one hub-query-heavy inbox spreads over threads instead of
  /// serializing the phase. Returns per-shard simulated work units (records
  /// scanned + patch operations).
  std::vector<uint64_t> ApplyDeltasSharded(
      const BipartiteGraph& graph,
      const std::vector<std::span<const NeighborDelta>>& records,
      const PowTable& pow, const std::vector<int32_t>* owner_of,
      ThreadPool* pool = nullptr);

  /// Accumulator entries of vertex v, sorted by bucket id ascending.
  std::span<const AffinityEntry> Entries(VertexId v) const {
    const Loc& loc = loc_[v];
    return {entries_.data() + loc.begin,
            entries_.data() + loc.begin + loc.size};
  }

  /// Entries of v with bucket in [begin, end) — the group-restricted view
  /// used by the recursion push scan. A pure re-slice of the arena (two
  /// binary searches over v's sorted entries); changing the active window
  /// never rebuilds or copies accumulator state. O(log entries).
  std::span<const AffinityEntry> EntriesInWindow(VertexId v, BucketId begin,
                                                 BucketId end) const {
    const auto all = Entries(v);
    const auto cmp = [](const AffinityEntry& e, BucketId b) {
      return e.bucket < b;
    };
    const auto lo = std::lower_bound(all.begin(), all.end(), begin, cmp);
    const auto hi = std::lower_bound(lo, all.end(), end, cmp);
    return {lo, hi};
  }

  /// affinity_v[b] (0 if no adjacent query occupies b). O(log entries).
  double AffinityFor(VertexId v, BucketId b) const;

  VertexId num_vertices() const { return static_cast<VertexId>(loc_.size()); }

  /// Total live accumulator entries Σ_v |occupied buckets of N(v)|.
  uint64_t TotalEntries() const { return live_entries_; }

  /// Adjacency neighbor reads performed by the most recent BuildSharded.
  /// The one-pass bootstrap reads each (query, data-neighbor) pin exactly
  /// once, so this equals graph.num_edges() for every shard count — the
  /// counter the bootstrap-cost test and bench assert on.
  uint64_t last_build_adjacency_reads() const {
    return last_build_adjacency_reads_;
  }

  /// Arena slots including slack and relocation garbage (≥ TotalEntries()).
  uint64_t ArenaSlots() const { return entries_.size(); }

  /// Repacks the arena in vertex order with fresh slack, dropping relocation
  /// garbage. Called automatically when garbage exceeds half the live
  /// volume; public for tests and memory-pressure callers.
  void Compact();

  /// Tolerance comparison against another sweep (typically a fresh Build):
  /// identical buckets and support everywhere, affinities equal within
  /// |a − b| ≤ atol + rtol · max(|a|, |b|). The debug cross-check the
  /// refiner runs per iteration.
  bool ApproxEquals(const AffinitySweep& other, double atol,
                    double rtol) const;

 private:
  /// Per-vertex accumulator location (same packing rationale as
  /// QueryNeighborData::Loc: one record per random access).
  struct Loc {
    uint64_t begin;
    uint32_t size;
    uint32_t cap;
  };

  /// Task-local store for accumulators that outgrew their slack during a
  /// parallel patch (the shared arena cannot be grown concurrently).
  struct ShardOverflow {
    std::vector<std::pair<VertexId, std::vector<AffinityEntry>>> lists;
    std::unordered_map<VertexId, size_t> index;
  };

  /// Reusable patch scratch (cleared, not reallocated, per call).
  struct PatchScratch {
    std::vector<ShardOverflow> overflow;
    std::vector<int64_t> live_delta;
    std::vector<uint64_t> deg_prefix;  ///< Σ-degree shard-bound scratch
  };

  /// Shared Build/BuildSharded tail: lays the per-vertex lists out into the
  /// arena with fresh slack and parallel-copies them in.
  void LayoutFromLists(const std::vector<std::vector<AffinityEntry>>& lists,
                       ThreadPool* pool);

  /// Folds one (bucket, affinity-add, support-delta) contribution into v's
  /// accumulator: in place while the slack lasts, else via `ovf` (the shared
  /// arena cannot grow concurrently).
  void PatchEntry(VertexId v, BucketId bucket, double add, int32_t sup,
                  ShardOverflow* ovf, int64_t* live_delta);

  /// Serial post-patch merge: relocates overflowed accumulators of
  /// overflow[0..count) to the arena tail and folds live_delta[0..count).
  void MergeOverflow(size_t count);

  void MaybeCompact();

  std::vector<AffinityEntry> entries_;  ///< flat arena (accumulators + slack)
  std::vector<Loc> loc_;                ///< per-vertex accumulator location
  uint64_t live_entries_ = 0;           ///< Σ_v loc_[v].size
  uint64_t garbage_ = 0;                ///< arena slots abandoned by relocation
  uint64_t last_build_adjacency_reads_ = 0;  ///< see accessor
  PatchScratch scratch_;
};

}  // namespace shp
