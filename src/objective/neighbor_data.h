// Sparse per-query neighbor data: the multiset {n_i(q)} of how many of query
// q's data neighbors sit in each bucket i (paper §3.2, "neighbor data").
//
// Storage is sparse — one (bucket, count) entry per *occupied* bucket —
// giving total size Σ_q fanout(q) entries, exactly the message volume the
// paper's superstep-2 communication bound counts. A dense |Q|×k matrix would
// defeat the scalability analysis for large k.
//
// The structure is *incrementally maintained*: a full Build runs once per
// topology change, and every superstep 1 folds the round's bucket-count
// deltas in with ApplyDeltas (the threaded refiner's executed moves through
// ApplyMoves, the BSP engine's combined wire messages directly) — O(Σ
// deg(moved) · fanout) instead of the O(|E| log maxdeg) rebuild. To make
// in-place splicing cheap, each query's entry list owns a small slack
// capacity inside one flat arena; a list that outgrows its slack is
// relocated to the arena tail, and the arena is compacted (epoch compaction)
// once relocation garbage plus slack exceed the live volume.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"

namespace shp {

class ThreadPool;

/// Bucket label type. Buckets are dense ints 0..k-1 at every stage; -1 marks
/// "unassigned" in intermediate states.
using BucketId = int32_t;

struct BucketCount {
  BucketId bucket;
  uint32_t count;

  bool operator==(const BucketCount&) const = default;
};

/// Count of bucket b in a bucket-sorted entry list (0 if absent).
/// O(log fanout).
inline uint32_t CountIn(std::span<const BucketCount> entries, BucketId b) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), b,
      [](const BucketCount& e, BucketId bucket) { return e.bucket < bucket; });
  return it != entries.end() && it->bucket == b ? it->count : 0;
}

/// One executed move: data vertex v relocated from bucket `from` to `to`.
/// The move broker reports the net executed moves of a round in this form
/// (post balance-repair), and QueryNeighborData::ApplyMoves consumes them.
struct VertexMove {
  VertexId v;
  BucketId from;
  BucketId to;

  bool operator==(const VertexMove&) const = default;
};

/// One signed change of a query's neighbor count in one bucket: the input
/// of the superstep-1 fold (QueryNeighborData::ApplyDeltas). The BSP engine
/// ships these as its superstep-1 wire messages, combined per (source
/// worker, query, bucket) before the wire (Giraph's combiner); the threaded
/// refiner expands each executed move into −1 at `from` and +1 at `to` on
/// every adjacent query.
struct BucketDeltaMsg {
  VertexId query;
  BucketId bucket;
  int32_t delta;
};

/// The net outcome of one superstep-1 fold for one (query, bucket):
/// n_bucket(q) went from old_count to new_count. The fold sums every delta a
/// (q, bucket) received and emits exactly one record per (q, bucket) whose
/// count changed, in ascending (q, bucket) order — so the records depend only
/// on the before and after counts, never on how the deltas were split across
/// moves, source workers or threads. Consumers (the affinity sweep) patch in
/// that order; old_count == 0 adds support, new_count == 0 removes it.
struct NeighborDelta {
  VertexId q;
  BucketId bucket;
  uint32_t old_count;
  uint32_t new_count;

  bool operator==(const NeighborDelta&) const = default;
};

class QueryNeighborData {
 public:
  QueryNeighborData() = default;

  /// Builds neighbor data for all queries under `assignment` (size
  /// graph.num_data(), entries in [0, k)). Runs on `pool` if given, else the
  /// global pool. Counting-sort over a per-thread dense bucket scratch:
  /// O(|E| + Σ_q fanout(q) log fanout(q)) work — no per-query std::sort over
  /// the full pin list.
  void Build(const BipartiteGraph& graph,
             const std::vector<BucketId>& assignment,
             ThreadPool* pool = nullptr);

  /// Entries of query q, sorted by bucket id ascending.
  std::span<const BucketCount> Entries(VertexId q) const {
    const Loc& loc = loc_[q];
    return {entries_.data() + loc.begin, entries_.data() + loc.begin +
                                             loc.size};
  }

  /// n_b(q): count of q's neighbors in bucket b (0 if none). O(log fanout).
  uint32_t CountFor(VertexId q, BucketId b) const {
    return CountIn(Entries(q), b);
  }

  /// fanout(q) = number of occupied buckets.
  uint32_t Fanout(VertexId q) const { return loc_[q].size; }

  VertexId num_queries() const { return static_cast<VertexId>(loc_.size()); }

  /// Total entries = Σ_q fanout(q); proxy for superstep-2 message volume.
  uint64_t TotalEntries() const { return live_entries_; }

  /// Empties the structure to `num_queries` queries with no entries — the
  /// starting state of a replica store that ApplyDeltas fills.
  void Clear(VertexId num_queries);

  /// The superstep-1 fold: sums each (query, bucket) run of `deltas` and
  /// splices the net change into the query's entry list in place (a list
  /// that outgrows its slack is relocated to the arena tail). The query
  /// space is over-decomposed into contiguous mini-shards; deltas are
  /// scattered to their owning mini-shard, and mini-shards are grouped into
  /// per-worker fold ranges weighted by their delta counts — uniform ranges
  /// let one hub query serialize a whole shard. O(Σ deltas · log) work,
  /// independent of |E|. A count may not go negative. If `touched_queries`
  /// is non-null, every query that received a delta — including one whose
  /// deltas cancel — is appended (each id once, ascending). If `records` is
  /// non-null, one NeighborDelta per (query, bucket) whose count changed is
  /// appended in ascending (query, bucket) order.
  void ApplyDeltas(std::span<const BucketDeltaMsg> deltas,
                   ThreadPool* pool = nullptr,
                   std::vector<VertexId>* touched_queries = nullptr,
                   std::vector<NeighborDelta>* records = nullptr);

  /// Folds a batch of executed moves: each move is −1 at `from` and +1 at
  /// `to` on every query adjacent to v, folded as by ApplyDeltas.
  /// O(Σ_v deg(v) · log) over the moved vertices.
  void ApplyMoves(const BipartiteGraph& graph,
                  std::span<const VertexMove> moves, ThreadPool* pool = nullptr,
                  std::vector<VertexId>* touched_queries = nullptr,
                  std::vector<NeighborDelta>* records = nullptr);

  /// Repacks the arena in query order with fresh slack, dropping relocation
  /// garbage. Called automatically by ApplyDeltas when overhead exceeds the
  /// live volume; public for tests and memory-pressure callers.
  void Compact();

  /// True iff both structures hold the same logical content (identical entry
  /// spans for every query), regardless of arena layout.
  bool ContentEquals(const QueryNeighborData& other) const;

  /// Arena slots including slack and relocation garbage (≥ TotalEntries());
  /// memory-overhead diagnostic for tests and stats.
  uint64_t ArenaSlots() const { return entries_.size(); }

 private:
  /// Per-query entry-list location, packed into one 16-byte record so the
  /// random-access gain scan touches a single cache line per query instead
  /// of three parallel arrays.
  struct Loc {
    uint64_t begin;  ///< arena offset of q's entry list
    uint32_t size;   ///< live entries of q
    uint32_t cap;    ///< arena slots owned by q (≥ size)
  };

  /// Reusable fold scratch, cleared, not reallocated, between calls: the
  /// deltas scattered by mini-shard into one flat array, per-(worker,
  /// mini-shard) scatter offsets, the weighted mini-shard → worker map, and
  /// per-shard spliced lists, overflow, accounting and outputs.
  struct FoldScratch {
    std::vector<BucketDeltaMsg> scattered;
    std::vector<size_t> offset;       ///< [w * minis + m] scatter cursor
    std::vector<size_t> mini_begin;   ///< mini-shard m's first delta
    std::vector<size_t> group_begin;  ///< weighted mini-shard → worker map
    std::vector<std::vector<BucketCount>> merged;  ///< per-shard splice
    /// Lists that outgrew their slack (the shared arena cannot be grown
    /// concurrently); appended to the arena tail after the fold.
    std::vector<std::vector<std::pair<VertexId, std::vector<BucketCount>>>>
        overflow;
    std::vector<int64_t> live_delta;
    std::vector<std::vector<VertexId>> touched;
    std::vector<std::vector<NeighborDelta>> records;
  };

  /// The fold behind ApplyDeltas and ApplyMoves: `expand(i, emit)` emits the
  /// BucketDeltaMsgs of input item i (it is called twice per item, once to
  /// count and once to scatter).
  template <class Expand>
  void Fold(size_t num_items, const Expand& expand, ThreadPool* pool,
            std::vector<VertexId>* touched_queries,
            std::vector<NeighborDelta>* records);

  void MaybeCompact();

  std::vector<BucketCount> entries_;  ///< flat arena (entry lists + slack)
  std::vector<Loc> loc_;              ///< per-query list location
  uint64_t live_entries_ = 0;         ///< Σ_q loc_[q].size
  uint64_t garbage_ = 0;              ///< arena slots abandoned by relocation
  FoldScratch scratch_;               ///< reusable fold workspace
};

}  // namespace shp
