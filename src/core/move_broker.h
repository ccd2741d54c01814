// The move broker is the "master" of paper Fig. 3 supersteps 3-4: it
// aggregates per-vertex move proposals, computes per-pair move
// probabilities, and executes the simultaneous probabilistic moves.
//
// Two strategies:
//  * kPlainProbability — Algorithm 1 verbatim: only positive-gain proposals
//    count; probability for direction (i→j) is min(S_ij, S_ji)/S_ij.
//  * kHistogramMatching — the §3.4 production scheme: per-pair signed gain
//    histograms matched top-down, so the highest gains move first and
//    positive/negative bins can pair when their sum is positive.
//
// Both preserve balance in expectation; a deterministic post-move repair
// pass reverts the lowest-gain surplus moves of any bucket that exceeded
// its hard capacity, so the ε constraint is never violated (the paper runs
// with ε = 0.05 slack absorbing stochastic fluctuations; we enforce it).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/gain_histogram.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "core/proposal_matrix.h"
#include "graph/bipartite_graph.h"

namespace shp {

class ThreadPool;

struct MoveBrokerOptions {
  enum class Strategy {
    kPlainProbability,   ///< Algorithm 1 verbatim
    kHistogramMatching,  ///< §3.4 distributed scheme (default)
    /// §3.4's "ideal serial implementation": per bucket pair, two queues of
    /// vertices sorted by gain, paired off highest-to-lowest while the pair
    /// sum stays positive. Exact (no binning loss) and exactly
    /// balance-preserving, but inherently centralized — usable only
    /// single-machine; kept as the quality reference the histogram scheme
    /// approximates.
    kExactPairing,
  };
  Strategy strategy = Strategy::kHistogramMatching;
  GainBinning binning;
  /// Multiplies every move probability; <1 damps movement (used by
  /// incremental repartitioning, paper §5(i)).
  double probability_damping = 1.0;
  /// Ceiling on any per-vertex move probability. Strictly below 1 so that
  /// fully matched symmetric demands do not all execute simultaneously —
  /// with probability exactly 1 a matched bucket pair swaps its entire
  /// populations, which merely relabels the buckets and oscillates forever
  /// (visible on the paper's Fig. 2 example). A 0.9 cap breaks the symmetry
  /// while keeping expected flow balanced.
  double max_move_probability = 0.9;
  /// §3.4 "imbalanced swaps": also move unmatched positive-gain vertices
  /// into buckets with spare capacity (histogram strategy only).
  bool use_capacity_slack = true;
  /// Ceiling on executed moves per round; 0 = unlimited. The online
  /// repartitioning stability knob (paper §5(i) alongside damping): when a
  /// round's drawn movers exceed the budget, the highest-gain movers are
  /// kept (deterministic tie-break on vertex id) and the rest stay put, so
  /// a serving tier migrates at a bounded rate per epoch. Enforced by all
  /// three strategies and by the BSP master; post-repair executed moves
  /// never exceed the budget (balance reversions only shrink the set).
  uint64_t max_moves_per_round = 0;
};

struct MoveOutcome {
  uint64_t num_proposals = 0;  ///< vertices with a valid target
  uint64_t num_moved = 0;      ///< moves that stuck (after repair)
  uint64_t num_reverted = 0;   ///< repair reversions
  /// Probability draws evaluated. Superstep-4 draw floor: a proposal whose
  /// (from, target) probability row is all zero can never fire, so its draw
  /// is skipped without changing the trajectory — ≤ num_proposals, and
  /// kExactPairing draws nothing.
  uint64_t num_draws = 0;
  double gain_moved = 0.0;     ///< Σ gains of surviving moves
  /// Net executed moves of the round (post balance-repair; a reverted vertex
  /// does not appear), ascending by vertex id. This is exactly the partition
  /// delta: incremental neighbor-data maintenance consumes it directly, and
  /// QueryNeighborData::ApplyMoves expands it into the per-query
  /// NeighborDelta records that patch the query-major affinity sweep.
  std::vector<VertexMove> moves;
};

/// Master-side state: per directed bucket pair (packed (from << 32) | to),
/// per-gain-bin move probabilities.
struct PairProbabilityTable {
  std::unordered_map<uint64_t, std::vector<double>> probabilities;

  /// Probability for a proposal (from, to, gain); 0 if the pair is unknown.
  double Lookup(const GainBinning& binning, BucketId from, BucketId to,
                double gain) const;

  /// Keys of pairs whose probability row holds any positive entry — the
  /// superstep-4 draw floor's support set. A proposal on any other pair
  /// draws against probability 0 in every bin, so its draw can never fire
  /// and is skipped without changing the move trajectory.
  std::unordered_set<uint64_t> LivePairKeys() const;
};

/// The master computation of supersteps 3-4 under histogram matching:
/// matches the two directed histograms of every bucket pair and (optionally)
/// spends spare capacity on unmatched positive bins (§3.4 imbalanced swaps).
/// Shared between the threaded MoveBroker and the BSP master.
PairProbabilityTable ComputePairProbabilities(
    const MoveTopology& topo, const GainBinning& binning,
    const std::unordered_map<uint64_t, DirectedGainHistogram>& histograms,
    const Partition& partition, bool use_capacity_slack);

/// Superstep-3 master state, maintained incrementally: per directed bucket
/// pair, the gain histogram of the live proposals, plus each vertex's last
/// contribution (pair key, bin), so one changed proposal costs two counter
/// updates instead of a term in an O(n) rebuild. The state is split into
/// shards — the threaded broker uses one, the BSP engine one per worker. A
/// vertex always updates the same shard, so distinct shards may update
/// concurrently (one writer each).
class MasterHistograms {
 public:
  /// Drops every contribution: `num_shards` empty shards over n vertices.
  void Reset(size_t num_shards, VertexId n, const GainBinning& binning);

  /// True iff the last Reset was for this shape.
  bool Covers(size_t num_shards, VertexId n) const {
    return shards_.size() == num_shards && last_pair_.size() == n;
  }

  /// Re-derives v's contribution to `shard`: removes the recorded (pair,
  /// bin) counter and adds from → target at the bin of `gain` (nothing when
  /// target < 0). Idempotent.
  void Update(size_t shard, VertexId v, BucketId from, BucketId target,
              double gain);

  /// Erases the pairs of `shard` that hold no live proposal, so emptied
  /// bucket pairs neither accumulate nor count as uploaded.
  void Prune(size_t shard);

  /// Pairs currently held by `shard` (after Prune: pairs with proposals).
  size_t num_pairs(size_t shard) const { return shards_[shard].pairs.size(); }

  /// Live proposals over all shards.
  uint64_t num_proposals() const;

  /// The master's view: per live pair, the bin-wise sum over shards.
  std::unordered_map<uint64_t, DirectedGainHistogram> Merged() const;

  /// Debug oracle: the merged state equals a from-scratch accumulation of
  /// the proposals (targets, gains) at the partition's current buckets.
  void CheckAgainst(const std::vector<BucketId>& targets,
                    const std::vector<double>& gains,
                    const Partition& partition) const;

 private:
  /// last_pair_ sentinel: the vertex currently contributes nowhere.
  static constexpr uint64_t kNoPair = ~0ull;

  struct PairState {
    DirectedGainHistogram hist;
    uint64_t total = 0;  ///< live proposals, so emptied pairs can be pruned
  };
  struct Shard {
    std::unordered_map<uint64_t, PairState> pairs;
    uint64_t live = 0;
  };

  GainBinning binning_;
  std::vector<Shard> shards_;
  std::vector<uint64_t> last_pair_;  ///< kNoPair when not contributing
  std::vector<int32_t> last_bin_;
};

/// Superstep-4 draw, shared by the probabilistic strategies and the BSP
/// master. A proposal v: from → target draws only when its pair row holds a
/// positive probability (the draw floor: a probability-0 draw can never
/// fire, so skipping it leaves the trajectory unchanged); it fires when the
/// hash of (seed ^ salt, iteration, v) falls below min(table probability,
/// max_move_probability) × probability_damping.
class MoveDraw {
 public:
  /// The histogram-matching draw (threaded broker and BSP master).
  static MoveDraw Matched(const PairProbabilityTable& table,
                          const MoveBrokerOptions& options, uint64_t seed,
                          uint64_t iteration) {
    return MoveDraw(table, options, seed ^ 0x5108e77a, iteration, false);
  }
  /// Algorithm 1 verbatim: only strictly improving proposals draw.
  static MoveDraw Plain(const PairProbabilityTable& table,
                        const MoveBrokerOptions& options, uint64_t seed,
                        uint64_t iteration) {
    return MoveDraw(table, options, seed ^ 0xabcdef12, iteration, true);
  }

  struct Tally {
    uint64_t proposals = 0;  ///< eligible proposals scanned
    uint64_t draws = 0;      ///< of those, draws evaluated
  };

  /// Draws the proposals of `vertices`, appending the movers to *movers.
  template <class Vertices>
  Tally Run(const Vertices& vertices, const std::vector<BucketId>& targets,
            const std::vector<double>& gains, const Partition& partition,
            std::vector<VertexId>* movers) const {
    Tally tally;
    for (const VertexId v : vertices) {
      const BucketId target = targets[v];
      if (target < 0 || (positive_only_ && gains[v] <= 0.0)) continue;
      ++tally.proposals;
      const BucketId from = partition.bucket_of(v);
      if (live_.count(PackPair(from, target)) == 0) continue;
      ++tally.draws;
      if (Fires(v, from, target, gains[v])) movers->push_back(v);
    }
    return tally;
  }

 private:
  MoveDraw(const PairProbabilityTable& table, const MoveBrokerOptions& options,
           uint64_t salt, uint64_t iteration, bool positive_only);

  bool Fires(VertexId v, BucketId from, BucketId target, double gain) const;

  const PairProbabilityTable& table_;
  std::unordered_set<uint64_t> live_;
  GainBinning binning_;
  double max_probability_;
  double damping_;
  uint64_t salt_;
  uint64_t iteration_;
  bool positive_only_;
};

class MoveBroker {
 public:
  explicit MoveBroker(MoveBrokerOptions options) : options_(options) {}

  const MoveBrokerOptions& options() const { return options_; }

  /// Adjusts the per-round move budget between rounds (the serving loop
  /// passes its remaining epoch budget before every iteration). 0 =
  /// unlimited. Does not disturb the incremental histogram state.
  void set_max_moves_per_round(uint64_t max_moves) {
    options_.max_moves_per_round = max_moves;
  }

  /// Executes one move round. targets[v] = proposed bucket (or -1);
  /// gains[v] = proposal gain (improvement; may be ≤ 0 under histogram
  /// matching). Deterministic in (seed, iteration) for a fixed thread count.
  ///
  /// `changed`, if non-null, is the compact changed-proposal list: every
  /// vertex whose (current bucket, target, gain) differs from the previous
  /// Apply call on this broker must be listed (duplicates are fine — the
  /// update is idempotent). Under kHistogramMatching the broker then patches
  /// its persistent per-pair histograms in O(|changed|) instead of
  /// re-accumulating the n-sized targets/gains arrays; the move trajectory
  /// is identical (Debug builds verify against a from-scratch accumulation).
  /// nullptr (the default, and the only mode the other strategies use)
  /// rebuilds from scratch and re-primes the incremental state.
  MoveOutcome Apply(const MoveTopology& topo,
                    const std::vector<BucketId>& targets,
                    const std::vector<double>& gains, uint64_t seed,
                    uint64_t iteration, Partition* partition,
                    ThreadPool* pool = nullptr,
                    const std::vector<VertexId>* changed = nullptr);

  /// Superstep-4 execution, shared with the BSP master: merges the drawn
  /// per-shard mover lists into *movers (ascending), trims them to `budget`
  /// (TrimToBudget), moves each to its target, reverts the lowest-gain
  /// surplus moves of any bucket over capacity, and appends the net
  /// executed moves to outcome->moves. `original` is caller-owned scratch
  /// of ≥ n entries (only the movers' slots are written), so no round
  /// allocates O(n).
  static void ExecuteMoves(const MoveTopology& topo,
                           const std::vector<BucketId>& targets,
                           const std::vector<double>& gains, uint64_t budget,
                           const std::vector<std::vector<VertexId>>& drawn,
                           std::vector<VertexId>* movers,
                           std::vector<BucketId>* original,
                           Partition* partition, MoveOutcome* outcome);

  /// Trims a drawn mover list to `budget` vertices (0 = unlimited): keeps
  /// the highest gains, ties broken on the lower vertex id, and restores
  /// ascending-by-vertex order on return. Deterministic for a fixed input.
  static void TrimToBudget(uint64_t budget, const std::vector<double>& gains,
                           std::vector<VertexId>* movers);

 private:
  MoveOutcome ApplyPlain(const MoveTopology& topo,
                         const std::vector<BucketId>& targets,
                         const std::vector<double>& gains, uint64_t seed,
                         uint64_t iteration, Partition* partition,
                         ThreadPool* pool);
  MoveOutcome ApplyHistogram(const MoveTopology& topo,
                             const std::vector<BucketId>& targets,
                             const std::vector<double>& gains, uint64_t seed,
                             uint64_t iteration, Partition* partition,
                             ThreadPool* pool,
                             const std::vector<VertexId>* changed);
  MoveOutcome ApplyExactPairing(const MoveTopology& topo,
                                const std::vector<BucketId>& targets,
                                const std::vector<double>& gains,
                                uint64_t seed, uint64_t iteration,
                                Partition* partition);

  /// Draws every vertex's proposal on the pool and executes the movers.
  MoveOutcome DrawAndExecute(const MoveDraw& draw, const MoveTopology& topo,
                             const std::vector<BucketId>& targets,
                             const std::vector<double>& gains,
                             Partition* partition, ThreadPool* pool,
                             MoveOutcome outcome);

  MoveBrokerOptions options_;

  /// kHistogramMatching master state (one shard), patched from the
  /// changed-proposal list across rounds.
  MasterHistograms hist_;

  // Reusable superstep-4 scratch.
  std::vector<std::vector<VertexId>> drawn_;  ///< per pool worker
  std::vector<VertexId> movers_;
  std::vector<BucketId> original_;
};

}  // namespace shp
