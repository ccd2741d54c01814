#include "core/refiner.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace shp {

Refiner::Refiner(const BipartiteGraph& graph, const RefinerOptions& options)
    : graph_(graph),
      options_(options),
      gain_(options.p, static_cast<uint32_t>(graph.MaxQueryDegree()),
            options.future_splits),
      broker_(options.broker) {}

IterationStats Refiner::RunIteration(const MoveTopology& topo,
                                     Partition* partition, uint64_t seed,
                                     uint64_t iteration, ThreadPool* pool,
                                     const std::vector<BucketId>* anchor,
                                     double anchor_penalty) {
  SHP_CHECK_EQ(partition->num_data(), graph_.num_data());
  if (pool == nullptr) pool = &GlobalThreadPool();
  const VertexId n = graph_.num_data();
  IterationStats stats;

  // Superstep-2 scan direction for this iteration: push needs a nonzero pow
  // base (the accumulator-derived base term divides by B); kAuto prefers
  // push whenever available, and an explicit kPush request degrades to pull
  // in the p = 1, t = 1 limit. Grouped recursion windows run the same push
  // scan over accumulators that hold only each vertex's group window.
  const bool push = options_.UsesPush(gain_);
  stats.push_sweep = push;

  // Superstep 1: collect neighbor data — reused across iterations whenever
  // it provably reflects the current assignment (the shadow copy is the
  // proof; callers that hand in a different partition trigger a rebuild).
  const bool ndata_reusable = options_.incremental && ndata_valid_ &&
                              shadow_assignment_ == partition->assignment();
  if (!ndata_reusable) {
    ndata_.Build(graph_, partition->assignment(), pool);
    shadow_assignment_ = partition->assignment();
    ndata_valid_ = true;
    proposals_valid_ = false;
    sweep_valid_ = false;
    ++num_full_rebuilds_;
    stats.full_rebuild = true;
  }
  // The accumulators keep only the windows of the topology they were built
  // under — the one the proposal context last snapshotted (every build is a
  // recompute-all round) — so a new topology on an unchanged assignment
  // re-windows them.
  if (!proposal_context_.MatchesTopology(topo)) sweep_valid_ = false;
  if (push && !sweep_valid_) {
    sweep_.Build(graph_, ndata_, gain_.pow_table(), pool,
                 topo.AccumulatorWindows(partition->assignment()));
    sweep_valid_ = true;
    ++num_sweep_builds_;
  }

  // Exploration draw: ≈ n·prob firing vertices drawn up front into a compact
  // list, so the steady-state pass never hashes the other vertices.
  const bool explore = topo.full_k && options_.exploration_probability > 0.0;
  firing_list_.clear();
  if (explore) {
    if (explore_target_.size() < n) explore_target_.assign(n, -1);
    const uint64_t draws = static_cast<uint64_t>(
        static_cast<double>(n) * options_.exploration_probability + 0.5);
    for (uint64_t i = 0; i < draws; ++i) {
      // Sampling with replacement over hashed indices; duplicates collapse,
      // so the firing count is ≤ draws (statistically indistinguishable from
      // a per-vertex Bernoulli draw at these rates).
      const VertexId v = static_cast<VertexId>(
          HashToBounded(seed ^ 0xe791, iteration * 0x10001 + 1, i, n));
      if (explore_target_[v] != -1) continue;
      explore_target_[v] = static_cast<BucketId>(HashToBounded(
          seed ^ 0x77aa, iteration, v, static_cast<uint64_t>(topo.k)));
      firing_list_.push_back(v);
    }
  }
  const auto explore_target_for = [&](VertexId v) -> BucketId {
    return explore ? explore_target_[v] : -1;
  };

  // Superstep 2: move proposals. A full pass recomputes every vertex; the
  // steady-state pass recomputes only the compact work list — vertices
  // adjacent to a query whose neighbor data changed last round, last
  // round's explorers (their cached proposal is not reusable), and this
  // round's firing list.
  const bool recompute_all =
      !options_.incremental || !proposals_valid_ ||
      !proposal_context_.Matches(topo, anchor, anchor_penalty);
  const size_t num_workers = std::max<size_t>(1, pool->num_threads());
  if (workspaces_.size() < num_workers) workspaces_.resize(num_workers);
  const ProposalSource source{gain_, graph_, *partition, ndata_,
                              push ? &sweep_ : nullptr};
  const ProposalRule rule{topo, anchor, anchor_penalty,
                          options_.propose_nonpositive};
  const auto recompute_vertex = [&](VertexId v, ProposalScratch& ws) {
    bool cacheable = true;
    const Proposal proposal = ComputeProposal(
        source, rule, v, explore_target_for(v), &ws, nullptr, &cacheable);
    targets_[v] = proposal.target;
    gains_[v] = proposal.gain;
    cache_valid_[v] = cacheable ? 1 : 0;
  };

  if (recompute_all) {
    targets_.assign(n, -1);
    gains_.assign(n, 0.0);
    cache_valid_.assign(n, 0);
    recompute_.assign(n, 0);
    proposal_context_.Snapshot(topo, anchor, anchor_penalty);
    pool->ParallelFor(n, [&](size_t begin, size_t end, size_t w) {
      ProposalScratch& ws = workspaces_[w];
      for (size_t vi = begin; vi < end; ++vi) {
        recompute_vertex(static_cast<VertexId>(vi), ws);
      }
    });
    stats.num_recomputed = n;
  } else {
    // Compact steady-state pass: claim the blast radius of last round's
    // moves through the recompute marks (different queries share data
    // vertices; atomic exchange makes each vertex appear once), then fold
    // in the stale and firing lists.
    recompute_list_.clear();
    collect_.resize(std::max(collect_.size(), num_workers));
    if (!dirty_list_.empty()) {
      for (size_t w = 0; w < num_workers; ++w) collect_[w].clear();
      pool->ParallelFor(
          dirty_list_.size(), [&](size_t begin, size_t end, size_t w) {
            std::vector<VertexId>& local = collect_[w];
            for (size_t i = begin; i < end; ++i) {
              for (VertexId v : graph_.QueryNeighbors(dirty_list_[i])) {
                if (std::atomic_ref<uint8_t>(recompute_[v])
                        .exchange(1, std::memory_order_relaxed) == 0) {
                  local.push_back(v);
                }
              }
            }
          });
      for (size_t w = 0; w < num_workers; ++w) {
        recompute_list_.insert(recompute_list_.end(), collect_[w].begin(),
                               collect_[w].end());
      }
    }
    for (const VertexId v : stale_list_) {
      if (!recompute_[v]) {
        recompute_[v] = 1;
        recompute_list_.push_back(v);
      }
    }
    for (const VertexId v : firing_list_) {
      if (!recompute_[v]) {
        recompute_[v] = 1;
        recompute_list_.push_back(v);
      }
    }
    pool->ParallelFor(recompute_list_.size(),
                      [&](size_t begin, size_t end, size_t w) {
                        ProposalScratch& ws = workspaces_[w];
                        for (size_t i = begin; i < end; ++i) {
                          recompute_vertex(recompute_list_[i], ws);
                        }
                      });
    stats.num_recomputed = recompute_list_.size();
  }

  // Next round's stale list: this round's explorers hold uncacheable
  // proposals.
  stale_list_.clear();
  for (const VertexId v : firing_list_) {
    if (!cache_valid_[v]) stale_list_.push_back(v);
  }

#ifndef NDEBUG
  CheckCachedProposals(source, rule, explore ? &explore_target_ : nullptr,
                       targets_, gains_, pool);
  if (push) {
    // The patched accumulators must match a fresh build under the same
    // windows up to summation order.
    AffinitySweep fresh;
    fresh.Build(graph_, ndata_, gain_.pow_table(), pool,
                topo.AccumulatorWindows(partition->assignment()));
    SHP_CHECK(sweep_.ApproxEquals(fresh, 1e-9, 1e-9))
        << "patched affinity accumulators diverged from a fresh build";
  }
#endif

  // Clear this round's recompute marks (the compact pass claims exactly the
  // work list) and the exploration targets — keeps both arrays all-zero/-1
  // between iterations without an O(n) sweep.
  if (!recompute_all && !recompute_list_.empty()) {
    pool->ParallelForEach(recompute_list_.size(), [&](size_t i) {
      recompute_[recompute_list_[i]] = 0;
    });
  }
  for (const VertexId v : firing_list_) explore_target_[v] = -1;

  // Supersteps 3-4: master aggregation, probabilistic moves, repair. A
  // compact pass hands the broker its work list as the changed-proposal
  // list: only recomputed vertices can hold a different (bucket, target,
  // gain) than last round — last round's movers are always inside this
  // round's blast radius (ApplyMoves marks all of a mover's queries
  // touched, and the mover neighbors its own queries), so the list also
  // covers every bucket_of change. Recompute-all rounds pass nullptr and
  // re-prime the broker's state.
  const MoveOutcome outcome =
      broker_.Apply(topo, targets_, gains_, seed, iteration, partition, pool,
                    recompute_all ? nullptr : &recompute_list_);

  if (options_.incremental && !options_.HighChurn(outcome.moves.size(), n)) {
    // Fold the executed moves into the carried state (superstep 1 of the
    // *next* iteration, amortized to the blast radius of this round). Push
    // mode additionally consumes the bucket-count delta records to patch
    // the affinity accumulators — no rescan of untouched queries.
    dirty_list_.clear();
    deltas_.clear();
    ndata_.ApplyMoves(graph_, outcome.moves, pool, &dirty_list_,
                      push ? &deltas_ : nullptr);
    if (push) {
      stats.num_delta_records = deltas_.size();
      sweep_.ApplyDeltas(graph_, deltas_, gain_.pow_table(), pool);
    } else {
      sweep_valid_ = false;
    }
    for (const VertexMove& m : outcome.moves) {
      shadow_assignment_[m.v] = m.to;
    }
    proposals_valid_ = true;
#ifndef NDEBUG
    SHP_CHECK(shadow_assignment_ == partition->assignment())
        << "executed move list does not match the partition delta";
    QueryNeighborData fresh;
    fresh.Build(graph_, partition->assignment(), pool);
    SHP_CHECK(ndata_.ContentEquals(fresh))
        << "incrementally maintained neighbor data diverged from rebuild";
#endif
  } else {
    ndata_valid_ = false;
    proposals_valid_ = false;
    sweep_valid_ = false;
  }

  stats.RecordOutcome(outcome, n);
  return stats;
}

void IterationStats::RecordOutcome(const MoveOutcome& outcome,
                                   VertexId num_data) {
  num_proposals = outcome.num_proposals;
  num_moved = outcome.num_moved;
  num_reverted = outcome.num_reverted;
  num_draws = outcome.num_draws;
  gain_moved = outcome.gain_moved;
  moved_fraction = num_data == 0 ? 0.0
                                 : static_cast<double>(outcome.num_moved) /
                                       static_cast<double>(num_data);
}

}  // namespace shp
