// Superstep 2 of Algorithm 1 (paper §3.2, Fig. 3), defined once for both
// refinement engines: a data vertex's move proposal — the argmax target
// under the move topology and its gain, read from the query neighbor data
// (pull) or from the vertex's affinity accumulator (push) — plus the
// context a cached proposal depends on and the Debug oracle both engines
// run over their cached proposals.
//
// The threaded Refiner passes its QueryNeighborData and AffinitySweep; the
// BSP engine passes its query replicas (also a QueryNeighborData) and its
// data-worker accumulator replicas, and charges the scanned entries as
// superstep-2 work units.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/move_topology.h"
#include "core/partition.h"
#include "graph/bipartite_graph.h"
#include "objective/affinity_sweep.h"
#include "objective/gain.h"

namespace shp {

/// A vertex's move proposal: argmax target and its gain (anchor-adjusted,
/// nonpositive-filtered), or target = -1 for "no proposal".
struct Proposal {
  BucketId target = -1;
  double gain = 0.0;
};

/// What a proposal reads: the current assignment, and either the query
/// neighbor data `ndata` (pull) or the accumulators `sweep` (push, when
/// non-null).
struct ProposalSource {
  const GainComputer& gain;
  const BipartiteGraph& graph;
  const Partition& partition;
  const QueryNeighborData& ndata;
  const AffinitySweep* sweep = nullptr;
};

/// The rule a proposal obeys beyond the data: the move topology, the
/// incremental-update anchor (paper §5(i)) and the nonpositive filter.
struct ProposalRule {
  const MoveTopology& topo;
  const std::vector<BucketId>* anchor = nullptr;
  double anchor_penalty = 0.0;
  bool propose_nonpositive = true;
};

/// Reusable per-thread scratch of the full-k pull scan (zero-filled; the
/// scan restores it).
struct ProposalScratch {
  std::vector<double> affinity;
  std::vector<BucketId> touched;
};

/// Applies the anchor adjustment and the nonpositive filter to v's best
/// target (target < 0: no candidate).
Proposal FinishProposal(const ProposalRule& rule, VertexId v, BucketId from,
                        BucketId target, double gain);

/// Computes v's proposal. `explore_target` ≥ 0 makes this an exploration
/// proposal on a full-k topology (that target with its true gain); it
/// depends on the iteration draw, so *cacheable comes back false.
/// `*work`, if given, is charged the entries the scan read: entry-list
/// entries (full-k pull), two lookups per sibling and adjacent query
/// (grouped pull), accumulator entries (full-k push), or window entries
/// plus siblings (grouped push).
inline Proposal ComputeProposal(const ProposalSource& source,
                                const ProposalRule& rule, VertexId v,
                                BucketId explore_target,
                                ProposalScratch* scratch,
                                uint64_t* work = nullptr,
                                bool* cacheable = nullptr) {
  if (cacheable != nullptr) *cacheable = true;
  const GainComputer& gain = source.gain;
  const MoveTopology& topo = rule.topo;
  const double degree = static_cast<double>(source.graph.DataDegree(v));
  if (degree == 0.0) return {};  // isolated: nothing to gain
  const BucketId from = source.partition.bucket_of(v);
  const int32_t group = topo.group_of_bucket[static_cast<size_t>(from)];
  if (group < 0) return {};  // bucket not refined at this level
  const AffinitySweep* sweep = source.sweep;

  GainComputer::BestTarget best;
  if (topo.full_k) {
    if (explore_target >= 0 && explore_target != from) {
      best.bucket = explore_target;
      best.gain = sweep != nullptr
                      ? gain.MoveGainPush(*sweep, v, from, explore_target,
                                          degree)
                      : gain.MoveGain(source.graph, source.ndata, v, from,
                                      explore_target, work);
      if (cacheable != nullptr) *cacheable = false;
    } else if (sweep != nullptr) {
      if (work != nullptr) *work += sweep->Entries(v).size();
      best = gain.FindBestTargetPush(*sweep, v, from, 0, topo.k, degree);
    } else {
      if (scratch->affinity.size() < static_cast<size_t>(topo.k)) {
        scratch->affinity.assign(static_cast<size_t>(topo.k), 0.0);
      }
      best = gain.FindBestTarget(source.graph, source.ndata, v, from, 0,
                                 topo.k, &scratch->affinity,
                                 &scratch->touched, work);
    }
  } else {
    const std::vector<BucketId>& children =
        topo.group_children[static_cast<size_t>(group)];
    if (sweep != nullptr) {
      // Group-restricted push scan over the accumulator window spanning
      // the siblings — a re-slice of the same topology-free accumulators
      // the full-k scan reads, so recursion windows never rebuild them.
      const auto [wbegin, wend] = topo.GroupWindow(group);
      const auto window = sweep->EntriesInWindow(v, wbegin, wend);
      if (work != nullptr) *work += window.size() + children.size();
      best = gain.FindBestTargetPushGroupedWindow(
          window, from, std::span<const BucketId>(children), degree);
    } else {
      // Grouped pull: evaluate each sibling directly; ascending candidates
      // with first-wins ties, the fallback the push scan mirrors.
      bool first = true;
      for (BucketId candidate : children) {
        if (candidate == from) continue;
        const double g = gain.MoveGain(source.graph, source.ndata, v, from,
                                       candidate, work);
        if (first || g > best.gain) {
          best = {candidate, g};
          first = false;
        }
      }
    }
  }
  return FinishProposal(rule, v, from, best.bucket, best.gain);
}

/// Debug oracle both engines run over every vertex's cached proposal
/// (targets/gains): it must equal a fresh ComputeProposal in the active scan
/// direction (cache-staleness guard), and in push mode it must match a pull
/// recompute — the same target, or one tied in pull-frame gain within 1e-9,
/// with gains within 1e-9 + rtol 1e-6 (docs/refinement.md).
/// `explore_target`, if given, holds this round's exploration draw.
inline void CheckCachedProposals(const ProposalSource& source,
                                 const ProposalRule& rule,
                                 const std::vector<BucketId>* explore_target,
                                 const std::vector<BucketId>& targets,
                                 const std::vector<double>& gains,
                                 ThreadPool* pool) {
  const VertexId n = source.graph.num_data();
  ProposalSource pull = source;
  pull.sweep = nullptr;
  std::vector<ProposalScratch> scratch(
      std::max<size_t>(1, pool->num_threads()));
  pool->ParallelFor(n, [&](size_t begin, size_t end, size_t w) {
    for (size_t vi = begin; vi < end; ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const BucketId explore =
          explore_target != nullptr ? (*explore_target)[v] : -1;
      const Proposal fresh =
          ComputeProposal(source, rule, v, explore, &scratch[w]);
      SHP_CHECK(fresh.target == targets[v] && fresh.gain == gains[v])
          << "stale cached proposal for v=" << v << ": cached ("
          << targets[v] << ", " << gains[v] << ") vs fresh (" << fresh.target
          << ", " << fresh.gain << ")";
      if (source.sweep == nullptr) continue;
      const Proposal ref = ComputeProposal(pull, rule, v, explore, &scratch[w]);
      const double gtol =
          1e-9 + 1e-6 * std::max(std::fabs(ref.gain), std::fabs(gains[v]));
      if (ref.target == targets[v]) {
        SHP_CHECK(std::fabs(ref.gain - gains[v]) <= gtol)
            << "pull/push gain divergence for v=" << v << ": pull "
            << ref.gain << " vs push " << gains[v];
      } else if (ref.target >= 0 && targets[v] >= 0) {
        // Different targets are legal only on a gain tie, evaluated in the
        // pull frame.
        const BucketId from = source.partition.bucket_of(v);
        const double g_pull = source.gain.MoveGain(source.graph,
                                                   source.ndata, v, from,
                                                   ref.target);
        const double g_push = source.gain.MoveGain(source.graph,
                                                   source.ndata, v, from,
                                                   targets[v]);
        SHP_CHECK(std::fabs(g_pull - g_push) <= 1e-9)
            << "pull/push target divergence beyond tie tolerance for v=" << v
            << ": pull -> " << ref.target << " (" << g_pull << ") vs push -> "
            << targets[v] << " (" << g_push << ")";
      } else {
        // One path proposed, the other filtered (propose_nonpositive): only
        // legal when the surviving gain straddles zero within tolerance.
        SHP_CHECK(std::fabs(ref.gain) <= gtol && std::fabs(gains[v]) <= gtol)
            << "pull/push proposal presence mismatch for v=" << v;
      }
    }
  });
}

/// The context a cached move proposal depends on beyond the neighbor data:
/// the move topology (which buckets a vertex may target) and the
/// incremental-update anchor. Both engines reuse a vertex's proposal across
/// iterations only while this context is unchanged; a recursion-level
/// switch or a new anchor forces a full recompute.
class ProposalContext {
 public:
  /// True iff the last Snapshot was taken under an identical topology and
  /// anchor. Capacity is a broker concern; proposals do not depend on it.
  bool Matches(const MoveTopology& topo, const std::vector<BucketId>* anchor,
               double anchor_penalty) const;

  void Snapshot(const MoveTopology& topo, const std::vector<BucketId>* anchor,
                double anchor_penalty);

 private:
  bool valid_ = false;
  MoveTopology topo_;
  bool has_anchor_ = false;
  std::vector<BucketId> anchor_;
  double anchor_penalty_ = 0.0;
};

}  // namespace shp
