// SHP as a vertex-centric BSP program — the faithful counterpart of the
// paper's Giraph implementation (§3.2, Fig. 3). One refinement iteration is
// four supersteps with synchronization barriers, one member function each,
// which RunIteration calls in order:
//
//   1. CollectNeighborData — data → query : current bucket (delta
//      messages; a vertex that did not move "does not send messages on
//      superstep 1 for the next iteration").
//      Query owners fold the deltas into their sparse neighbor data with
//      the threaded Refiner's fold (QueryNeighborData::ApplyDeltas).
//   2. ExchangeAndPropose — query → data : two exchange modes, selected by
//      RefinerOptions::sweep_mode (the same switch that picks the threaded
//      Refiner's scan direction):
//        * pull (kPull, and the fallback whenever push is unsupported) —
//          dirty queries send their neighbor data, restricted to buckets
//          active in the current move topology, ONE combined message per
//          destination worker (Giraph's machine-pair message combining);
//          receiving data vertices re-gather move gains. The reference path.
//        * delta exchange + push sweep (kPush/kAuto with a nonzero pow
//          base, full-k AND grouped recursion topologies) — dirty queries
//          ship only the sparse (q, bucket, old, new) NeighborDelta records
//          produced while folding superstep 1, O(moved pins) on the wire
//          instead of O(Σ deg(dirty q) × touched workers). Each data worker
//          keeps an AffinitySweep accumulator replica over its own shard:
//          built query-major once (bootstrap iteration, charged as a full
//          unrestricted reship — the replicas are topology-free), patched
//          from incoming deltas thereafter, and proposals are one
//          sequential scan of the vertex's own accumulator
//          (GainComputer::FindBestTargetPush, or its group-restricted
//          window variant FindBestTargetPushGrouped under SHP-2/r recursion
//          — shared tie-break and fallback with the pull scan). A recursion
//          level advance re-slices each group's scan window and patches the
//          replicas from the diff-scan records; it does not reship.
//      In either mode, clean vertices keep their cached proposal — their
//      gains cannot have changed. Every proposal is the argmax target:
//      RefinerOptions::exploration_probability is not implemented here.
//   3. ProposeToMaster — data → master: per-worker (bucket-pair, gain-bin)
//      histograms, maintained *incrementally* from the compact
//      changed-proposal list (this round's recomputed vertices), so the
//      accumulation work is O(blast radius), not O(n); each worker still
//      ships its full live histogram (that is what the master's matching
//      needs) — bytes are O(active pairs × bins), independent of n.
//   4. MoveAndCheckpoint — master → data: per-pair-and-bin move
//      probabilities; vertices draw and move (proposals whose probability
//      row is all zero skip the draw — the trajectory-preserving draw
//      floor); the drawn movers are collected into compact per-worker
//      lists, so move execution, balance repair, and the next superstep 1
//      all touch O(moved) state instead of rescanning n-sized arrays. The
//      epoch checkpoint is written here too.
//
// This class implements only the distributed parts — sharding, the
// superstep-1 combiner (CombineDeltas on each router cell), the superstep-2
// exchange (ShipDeltas, ReshipNeighborData), fault recovery, checkpoints,
// and the exact byte and per-worker work-unit accounting. Algorithm 1
// itself is shared with the threaded Refiner: superstep 1 folds with
// QueryNeighborData::ApplyDeltas into the query replicas (one NeighborDelta
// per changed (query, bucket), whatever the worker count), superstep 2
// calls ComputeProposal (core/proposal.h) on the worker replicas, superstep
// 3 keeps MoveBroker's MasterHistograms with one shard per worker, and
// superstep 4 runs MoveDraw and MoveBroker::ExecuteMoves. From one starting
// partition both engines therefore follow bit-identical trajectories at
// every p and worker count (tests/engine_test.cc
// TrajectoryBitIdenticalToThreadedRefiner).
//
// The implementation plugs into the SHP drivers through RefinerInterface, so
// SHP-k and SHP-2/r run unmodified on top of it. All message and byte counts
// are exact; engine/cost_model.h converts them into simulated cluster time.
// docs/distributed.md documents the delta-exchange wire format and the
// replica-consistency invariants.
//
// Fault-tolerant superstep protocol (docs/distributed.md "Failure model &
// recovery"): in delta-exchange mode every remote (src, dst) superstep-2
// buffer crosses the simulated fabric as one self-verifying enveloped frame
// (engine/wire_format.h) — CRC32C integrity, epoch id, per-link monotonic
// sequence number — delivered through the deterministic FaultInjector. A
// detected anomaly (corruption, truncation, stale epoch, gap, duplicate)
// triggers a bounded same-sequence retransmission; an unrecoverably failed
// link invalidates the accumulator replicas and falls into the bootstrap
// reship path within the same iteration, which doubles as the protocol
// resync point (receive sequences jump to the send sequences). Repeatedly
// failing links degrade to backoff: while any link is backing off the engine
// runs full-reship bootstraps instead of delta exchange. A worker killed at
// an iteration boundary has its query replicas rebuilt from the
// authoritative partition state and the accumulator replicas re-bootstrapped.
// Optional per-epoch checkpoints (engine/checkpoint.h) enable rollback-and-
// replay via RestoreLatestCheckpoint. Every recovery path re-converges to
// the fault-free trajectory — the replica and proposal cross-checks below
// DCHECK that in Debug builds.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/checkpoint.h"

#include "core/move_broker.h"
#include "core/move_topology.h"
#include "core/proposal.h"
#include "core/refiner.h"
#include "engine/bsp_engine.h"
#include "engine/message_router.h"
#include "graph/bipartite_graph.h"
#include "objective/affinity_sweep.h"
#include "objective/gain.h"
#include "objective/neighbor_data.h"

namespace shp {

class BspRefiner : public RefinerInterface {
 public:
  /// `log`, if given, receives the SuperstepStats of every executed
  /// superstep (appended in order) and must outlive the refiner.
  BspRefiner(const BipartiteGraph& graph, const RefinerOptions& options,
             const BspConfig& config,
             std::vector<SuperstepStats>* log = nullptr);

  IterationStats RunIteration(const MoveTopology& topo, Partition* partition,
                              uint64_t seed, uint64_t iteration,
                              ThreadPool* pool = nullptr,
                              const std::vector<BucketId>* anchor = nullptr,
                              double anchor_penalty = 0.0) override;

  /// Per-round executed-move cap (0 = unlimited): the master trims the
  /// drawn superstep-4 movers to the budget, highest gain first, before
  /// execution — same contract as the threaded broker's
  /// max_moves_per_round (the serving loop's epoch budget hook).
  void SetMoveBudget(uint64_t max_moves) override {
    options_.broker.max_moves_per_round = max_moves;
  }

  /// Estimated peak bytes of distributed state on the most loaded worker
  /// (adjacency shard + neighbor-data or accumulator replicas + proposal
  /// vectors).
  uint64_t MaxWorkerStateBytes() const;

  /// Accumulator-replica bootstrap reships performed so far (delta-exchange
  /// mode). With the externally changed fraction inside
  /// RefinerOptions::incremental_rebuild_fraction, a recursion run holds
  /// this at 1: level advances re-restrict the replicas through the
  /// diff-scan records instead of reshipping (the test hook for that
  /// invariant). Above the fraction — e.g. an SHP-2 redistribution moving
  /// ~half the vertices under the default 0.15 — the churn guard drops the
  /// replicas instead, because the records would outweigh the reship.
  uint64_t num_bootstrap_reships() const { return num_bootstraps_; }

  /// The data-worker accumulator replicas (delta-exchange mode). Exposes the
  /// sweep's bootstrap-cost counters (last_build_adjacency_reads) to benches
  /// and tests.
  const AffinitySweep& sweep() const { return sweep_; }

  /// Cumulative fault/recovery counters since construction (per-iteration
  /// values are in IterationStats).
  struct FaultCounters {
    uint64_t faults_detected = 0;
    /// Wire faults the injector applied (FaultInjector::faults_injected);
    /// every one of them must be detected.
    uint64_t faults_injected = 0;
    uint64_t retransmits = 0;
    uint64_t reship_recoveries = 0;
    uint64_t workers_recovered = 0;
    uint64_t stalled_workers = 0;
    uint64_t checkpoints_written = 0;
    uint64_t rollbacks = 0;
  };
  const FaultCounters& fault_counters() const { return counters_; }

  /// Rolls the engine back to the newest valid checkpoint: *partition is
  /// replaced with the checkpointed assignment and every piece of
  /// incremental state is invalidated, so the next RunIteration bootstraps
  /// from the restored epoch and replay is indistinguishable from a run
  /// that never crashed. NotFound when checkpointing is off or no valid
  /// checkpoint exists.
  Status RestoreLatestCheckpoint(Partition* partition);

 private:
  /// Iteration-local state the four supersteps share: RunIteration's
  /// arguments, the modes an earlier superstep decides for the later ones,
  /// and the iteration's stats.
  struct Round {
    const MoveTopology& topo;
    Partition* partition;
    uint64_t seed;
    uint64_t iteration;
    ThreadPool* pool;
    const std::vector<BucketId>* anchor;
    double anchor_penalty;
    uint64_t epoch;  ///< protocol epoch (see epoch_)
    bool push;       ///< delta exchange + push sweep (fixed per instance)
    bool full_scan = false;      ///< S1 announced by the per-vertex diff scan
    bool bootstrap = false;      ///< S2 reshipped and rebuilt the replicas
    bool recompute_all = false;  ///< S2 recomputed every proposal
    IterationStats stats{};
  };

  // ---- the four supersteps, each ending at its barrier ----

  /// S1: rebuilds killed workers, announces changed buckets to the query
  /// owners over the combined wire, and folds them into the query replicas.
  SuperstepStats CollectNeighborData(Round* round);
  /// S2: ships the fold's delta records (or reships neighbor data), patches
  /// or builds the accumulator replicas, and recomputes the proposals of the
  /// blast radius.
  SuperstepStats ExchangeAndPropose(Round* round);
  /// S3: updates and uploads the per-worker master histograms.
  SuperstepStats ProposeToMaster(Round* round);
  /// S4: draws and executes the moves, repairs balance, and writes the
  /// epoch checkpoint when due.
  SuperstepStats MoveAndCheckpoint(Round* round);

  // ---- superstep-2 pieces ----

  /// Delta-exchange send and enveloped transfer. Returns false when some
  /// link exhausted its retries.
  bool ShipDeltas(Round* round, SuperstepStats* s2);
  /// Full-reship send and receive, and on a bootstrap the accumulator
  /// replica build.
  void ReshipNeighborData(const Round& round, SuperstepStats* s2);
  /// Marks vertex v, if worker w owns it, for proposal recomputation; true
  /// when newly marked.
  bool Claim(int w, VertexId v);
  /// Claims last round's movers (pending_announce_) owned by w: a mover's
  /// `from` changed even when offsetting moves cancel all of its queries'
  /// count deltas (A→B and B→A among one query's pins), in which case no
  /// touched query or delta record would ever reach it. Returns the number
  /// newly marked.
  uint64_t ClaimMovers(int w);

  // ---- fault-tolerant superstep protocol ----

  size_t LinkIndex(int src, int dst) const {
    return static_cast<size_t>(src) * config_.num_workers + dst;
  }

  /// Delivers every remote delta-router buffer as an enveloped frame through
  /// the fault injector with bounded same-sequence retransmission, filling
  /// s2_inbox_ (each source's run merged in, so every inbox is ascending
  /// (q, bucket); locals copied verbatim) and link_payload_bytes_. Returns
  /// true when every link delivered; false when some link exhausted its
  /// retries (the caller then falls into the bootstrap reship path).
  bool TransferEnveloped(uint64_t epoch,
                         const MessageRouter<NeighborDelta>& router,
                         SuperstepStats* s2, IterationStats* stats);

  /// Protocol resync at a bootstrap: the full reship bypasses the enveloped
  /// link protocol, so receive sequences jump to the send sequences and the
  /// stale-frame history is dropped.
  void ResyncLinks();

  /// Restarts the link protocol from scratch (construction and checkpoint
  /// restore): sequences, frame history, failure streaks and backoff.
  void ResetLinks();

  const BipartiteGraph& graph_;
  RefinerOptions options_;
  BspConfig config_;
  GainComputer gain_;
  VertexSharding sharding_;
  std::vector<std::vector<VertexId>> data_shards_;
  std::vector<std::vector<VertexId>> query_shards_;
  std::vector<int32_t> data_owner_;  ///< data vertex -> owning worker

  // Distributed state. Each query's neighbor data lives on its owner worker
  // and is updated only by that worker (single-writer); the shared
  // structures below are the simulation's stand-in for that per-worker
  // memory.
  QueryNeighborData query_ndata_;
  std::vector<BucketId> known_assignment_;  ///< last state sent upstream
  /// Net executed moves of the previous superstep 4, announced on the next
  /// superstep 1 — the compact replacement for the per-vertex "did I move"
  /// rescan — and always recomputed in the next superstep 2 (ClaimMovers).
  std::vector<VertexMove> pending_announce_;
  bool state_valid_ = false;  ///< known_assignment_/query_ndata_ live

  // Data-worker accumulator replicas (delta-exchange mode): per-vertex
  // sparse (bucket, support, affinity) lists over each worker's own shard.
  AffinitySweep sweep_;
  bool sweep_valid_ = false;
  uint64_t num_bootstraps_ = 0;  ///< bootstrap reships (diagnostics/tests)

  // Fault-tolerant superstep protocol state. epoch_ is the engine's own
  // monotonic iteration counter (the caller's `iteration` parameter restarts
  // under recursion drivers, so it cannot key the wire protocol). The link_*
  // vectors are W×W, indexed by LinkIndex.
  uint64_t epoch_ = 0;
  FaultInjector injector_;
  std::vector<uint64_t> link_send_seq_;
  std::vector<uint64_t> link_recv_seq_;
  /// Last successfully delivered frame per link — what a reordering network
  /// would deliver in place of the current one (stale-epoch injection).
  std::vector<std::vector<uint8_t>> link_last_wire_;
  std::vector<int> link_fail_streak_;       ///< consecutive failed epochs
  std::vector<uint64_t> link_backoff_until_;  ///< in backoff while epoch <
  std::vector<int> link_backoff_len_;       ///< next backoff length (epochs)
  std::vector<uint64_t> link_payload_bytes_;  ///< per-epoch payload sizes
  FaultCounters counters_;
  std::unique_ptr<CheckpointManager> checkpoints_;

  // Cached per-vertex proposals (clean vertices re-propose unchanged).
  std::vector<BucketId> cached_target_;
  std::vector<double> cached_gain_;
  bool proposals_valid_ = false;

  ProposalContext proposal_context_;  ///< context of the cached proposals

  // Superstep-3 master state, one shard per worker (MoveBroker's
  // incremental per-pair histograms).
  MasterHistograms hist_;
  bool hist_valid_ = false;

  // Reusable per-iteration scratch (satellite of the delta-exchange work:
  // none of these are reallocated per call).
  MessageRouter<BucketDeltaMsg> s1_router_;  ///< combined in place per cell
  std::vector<std::vector<VertexId>> announce_lists_;  ///< movers per owner
  std::vector<BucketDeltaMsg> s1_inbox_;    ///< one query owner's messages
  /// Queries each owner's fold touched, ascending (a pull round's dirty set).
  std::vector<std::vector<VertexId>> s1_touched_;
  std::vector<std::vector<NeighborDelta>> s1_records_;  ///< per query owner
  std::vector<std::vector<NeighborDelta>> s2_inbox_;    ///< per data worker
  std::vector<uint8_t> recompute_;  ///< per-vertex mark, zeroed after use
  std::vector<std::vector<VertexId>> recompute_lists_;  ///< per data worker
  std::vector<std::vector<VertexId>> mover_lists_;      ///< per data worker
  std::vector<VertexId> movers_;       ///< merged, ascending
  std::vector<BucketId> original_;     ///< pre-move bucket (mover slots only)
  std::vector<ProposalScratch> proposal_scratch_;  ///< per-worker scratch

  std::vector<SuperstepStats>* log_;
};

}  // namespace shp
