#include "engine/shp_bsp.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/move_broker.h"
#include "engine/wire_format.h"

namespace shp {

namespace {

/// Superstep-2 payload of the pull (full-reship) path: one query's
/// (restricted) neighbor data, shipped once per destination worker and
/// fanned out locally. Receivers read the query replicas directly, so the
/// simulation carries only the query and its list length — what the wire
/// accounting charges. The delta-exchange path ships NeighborDelta records
/// instead (see shp_bsp.h / docs/distributed.md).
struct NeighborDataMsg {
  VertexId query;
  uint32_t num_entries;
};

/// Adds one phase's per-worker work units into the superstep's.
void AddWork(SuperstepStats* step, const std::vector<uint64_t>& work) {
  for (size_t w = 0; w < work.size(); ++w) step->work_units[w] += work[w];
}

}  // namespace

BspRefiner::BspRefiner(const BipartiteGraph& graph,
                       const RefinerOptions& options, const BspConfig& config,
                       std::vector<SuperstepStats>* log)
    : graph_(graph),
      options_(options),
      config_(config),
      gain_(options.p, static_cast<uint32_t>(graph.MaxQueryDegree()),
            options.future_splits),
      sharding_(config.num_workers, config.shard_seed),
      s1_router_(config.num_workers),
      log_(log) {
  SHP_CHECK_GT(config.num_workers, 0);
  const size_t W = static_cast<size_t>(config.num_workers);
  data_shards_ = VertexSharding::BuildDataShards(sharding_, graph.num_data());
  query_shards_ =
      VertexSharding::BuildQueryShards(sharding_, graph.num_queries());
  data_owner_.resize(graph.num_data());
  for (VertexId v = 0; v < graph.num_data(); ++v) {
    data_owner_[v] = sharding_.DataWorker(v);
  }
  query_ndata_.Clear(graph.num_queries());
  known_assignment_.assign(graph.num_data(), -1);
  cached_target_.assign(graph.num_data(), -1);
  cached_gain_.assign(graph.num_data(), 0.0);
  s1_touched_.resize(W);
  s1_records_.resize(W);
  s2_inbox_.resize(W);
  recompute_.assign(graph.num_data(), 0);
  recompute_lists_.resize(W);
  mover_lists_.resize(W);
  announce_lists_.resize(W);
  original_.assign(graph.num_data(), -1);
  proposal_scratch_.resize(W);
  ResetLinks();
  link_payload_bytes_.assign(W * W, 0);
  if (config.fault_schedule != nullptr) {
    injector_ = FaultInjector(*config.fault_schedule);
  }
  if (!config.checkpoint_dir.empty()) {
    checkpoints_ = std::make_unique<CheckpointManager>(
        config.checkpoint_dir, config.checkpoint_keep);
  }
}

uint64_t BspRefiner::MaxWorkerStateBytes() const {
  uint64_t worst = 0;
  for (int w = 0; w < config_.num_workers; ++w) {
    uint64_t bytes = 0;
    for (VertexId v : data_shards_[static_cast<size_t>(w)]) {
      bytes += graph_.DataDegree(v) * sizeof(VertexId) + 16;
      if (sweep_valid_) {
        // Delta-exchange replica: the vertex's accumulator entries replace
        // the pull path's cached neighbor-data lists.
        bytes += sweep_.Entries(v).size() * sizeof(AffinityEntry);
      }
    }
    for (VertexId q : query_shards_[static_cast<size_t>(w)]) {
      bytes += graph_.QueryDegree(q) * sizeof(VertexId) +
               query_ndata_.Fanout(q) * sizeof(BucketCount) + 16;
    }
    worst = std::max(worst, bytes);
  }
  return worst;
}

IterationStats BspRefiner::RunIteration(const MoveTopology& topo,
                                        Partition* partition, uint64_t seed,
                                        uint64_t iteration, ThreadPool* pool,
                                        const std::vector<BucketId>* anchor,
                                        double anchor_penalty) {
  SHP_CHECK_EQ(partition->num_data(), graph_.num_data());
  // Protocol epoch: the engine's own monotonic counter. The caller's
  // `iteration` parameter restarts under recursion drivers, so it cannot key
  // the wire protocol or the fault schedule. The exchange mode is constant
  // per engine instance (options and pow base are fixed at construction).
  Round round{topo,
              partition,
              seed,
              iteration,
              pool == nullptr ? &GlobalThreadPool() : pool,
              anchor,
              anchor_penalty,
              epoch_++,
              options_.UsesPush(gain_)};
  round.stats.push_sweep = round.push;

  // The four supersteps, in order (a braced list evaluates left to right);
  // each returns after its barrier.
  SuperstepStats steps[] = {CollectNeighborData(&round),
                            ExchangeAndPropose(&round),
                            ProposeToMaster(&round),
                            MoveAndCheckpoint(&round)};
  if (log_ != nullptr) {
    for (SuperstepStats& step : steps) {
      step.superstep = log_->size();
      log_->push_back(std::move(step));
    }
  }
  // Epoch boundary: everything of this iteration — moves, repair,
  // checkpoint — is committed; external observers (the serving loop's
  // migration bookkeeping) hook in here.
  if (config_.on_epoch_end) {
    config_.on_epoch_end(round.epoch, round.stats.num_moved);
  }
  return round.stats;
}

SuperstepStats BspRefiner::CollectNeighborData(Round* round) {
  const int W = config_.num_workers;
  const Partition& partition = *round->partition;
  ThreadPool* pool = round->pool;
  SuperstepStats s1;
  s1.label = "1:collect-neighbor-data";
  s1.work_units.assign(static_cast<size_t>(W), 0);

  // Worker kill at the superstep boundary: the replacement worker reloads
  // its query shard's adjacency and rebuilds its queries' neighbor data from
  // the partition state they last saw (known_assignment_), charged one unit
  // per pin, and every derived structure (accumulator replicas, cached
  // proposals, histograms) is re-bootstrapped below. Before the first
  // iteration there is no state to lose — a kill at epoch 0 is a no-op.
  if (!injector_.empty() && state_valid_) {
    bool killed = false;
    for (int w = 0; w < W; ++w) {
      if (!injector_.KillsWorker(round->epoch, w)) continue;
      for (VertexId q : query_shards_[static_cast<size_t>(w)]) {
        s1.work_units[static_cast<size_t>(w)] += graph_.QueryDegree(q);
      }
      killed = true;
      sweep_valid_ = false;
      proposals_valid_ = false;
      hist_valid_ = false;
      ++round->stats.workers_recovered;
      ++counters_.workers_recovered;
    }
    // One host rebuild serves every killed worker: the survivors' replicas
    // mirror known_assignment_ exactly, so rebuilding them too changes
    // nothing.
    if (killed) query_ndata_.Build(graph_, known_assignment_, pool);
  }

  // data -> query: bucket deltas from vertices whose bucket differs from
  // what their queries last saw. Steady state announces only last round's
  // net movers (the compact pending list); the O(n) per-vertex diff scan
  // runs only on the first iteration or when the partition was mutated
  // behind our back (detected below, never assumed — the diff scan then
  // self-heals the replicas).
  //
  // Worker w walks its list, and for every vertex v whose bucket changed
  // queues −1 at v's last announced bucket (none on a cold start) and +1 at
  // the new one on the wire to each adjacent query's owner, and records the
  // announcement.
  std::vector<uint64_t> changed(static_cast<size_t>(W), 0);
  const auto announce = [&](const std::vector<std::vector<VertexId>>& lists) {
    AddWork(&s1, RunPhase(W, pool, [&](int w) -> uint64_t {
              uint64_t work = 0;
              uint64_t num_changed = 0;
              for (const VertexId v : lists[static_cast<size_t>(w)]) {
                const BucketId before = known_assignment_[v];
                const BucketId now = partition.bucket_of(v);
                if (now == before) continue;
                for (VertexId q : graph_.DataNeighbors(v)) {
                  const int dst = sharding_.QueryWorker(q);
                  if (before >= 0) s1_router_.Send(w, dst, {q, before, -1});
                  s1_router_.Send(w, dst, {q, now, +1});
                }
                known_assignment_[v] = now;
                ++num_changed;
                work += 2 * static_cast<uint64_t>(graph_.DataDegree(v));
              }
              changed[static_cast<size_t>(w)] = num_changed;
              return work;
            }));
  };

  round->full_scan = !state_valid_;
  if (!round->full_scan) {
    // Each worker announces its own movers: split the list by owner once.
    for (auto& list : announce_lists_) list.clear();
    for (const VertexMove& m : pending_announce_) {
      announce_lists_[static_cast<size_t>(data_owner_[m.v])].push_back(m.v);
    }
    announce(announce_lists_);
    // Driver-level replica guard (int compare, not simulated work): after
    // folding the pending moves, anything still differing means the caller
    // mutated the partition externally.
    if (known_assignment_ != partition.assignment()) round->full_scan = true;
  }
  if (round->full_scan) {
    announce(data_shards_);
    if (sweep_valid_ &&
        options_.HighChurn(
            std::accumulate(changed.begin(), changed.end(), uint64_t{0}),
            graph_.num_data())) {
      // External-mutation churn guard (the same rule as the post-move
      // fallback in superstep 4): with this many externally changed
      // vertices the diff records outweigh a full reship, so drop the
      // replicas now — the fold then skips emission and superstep 2
      // re-bootstraps.
      sweep_valid_ = false;
    }
    proposals_valid_ = false;
    hist_valid_ = false;
  }

  // Combine each source row in place before it leaves the worker.
  RunPhase(W, pool, [&](int w) -> uint64_t {
    for (int dst = 0; dst < W; ++dst) CombineDeltas(&s1_router_.Cell(w, dst));
    return 0;
  });

  // Receive: each query owner folds its incoming deltas into its queries'
  // neighbor data with the threaded Refiner's fold, which emits one
  // (q, bucket, old, new) NeighborDelta per changed (query, bucket) in
  // ascending order — the records superstep 2 ships in delta-exchange mode,
  // independent of how the deltas were split over source workers — and
  // lists every query that received a delta, ascending (the queries a pull
  // reship sends). Records are only worth emitting when valid accumulator
  // replicas will consume them; after a high-churn round the replicas were
  // dropped and superstep 2 re-bootstraps instead.
  const bool emit = round->push && sweep_valid_;
  for (int w = 0; w < W; ++w) {
    const size_t wi = static_cast<size_t>(w);
    s1_inbox_.clear();
    for (int src = 0; src < W; ++src) {
      const auto& in = s1_router_.Incoming(src, w);
      s1_inbox_.insert(s1_inbox_.end(), in.begin(), in.end());
    }
    s1.work_units[wi] += s1_inbox_.size();
    s1_touched_[wi].clear();
    s1_records_[wi].clear();
    query_ndata_.ApplyDeltas(s1_inbox_, pool, &s1_touched_[wi],
                             emit ? &s1_records_[wi] : nullptr);
    round->stats.num_delta_records += s1_records_[wi].size();
  }
  round->stats.full_rebuild = round->full_scan;
  s1.traffic = s1_router_.CollectAndClear(
      [](int, int, const std::vector<BucketDeltaMsg>& cell) {
        return cell.size() * sizeof(BucketDeltaMsg);
      });

  // Records are emitted exactly when push && sweep_valid_ — superstep 2
  // then patches the accumulator replicas with them. The exchange mode is
  // constant per instance and grouped rounds now emit too, so a fold can
  // no longer change query replicas behind valid accumulators: sweep_valid_
  // implies push, and an invalid sweep re-bootstraps below. (A pull-mode
  // instance never builds replicas in the first place.)
  SHP_DCHECK(!sweep_valid_ || round->push);
#ifndef NDEBUG
  {
    // The delta-patched query replicas must be bit-identical to a rebuild
    // from the current assignment.
    QueryNeighborData fresh;
    fresh.Build(graph_, partition.assignment(), pool);
    SHP_CHECK(query_ndata_.ContentEquals(fresh))
        << "BSP query replicas diverged from a rebuild";
  }
#endif
  return s1;
}

SuperstepStats BspRefiner::ExchangeAndPropose(Round* round) {
  const int W = config_.num_workers;
  const bool push = round->push;
  ThreadPool* pool = round->pool;
  SuperstepStats s2;
  s2.work_units.assign(static_cast<size_t>(W), 0);

  // The scan direction is fixed per instance, so the topology and anchor
  // are all the cached proposals depend on beyond the replicas.
  const bool context_ok = proposal_context_.Matches(
      round->topo, round->anchor, round->anchor_penalty);
  if (!context_ok) {
    proposal_context_.Snapshot(round->topo, round->anchor,
                               round->anchor_penalty);
  }
  // Degraded mode: while any link is in backoff the delta exchange stays
  // suspended — full-reship bootstraps (which bypass the link protocol)
  // until the backoff expires.
  round->stats.degraded_links = static_cast<uint64_t>(std::count_if(
      link_backoff_until_.begin(), link_backoff_until_.end(),
      [&](uint64_t until) { return until > round->epoch; }));
  round->bootstrap =
      push && (!sweep_valid_ || round->stats.degraded_links > 0);
  if (push && !round->bootstrap && !ShipDeltas(round, &s2)) {
    // A link that exhausted its retries is unrecoverable this epoch — the
    // recovery action is the same replica invalidation + full reship the
    // churn guard uses, taken in this same iteration.
    sweep_valid_ = false;
    round->bootstrap = true;
    ++round->stats.reship_recoveries;
    ++counters_.reship_recoveries;
  }
  if (round->bootstrap) ++num_bootstraps_;
  round->recompute_all = round->full_scan || !proposals_valid_ ||
                         !context_ok || round->bootstrap;
  for (auto& list : recompute_lists_) list.clear();

  if (!push || round->bootstrap) {
    ReshipNeighborData(*round, &s2);
  } else {
    // Receive: each worker consumes its inbox (the transfer merged the
    // per-source runs, so it is ascending (q, bucket) — the order the
    // threaded refiner patches in), marks the blast radius, and patches the
    // accumulator replicas. The verified transfer already filled the inbox
    // — the records here are the *decoded* frames.
    AddWork(&s2, RunPhase(W, pool, [&](int w) -> uint64_t {
              if (round->recompute_all) return 0;
              uint64_t work = 0;
              VertexId last_q = static_cast<VertexId>(-1);
              for (const NeighborDelta& rec :
                   s2_inbox_[static_cast<size_t>(w)]) {
                if (rec.q == last_q) continue;
                last_q = rec.q;
                for (VertexId v : graph_.QueryNeighbors(rec.q)) {
                  work += Claim(w, v);
                }
              }
              return work + ClaimMovers(w);
            }));
    std::vector<std::span<const NeighborDelta>> inboxes(s2_inbox_.begin(),
                                                        s2_inbox_.end());
    AddWork(&s2, sweep_.ApplyDeltasSharded(graph_, inboxes, gain_.pow_table(),
                                           &data_owner_, pool));
  }

  // Proposal recomputation: the proposal function the threaded Refiner
  // runs, reading the query replicas (pull) or the accumulator replicas
  // (push), charged as the entries it scans. A recompute-all pass covers
  // every owned vertex, a steady pass only the claimed blast radius.
  const ProposalSource source{gain_, graph_, *round->partition, query_ndata_,
                              push ? &sweep_ : nullptr};
  const ProposalRule rule{round->topo, round->anchor, round->anchor_penalty,
                          options_.propose_nonpositive};
  const std::vector<std::vector<VertexId>>& work_lists =
      round->recompute_all ? data_shards_ : recompute_lists_;
  AddWork(&s2, RunPhase(W, pool, [&](int w) -> uint64_t {
            uint64_t work = 0;
            for (VertexId v : work_lists[static_cast<size_t>(w)]) {
              const Proposal proposal = ComputeProposal(
                  source, rule, v, /*explore_target=*/-1,
                  &proposal_scratch_[static_cast<size_t>(w)], &work);
              cached_target_[v] = proposal.target;
              cached_gain_[v] = proposal.gain;
            }
            return work;
          }));
  for (const auto& list : work_lists) {
    round->stats.num_recomputed += list.size();
  }
  proposals_valid_ = true;

  s2.label = push && !round->bootstrap ? "2:ship-deltas+gains"
                                       : "2:ship-neighbor-data+gains";
  // Worker stall: a straggler's extra work units gate the simulated epoch
  // time (slowest worker holds the barrier) without touching any exchanged
  // data — the trajectory is unchanged by construction.
  if (!injector_.empty()) {
    for (int w = 0; w < W; ++w) {
      const uint64_t stall = injector_.StallWorkUnits(round->epoch, w);
      if (stall == 0) continue;
      s2.work_units[static_cast<size_t>(w)] += stall;
      ++round->stats.stalled_workers;
      ++counters_.stalled_workers;
    }
  }

#ifndef NDEBUG
  if (push) {
    // The delta-patched accumulator replicas must match a fresh owner-
    // sharded build up to float summation order.
    AffinitySweep fresh;
    fresh.BuildSharded(graph_, query_ndata_, gain_.pow_table(), data_owner_,
                       W, pool);
    SHP_CHECK(sweep_.ApproxEquals(fresh, 1e-9, 1e-9))
        << "patched BSP accumulator replicas diverged from a fresh build";
  }
  CheckCachedProposals(source, rule, nullptr, cached_target_, cached_gain_,
                       pool);
#endif
  return s2;
}

bool BspRefiner::ShipDeltas(Round* round, SuperstepStats* s2) {
  const int W = config_.num_workers;
  MessageRouter<NeighborDelta> router(W);
  // Delta-exchange send: each dirty query's owner ships the sparse
  // NeighborDelta records produced while folding superstep 1 — O(delta
  // records × touched workers) on the wire, not O(Σ deg(dirty q) × touched
  // workers). Records are grouped by query (the fold emits them ascending),
  // so the destination mask is computed once per query.
  AddWork(s2, RunPhase(W, round->pool, [&](int w) -> uint64_t {
            uint64_t work = 0;
            std::vector<uint8_t> dst_mask(static_cast<size_t>(W));
            const std::vector<NeighborDelta>& records =
                s1_records_[static_cast<size_t>(w)];
            size_t i = 0;
            while (i < records.size()) {
              size_t j = i;
              while (j < records.size() && records[j].q == records[i].q) ++j;
              std::fill(dst_mask.begin(), dst_mask.end(), 0);
              for (VertexId v : graph_.QueryNeighbors(records[i].q)) {
                dst_mask[static_cast<size_t>(data_owner_[v])] = 1;
              }
              for (int dst = 0; dst < W; ++dst) {
                if (!dst_mask[static_cast<size_t>(dst)]) continue;
                for (size_t r = i; r < j; ++r) router.Send(w, dst, records[r]);
                work += j - i;
              }
              i = j;
            }
            return work;
          }));
  // Enveloped transfer: every remote delta buffer is encoded under the
  // grouped varint codec, framed, delivered (through the injector, with
  // bounded same-sequence retransmission), verified and decoded into
  // s2_inbox_.
  const bool delivered =
      TransferEnveloped(round->epoch, router, s2, &round->stats);
  // The payload byte series counts exactly the grouped varint stream, with
  // the envelope framing tracked separately in s2.envelope_bytes so the
  // series stays comparable across the protocol change. The accounting
  // replays the per-link payload sizes the transfer recorded instead of
  // re-encoding every buffer (an empty buffer encodes to zero bytes).
  s2->traffic += router.CollectAndClear(
      [this](int src, int dst, const std::vector<NeighborDelta>& buffer) {
        return buffer.empty() ? uint64_t{0}
                              : link_payload_bytes_[LinkIndex(src, dst)];
      });
  return delivered;
}

void BspRefiner::ReshipNeighborData(const Round& round, SuperstepStats* s2) {
  const int W = config_.num_workers;
  MessageRouter<NeighborDataMsg> router(W);
  // Full-reship send: dirty queries ship their topology-relevant neighbor
  // data, one combined message per destination worker. On a steady pull
  // round the dirty queries are those this round's fold touched. On a
  // recompute-all round every query is dirty: the pull path's data-side
  // caches hold topology-restricted lists, and a context change may
  // activate buckets they never received (on iteration 0 every query is
  // dirty anyway). The delta-exchange bootstrap charges the same volume —
  // the accumulator replicas are built from exactly this shipment.
  const std::vector<std::vector<VertexId>>& dirty =
      round.recompute_all ? query_shards_ : s1_touched_;
  AddWork(s2, RunPhase(W, round.pool, [&](int w) -> uint64_t {
            uint64_t work = 0;
            std::vector<uint8_t> dst_mask(static_cast<size_t>(W));
            for (VertexId q : dirty[static_cast<size_t>(w)]) {
              // Pull mode restricts to buckets active in this topology
              // (recursion sends "at most r values" per §3.3). A
              // delta-exchange bootstrap ships the *full* lists instead: the
              // accumulator replicas it seeds are topology-free, which is
              // what lets later recursion levels re-slice the active window
              // instead of reshipping.
              uint32_t restricted = query_ndata_.Fanout(q);
              if (!round.bootstrap) {
                restricted = 0;
                for (const BucketCount& e : query_ndata_.Entries(q)) {
                  restricted +=
                      round.topo.group_of_bucket[static_cast<size_t>(
                          e.bucket)] >= 0;
                }
              }
              if (restricted == 0) continue;
              std::fill(dst_mask.begin(), dst_mask.end(), 0);
              for (VertexId v : graph_.QueryNeighbors(q)) {
                dst_mask[static_cast<size_t>(data_owner_[v])] = 1;
              }
              for (int dst = 0; dst < W; ++dst) {
                if (!dst_mask[static_cast<size_t>(dst)]) continue;
                router.Send(w, dst, NeighborDataMsg{q, restricted});
                work += restricted;
              }
            }
            return work;
          }));
  // Receive: mark data vertices adjacent to dirty queries — plus last
  // round's movers — for proposal recomputation (unused on a recompute-all
  // pass).
  AddWork(s2, RunPhase(W, round.pool, [&](int w) -> uint64_t {
            uint64_t work = 0;
            for (int src = 0; src < W; ++src) {
              for (const NeighborDataMsg& m : router.Incoming(src, w)) {
                if (!round.recompute_all) {
                  for (VertexId v : graph_.QueryNeighbors(m.query)) {
                    Claim(w, v);
                  }
                }
                work += m.num_entries;
              }
            }
            return round.recompute_all ? work : work + ClaimMovers(w);
          }));
  s2->traffic += router.CollectAndClear(
      [](int, int, const std::vector<NeighborDataMsg>& buffer) {
        uint64_t bytes = 0;
        for (const NeighborDataMsg& m : buffer) {
          bytes += sizeof(VertexId) + m.num_entries * sizeof(BucketCount);
        }
        return bytes;
      });
  if (!round.bootstrap) return;
  // Build each data worker's accumulator replica from the shipment: one
  // vertex-major pass, each worker charged for its own vertices.
  AddWork(s2, sweep_.BuildSharded(graph_, query_ndata_, gain_.pow_table(),
                                  data_owner_, W, round.pool));
  sweep_valid_ = true;
  // The reship bypasses the enveloped link protocol, so it doubles as the
  // protocol resync point: receive sequences jump to the send sequences and
  // the next delta exchange starts from a clean chain.
  ResyncLinks();
}

bool BspRefiner::Claim(int w, VertexId v) {
  if (data_owner_[v] != w || recompute_[v]) return false;
  recompute_[v] = 1;
  recompute_lists_[static_cast<size_t>(w)].push_back(v);
  return true;
}

uint64_t BspRefiner::ClaimMovers(int w) {
  uint64_t marked = 0;
  for (const VertexMove& m : pending_announce_) marked += Claim(w, m.v);
  return marked;
}

SuperstepStats BspRefiner::ProposeToMaster(Round* round) {
  const int W = config_.num_workers;
  const Partition& partition = *round->partition;
  // data -> master: per-worker (bucket-pair, gain-bin) histograms — one
  // shard of the master state MoveBroker keeps, written only by its worker —
  // maintained incrementally from the compact changed-proposal list. Each
  // worker still uploads its full live histogram — the master's matching
  // needs every pair's totals — so bytes stay O(active pairs × bins); only
  // the accumulation work shrinks to the blast radius.
  const GainBinning& binning = options_.broker.binning;
  const bool rebuild = round->recompute_all || !hist_valid_;
  if (rebuild) hist_.Reset(static_cast<size_t>(W), graph_.num_data(), binning);
  const std::vector<std::vector<VertexId>>& lists =
      rebuild ? data_shards_ : recompute_lists_;
  SuperstepStats s3;
  s3.label = "3:propose-to-master";
  // A rebuild charges one unit per owned vertex, an update two per changed
  // proposal (its old contribution out, its new one in).
  s3.work_units = RunPhase(W, round->pool, [&](int w) -> uint64_t {
    const std::vector<VertexId>& list = lists[static_cast<size_t>(w)];
    for (VertexId v : list) {
      hist_.Update(static_cast<size_t>(w), v, partition.bucket_of(v),
                   cached_target_[v], cached_gain_[v]);
    }
    return (rebuild ? 1 : 2) * list.size();
  });
  hist_valid_ = true;
  // Emptied pairs leave the upload; the master is a distinct machine, so
  // every remaining histogram entry crosses the wire.
  for (int w = 0; w < W; ++w) {
    hist_.Prune(static_cast<size_t>(w));
    s3.traffic.remote_messages += hist_.num_pairs(static_cast<size_t>(w)) *
                                  static_cast<uint64_t>(binning.num_bins());
  }
  s3.traffic.remote_bytes = s3.traffic.remote_messages * sizeof(uint64_t);
#ifndef NDEBUG
  hist_.CheckAgainst(cached_target_, cached_gain_, partition);
#endif
  return s3;
}

SuperstepStats BspRefiner::MoveAndCheckpoint(Round* round) {
  const int W = config_.num_workers;
  Partition* partition = round->partition;
  // master -> data: probabilities; vertices draw and move; master repairs —
  // the threaded broker's draw and execution. The drawn movers land in
  // compact per-worker lists, so execution, repair, and next round's
  // superstep 1 touch O(moved) state.
  const PairProbabilityTable table =
      ComputePairProbabilities(round->topo, options_.broker.binning,
                               hist_.Merged(), *partition,
                               options_.broker.use_capacity_slack);
  const MoveDraw draw = MoveDraw::Matched(table, options_.broker, round->seed,
                                          round->iteration);
  SuperstepStats s4;
  s4.label = "4:probabilities+moves";
  std::vector<uint64_t> draws(static_cast<size_t>(W), 0);
  for (auto& list : mover_lists_) list.clear();
  s4.work_units = RunPhase(W, round->pool, [&](int w) -> uint64_t {
    const MoveDraw::Tally tally =
        draw.Run(data_shards_[static_cast<size_t>(w)], cached_target_,
                 cached_gain_, *partition,
                 &mover_lists_[static_cast<size_t>(w)]);
    draws[static_cast<size_t>(w)] = tally.draws;
    return tally.proposals;
  });
  // Broadcast: the probability table goes to every worker.
  for (const auto& [key, probs] : table.probabilities) {
    s4.traffic.remote_bytes += sizeof(uint64_t) + probs.size() * sizeof(float);
  }
  s4.traffic.remote_bytes *= static_cast<uint64_t>(W);
  s4.traffic.remote_messages =
      table.probabilities.size() * static_cast<uint64_t>(W);

  MoveOutcome outcome;
  outcome.num_proposals = hist_.num_proposals();
  outcome.num_draws = std::accumulate(draws.begin(), draws.end(), uint64_t{0});
  MoveBroker::ExecuteMoves(round->topo, cached_target_, cached_gain_,
                           options_.broker.max_moves_per_round, mover_lists_,
                           &movers_, &original_, partition, &outcome);
  round->stats.RecordOutcome(outcome, graph_.num_data());
  pending_announce_ = std::move(outcome.moves);
  state_valid_ = true;
  if (round->push &&
      options_.HighChurn(pending_announce_.size(), graph_.num_data())) {
    // High-churn fallback (the threaded refiner's rule): with this many
    // moved pins, the delta records outweigh the full restricted lists and
    // patching costs more than rebuilding — drop the accumulator replicas
    // and re-bootstrap next iteration.
    sweep_valid_ = false;
  }
  // Clear this round's recompute marks through the compact lists — the mark
  // array stays all-zero between iterations without an O(n) sweep.
  for (const auto& list : recompute_lists_) {
    for (VertexId v : list) recompute_[v] = 0;
  }

  // Epoch checkpoint: the full partition assignment plus the stats subset
  // the caller's convergence loop consumes, written after the moves so a
  // restore replays from the next epoch. A write failure degrades durability
  // (older checkpoints remain), never the run.
  if (checkpoints_ != nullptr && config_.checkpoint_interval > 0 &&
      round->epoch % static_cast<uint64_t>(config_.checkpoint_interval) == 0) {
    CheckpointData ckpt;
    ckpt.epoch = round->epoch;
    ckpt.num_moved = round->stats.num_moved;
    ckpt.gain_moved = round->stats.gain_moved;
    ckpt.moved_fraction = round->stats.moved_fraction;
    ckpt.k = static_cast<uint32_t>(partition->k());
    ckpt.assignment = partition->assignment();
    const Status ckpt_status = checkpoints_->Write(ckpt);
    if (ckpt_status.ok()) {
      ++counters_.checkpoints_written;
    } else {
      SHP_LOG(Warning) << "checkpoint write failed: "
                       << ckpt_status.ToString();
    }
  }
  return s4;
}

bool BspRefiner::TransferEnveloped(uint64_t epoch,
                                   const MessageRouter<NeighborDelta>& router,
                                   SuperstepStats* s2, IterationStats* stats) {
  const int W = config_.num_workers;
  const int max_attempts = 1 + std::max(config_.max_link_retries, 0);
  bool all_ok = true;
  std::vector<uint8_t> payload;
  std::vector<uint8_t> frame;
  std::vector<uint8_t> delivered;
  std::vector<NeighborDelta> decoded;
  for (int dst = 0; dst < W; ++dst) {
    std::vector<NeighborDelta>& inbox = s2_inbox_[static_cast<size_t>(dst)];
    inbox.clear();
    // Each source's run is ascending (q, bucket) and no (q, bucket) has two
    // sources (a query has one owner), so merging the runs as they arrive
    // leaves the inbox in the fold's global order.
    const auto merge_in = [&inbox](const std::vector<NeighborDelta>& run) {
      const size_t mid = inbox.size();
      inbox.insert(inbox.end(), run.begin(), run.end());
      std::inplace_merge(
          inbox.begin(), inbox.begin() + static_cast<ptrdiff_t>(mid),
          inbox.end(), [](const NeighborDelta& a, const NeighborDelta& b) {
            return a.q != b.q ? a.q < b.q : a.bucket < b.bucket;
          });
    };
    for (int src = 0; src < W; ++src) {
      const std::vector<NeighborDelta>& buffer = router.Incoming(src, dst);
      if (src == dst) {
        // Worker-local delivery is a memory read: no wire, no envelope.
        merge_in(buffer);
        continue;
      }
      const size_t link = LinkIndex(src, dst);
      // Every remote link sends a frame every epoch — empty payloads too.
      // That keeps the per-link sequence chain gapless, which is what turns
      // a dropped frame into a *detectable* absence at the barrier.
      payload.clear();
      wire::EncodeGroupedDeltas(buffer, &payload);
      link_payload_bytes_[link] = payload.size();
      wire::EnvelopeHeader header;
      header.epoch = epoch;
      header.sequence = ++link_send_seq_[link];
      header.record_count = buffer.size();
      frame.clear();
      s2->envelope_bytes += wire::EncodeEnveloped(header, payload, &frame);
      bool accepted = false;
      for (int attempt = 0; attempt < max_attempts && !accepted; ++attempt) {
        if (attempt > 0) {
          // Same-sequence retransmission of the full frame.
          ++stats->retransmits;
          ++counters_.retransmits;
          s2->retry_bytes += frame.size();
        }
        delivered = frame;
        const FaultInjector::WireAction action = injector_.OnDelivery(
            epoch, src, dst, attempt, &delivered, link_last_wire_[link]);
        if (action.drop) {
          // Nothing arrives; the gapless sequence chain means the receiver
          // notices the missing frame at the barrier (the simulated
          // timeout) and requests a retransmit.
          ++stats->faults_detected;
          ++counters_.faults_detected;
          continue;
        }
        wire::EnvelopeHeader got;
        decoded.clear();
        const wire::WireVerdict verdict =
            wire::DecodeEnveloped(delivered, &got, &decoded);
        bool frame_ok = verdict == wire::WireVerdict::kOk;
        // Envelope-level anomalies are classified against the link state:
        // a wrong epoch is a stale replay (reordering), a sequence below
        // recv+1 a duplicate, above it a gap.
        if (frame_ok && got.epoch != epoch) frame_ok = false;
        if (frame_ok && got.sequence != link_recv_seq_[link] + 1) {
          frame_ok = false;
        }
        if (!frame_ok) {
          ++stats->faults_detected;
          ++counters_.faults_detected;
          continue;
        }
        if (action.duplicate) {
          // The second copy arrives with a sequence the receiver has
          // already advanced past — detected and discarded, no
          // retransmission needed.
          ++stats->faults_detected;
          ++counters_.faults_detected;
        }
#ifndef NDEBUG
        // Lossless-wire gate: an accepted frame must reproduce the sender's
        // records bit-identically — the per-delivery decode-equivalence
        // CHECK that pins the faulted trajectory to the fault-free one.
        SHP_CHECK(decoded.size() == buffer.size() &&
                  std::equal(decoded.begin(), decoded.end(), buffer.begin()))
            << "enveloped superstep-2 frame round-trip mismatch on link "
            << src << "->" << dst;
#endif
        link_recv_seq_[link] = got.sequence;
        link_last_wire_[link] = frame;
        merge_in(decoded);
        accepted = true;
      }
      if (accepted) {
        link_fail_streak_[link] = 0;
        link_backoff_len_[link] = std::max(config_.link_backoff_epochs, 1);
      } else {
        all_ok = false;
        // Bounded exponential backoff once a link keeps failing whole
        // epochs: while it backs off, the engine degrades to full-reship
        // bootstraps instead of retrying the enveloped exchange.
        if (++link_fail_streak_[link] >= config_.link_degrade_threshold) {
          link_backoff_until_[link] =
              epoch + 1 + static_cast<uint64_t>(link_backoff_len_[link]);
          link_backoff_len_[link] =
              std::min(link_backoff_len_[link] * 2, config_.link_backoff_max);
        }
      }
    }
  }
  counters_.faults_injected = injector_.faults_injected();
  return all_ok;
}

void BspRefiner::ResyncLinks() {
  for (size_t l = 0; l < link_send_seq_.size(); ++l) {
    link_recv_seq_[l] = link_send_seq_[l];
    link_last_wire_[l].clear();
  }
}

void BspRefiner::ResetLinks() {
  const size_t links = static_cast<size_t>(config_.num_workers) *
                       static_cast<size_t>(config_.num_workers);
  link_send_seq_.assign(links, 0);
  link_recv_seq_.assign(links, 0);
  link_last_wire_.assign(links, {});
  link_fail_streak_.assign(links, 0);
  link_backoff_until_.assign(links, 0);
  link_backoff_len_.assign(links, std::max(config_.link_backoff_epochs, 1));
}

Status BspRefiner::RestoreLatestCheckpoint(Partition* partition) {
  if (checkpoints_ == nullptr) {
    return Status::NotFound(
        "checkpointing disabled (BspConfig::checkpoint_dir is empty)");
  }
  Result<CheckpointData> result = checkpoints_->LoadLatest();
  if (!result.ok()) return result.status();
  CheckpointData ckpt = std::move(result).value();
  if (ckpt.assignment.size() != static_cast<size_t>(graph_.num_data())) {
    return Status::Corruption("checkpoint vertex count " +
                              std::to_string(ckpt.assignment.size()) +
                              " does not match graph");
  }
  const uint64_t restored_epoch = ckpt.epoch;
  *partition = Partition::FromAssignment(std::move(ckpt.assignment),
                                         static_cast<BucketId>(ckpt.k));
  // Invalidate every piece of incremental state so the next RunIteration
  // bootstraps from the restored assignment exactly like a cold start —
  // replay is then a pure function of (assignment, seed, iteration), i.e.
  // indistinguishable from a run that never crashed.
  state_valid_ = false;
  sweep_valid_ = false;
  proposals_valid_ = false;
  hist_valid_ = false;
  std::fill(known_assignment_.begin(), known_assignment_.end(), -1);
  // The cold full scan re-folds every vertex against before = -1, which only
  // ever *adds* counts — stale replica content must go first.
  query_ndata_.Clear(graph_.num_queries());
  pending_announce_.clear();
  epoch_ = restored_epoch + 1;
  ResetLinks();
  ++counters_.rollbacks;
  return Status::Ok();
}

}  // namespace shp
