#include "engine/shp_bsp.h"

#include <algorithm>
#include <span>
#include <type_traits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/move_broker.h"
#include "engine/wire_format.h"

namespace shp {

namespace {

/// Superstep-2 payload of the pull (full-reship) path: one query's
/// (restricted) neighbor data, shipped once per destination worker and
/// fanned out locally. The delta-exchange path ships NeighborDelta records
/// instead (see shp_bsp.h / docs/distributed.md).
struct NeighborDataMsg {
  VertexId query;
  std::vector<BucketCount> entries;
};

/// Superstep-1 combiner key. Queries are VertexId — unsigned, with the full
/// 2^32 range legal — so the pack widens through uint64 directly, never
/// through a signed 32-bit cast. The static_asserts pin the layout.
uint64_t PackQueryBucket(VertexId q, BucketId b) {
  static_assert(sizeof(VertexId) == 4 && !std::is_signed_v<VertexId>,
                "PackQueryBucket assumes 32-bit unsigned query ids");
  static_assert(sizeof(BucketId) <= 4,
                "PackQueryBucket assumes bucket ids fit 32 bits");
  return (static_cast<uint64_t>(q) << 32) | static_cast<uint32_t>(b);
}

VertexId QueryOfKey(uint64_t key) { return static_cast<VertexId>(key >> 32); }

BucketId BucketOfKey(uint64_t key) {
  return static_cast<BucketId>(static_cast<uint32_t>(key));
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
  query_dirty_.assign(graph.num_queries(), 1);
  known_assignment_.assign(graph.num_data(), -1);
  cached_target_.assign(graph.num_data(), -1);
  cached_gain_.assign(graph.num_data(), 0.0);
  s1_records_.resize(W);
  s2_inbox_.resize(W);
  recompute_.assign(graph.num_data(), 0);
  recompute_lists_.resize(W);
  mover_lists_.resize(W);
  original_.assign(graph.num_data(), -1);
  proposal_scratch_.resize(W);
  const size_t links = W * W;
  link_send_seq_.assign(links, 0);
  link_recv_seq_.assign(links, 0);
  link_last_wire_.resize(links);
  link_fail_streak_.assign(links, 0);
  link_backoff_until_.assign(links, 0);
  link_backoff_len_.assign(links, std::max(config.link_backoff_epochs, 1));
  link_payload_bytes_.assign(links, 0);
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
  if (pool == nullptr) pool = &GlobalThreadPool();
  const int W = config_.num_workers;
  const uint64_t base_superstep =
      log_ == nullptr ? 0 : static_cast<uint64_t>(log_->size());
  IterationStats stats;

  // Protocol epoch: the engine's own monotonic counter. The caller's
  // `iteration` parameter restarts under recursion drivers, so it cannot key
  // the wire protocol or the fault schedule.
  const uint64_t epoch = epoch_++;

  // Worker kill at the superstep boundary: the replacement worker reloads
  // its query shard's adjacency and rebuilds its queries' neighbor data from
  // the partition state they last saw (known_assignment_), charged one unit
  // per pin, and every derived structure (accumulator replicas, cached
  // proposals, histograms) is re-bootstrapped below. Before the first
  // iteration there is no state to lose — a kill at epoch 0 is a no-op.
  std::vector<uint64_t> recovery_work(static_cast<size_t>(W), 0);
  if (!injector_.empty() && state_valid_) {
    bool killed = false;
    for (int w = 0; w < W; ++w) {
      if (!injector_.KillsWorker(epoch, w)) continue;
      for (VertexId q : query_shards_[static_cast<size_t>(w)]) {
        recovery_work[static_cast<size_t>(w)] += graph_.QueryDegree(q);
      }
      killed = true;
      sweep_valid_ = false;
      proposals_valid_ = false;
      hist_valid_ = false;
      ++stats.workers_recovered;
      ++counters_.workers_recovered;
    }
    // One host rebuild serves every killed worker: the survivors' replicas
    // mirror known_assignment_ exactly, so rebuilding them too changes
    // nothing.
    if (killed) query_ndata_.Build(graph_, known_assignment_, pool);
  }

  // Links still in backoff at this epoch force degraded (full-reship) mode.
  uint64_t backoff_links = 0;
  for (const uint64_t until : link_backoff_until_) {
    if (until > epoch) ++backoff_links;
  }
  stats.degraded_links = backoff_links;

  // Superstep-2 exchange mode: delta exchange + push sweep needs only a
  // nonzero pow base (same support condition as the threaded Refiner) —
  // grouped recursion windows run the same record exchange and scan the
  // group-restricted accumulator view, so SHP-2/r levels also ship O(moved
  // pins). The mode is constant per engine instance (options and pow base
  // are fixed at construction).
  const bool push =
      options_.sweep_mode != RefinerOptions::SweepMode::kPull &&
      gain_.SupportsPush();
  stats.push_sweep = push;

  // ---------------------------------------------------------------- S1 ---
  // data -> query: bucket deltas from vertices whose bucket differs from
  // what their queries last saw. Steady state announces only last round's
  // net movers (the compact pending list); the O(n) per-vertex diff scan
  // runs only on the first iteration or when the partition was mutated
  // behind our back (detected below, never assumed — the diff scan then
  // self-heals the replicas).
  MessageRouter<BucketDeltaMsg> router1(W);
  s1_combiner_.Reset(W);
  for (int w = 0; w < W; ++w) s1_records_[static_cast<size_t>(w)].clear();

  bool full_scan = !state_valid_;
  std::vector<uint64_t> s1_send_work(static_cast<size_t>(W), 0);
  if (!full_scan) {
    s1_send_work = RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      for (const VertexMove& m : pending_announce_) {
        if (data_owner_[m.v] != w) continue;
        const BucketId before = known_assignment_[m.v];
        const BucketId now = partition->bucket_of(m.v);
        if (now == before) continue;
        for (VertexId q : graph_.DataNeighbors(m.v)) {
          const int dst = sharding_.QueryWorker(q);
          if (before >= 0) {
            --s1_combiner_.Slot(w, dst, PackQueryBucket(q, before));
          }
          ++s1_combiner_.Slot(w, dst, PackQueryBucket(q, now));
          work += 2;
        }
        known_assignment_[m.v] = now;
      }
      return work;
    });
    // Driver-level replica guard (int compare, not simulated work): after
    // folding the pending moves, anything still differing means the caller
    // mutated the partition externally.
    if (known_assignment_ != partition->assignment()) full_scan = true;
  }
  if (full_scan) {
    std::vector<uint64_t> diff_changed(static_cast<size_t>(W), 0);
    const std::vector<uint64_t> diff_work =
        RunPhase(W, pool, [&](int w) -> uint64_t {
          uint64_t work = 0;
          uint64_t changed = 0;
          for (VertexId v : data_shards_[static_cast<size_t>(w)]) {
            const BucketId now = partition->bucket_of(v);
            const BucketId before = known_assignment_[v];
            if (now == before) continue;
            ++changed;
            for (VertexId q : graph_.DataNeighbors(v)) {
              const int dst = sharding_.QueryWorker(q);
              if (before >= 0) {
                --s1_combiner_.Slot(w, dst, PackQueryBucket(q, before));
              }
              ++s1_combiner_.Slot(w, dst, PackQueryBucket(q, now));
              work += 2;
            }
            known_assignment_[v] = now;
          }
          diff_changed[static_cast<size_t>(w)] = changed;
          return work;
        });
    uint64_t total_changed = 0;
    for (int w = 0; w < W; ++w) {
      s1_send_work[static_cast<size_t>(w)] +=
          diff_work[static_cast<size_t>(w)];
      total_changed += diff_changed[static_cast<size_t>(w)];
    }
    if (sweep_valid_ &&
        static_cast<double>(total_changed) >
            options_.incremental_rebuild_fraction *
                static_cast<double>(graph_.num_data())) {
      // External-mutation churn guard (same cost rule as the post-move
      // fallback below): with this many externally changed vertices the
      // diff records outweigh a full reship, so drop the replicas now —
      // the fold then skips emission and superstep 2 re-bootstraps.
      sweep_valid_ = false;
    }
    proposals_valid_ = false;
    hist_valid_ = false;
  }
  pending_announce_.clear();

  // Flush each source row of the combiner onto the wire.
  RunPhase(W, pool, [&](int w) -> uint64_t {
    for (int dst = 0; dst < W; ++dst) {
      for (const auto& [key, delta] : s1_combiner_.Cell(w, dst)) {
        if (delta == 0) continue;
        router1.Send(w, dst,
                     BucketDeltaMsg{QueryOfKey(key), BucketOfKey(key), delta});
      }
    }
    return 0;
  });

  // Receive: each query owner folds its incoming deltas into its queries'
  // neighbor data with the threaded Refiner's fold, which emits one
  // (q, bucket, old, new) NeighborDelta per changed (query, bucket) in
  // ascending order — the records superstep 2 ships in delta-exchange mode,
  // independent of how the deltas were split over source workers. Records
  // are only worth emitting when valid accumulator replicas will consume
  // them; after a high-churn round the replicas were dropped and superstep
  // 2 re-bootstraps instead. Every query that received a delta is dirty.
  const bool emit = push && sweep_valid_;
  std::vector<uint64_t> s1_recv_work(static_cast<size_t>(W), 0);
  for (int w = 0; w < W; ++w) {
    s1_inbox_.clear();
    for (int src = 0; src < W; ++src) {
      const auto& in = router1.Incoming(src, w);
      s1_inbox_.insert(s1_inbox_.end(), in.begin(), in.end());
    }
    s1_recv_work[static_cast<size_t>(w)] = s1_inbox_.size();
    s1_touched_.clear();
    query_ndata_.ApplyDeltas(s1_inbox_, pool, &s1_touched_,
                             emit ? &s1_records_[static_cast<size_t>(w)]
                                  : nullptr);
    for (const VertexId q : s1_touched_) query_dirty_[q] = 1;
  }

  // Records are emitted exactly when push && sweep_valid_ — superstep 2
  // then patches the accumulator replicas with them. The exchange mode is
  // constant per instance and grouped rounds now emit too, so a fold can
  // no longer change query replicas behind valid accumulators: sweep_valid_
  // implies push, and an invalid sweep re-bootstraps below. (A pull-mode
  // instance never builds replicas in the first place.)
  SHP_DCHECK(!sweep_valid_ || push);

  SuperstepStats s1;
  s1.label = "1:collect-neighbor-data";
  s1.superstep = base_superstep;
  s1.traffic = router1.CollectAndClear(sizeof(BucketDeltaMsg));
  s1.work_units.resize(static_cast<size_t>(W));
  for (int w = 0; w < W; ++w) {
    s1.work_units[static_cast<size_t>(w)] =
        s1_send_work[static_cast<size_t>(w)] +
        s1_recv_work[static_cast<size_t>(w)] +
        recovery_work[static_cast<size_t>(w)];
  }

#ifndef NDEBUG
  {
    // The delta-patched query replicas must be bit-identical to a rebuild
    // from the current assignment.
    QueryNeighborData fresh;
    fresh.Build(graph_, partition->assignment(), pool);
    SHP_CHECK(query_ndata_.ContentEquals(fresh))
        << "BSP query replicas diverged from a rebuild";
  }
#endif

  // ---------------------------------------------------------------- S2 ---
  // The scan direction is fixed per instance, so the topology and anchor
  // are all the cached proposals depend on beyond the replicas.
  const bool context_ok =
      proposal_context_.Matches(topo, anchor, anchor_penalty);
  if (!context_ok) proposal_context_.Snapshot(topo, anchor, anchor_penalty);
  // Degraded mode: while any link is in backoff the delta exchange stays
  // suspended — full-reship bootstraps (which bypass the link protocol)
  // until the backoff expires.
  const bool degraded = push && backoff_links > 0;
  bool bootstrap = push && (!sweep_valid_ || degraded);

  stats.full_rebuild = full_scan;
  for (int w = 0; w < W; ++w) {
    stats.num_delta_records += s1_records_[static_cast<size_t>(w)].size();
  }

  // Routers for both exchange flavors (only one carries traffic per mode).
  MessageRouter<NeighborDataMsg> router2(W);
  MessageRouter<NeighborDelta> router2d(W);
  std::vector<uint64_t> s2_send_work(static_cast<size_t>(W), 0);
  std::vector<uint64_t> s2_recv_work(static_cast<size_t>(W), 0);
  std::vector<uint64_t> s2_patch_work(static_cast<size_t>(W), 0);
  SuperstepStats s2;

  if (push && !bootstrap) {
    // Delta-exchange send: each dirty query's owner ships the sparse
    // NeighborDelta records produced while folding superstep 1 — O(delta
    // records × touched workers) on the wire, not O(Σ deg(dirty q) ×
    // touched workers). Records are grouped by query (the fold emits them
    // ascending), so the destination mask is computed once per query.
    s2_send_work = RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      std::vector<uint8_t> dst_mask(static_cast<size_t>(W));
      const std::vector<NeighborDelta>& records =
          s1_records_[static_cast<size_t>(w)];
      size_t i = 0;
      while (i < records.size()) {
        size_t j = i;
        while (j < records.size() && records[j].q == records[i].q) ++j;
        const VertexId q = records[i].q;
        std::fill(dst_mask.begin(), dst_mask.end(), 0);
        for (VertexId v : graph_.QueryNeighbors(q)) {
          dst_mask[static_cast<size_t>(data_owner_[v])] = 1;
        }
        for (int dst = 0; dst < W; ++dst) {
          if (!dst_mask[static_cast<size_t>(dst)]) continue;
          for (size_t r = i; r < j; ++r) router2d.Send(w, dst, records[r]);
          work += j - i;
        }
        i = j;
      }
      return work;
    });
    // Enveloped transfer: every remote delta buffer is encoded under the
    // grouped varint codec, framed, delivered (through the injector, with
    // bounded same-sequence retransmission), verified and decoded into
    // s2_inbox_. A link that exhausts its retries is unrecoverable this
    // epoch — the recovery action is the same replica invalidation +
    // full-reship the churn guard uses, taken in this same iteration.
    if (!TransferEnveloped(epoch, router2d, &s2, &stats)) {
      sweep_valid_ = false;
      bootstrap = true;
      ++stats.reship_recoveries;
      ++counters_.reship_recoveries;
    }
  }

  if (bootstrap) ++num_bootstraps_;
  const bool recompute_all =
      full_scan || !proposals_valid_ || !context_ok || bootstrap;
  for (int w = 0; w < W; ++w) recompute_lists_[static_cast<size_t>(w)].clear();
  if (!push && recompute_all) {
    // The pull path's data-side caches hold topology-restricted lists; a
    // context change may activate buckets they never received, so charge a
    // full reship (on iteration 0 every query is dirty anyway).
    std::fill(query_dirty_.begin(), query_dirty_.end(), 1);
  }

  // Marks owned vertex v for proposal recomputation; true when newly marked.
  const auto claim = [&](int w, VertexId v) {
    if (data_owner_[v] != w || recompute_[v]) return false;
    recompute_[v] = 1;
    recompute_lists_[static_cast<size_t>(w)].push_back(v);
    return true;
  };
  // Last round's movers recompute unconditionally: their `from` changed even
  // when offsetting moves cancelled every adjacent count delta. Returns the
  // number newly marked.
  const auto claim_movers = [&](int w) {
    uint64_t marked = 0;
    for (VertexId v : last_movers_) marked += claim(w, v);
    return marked;
  };

  if (!push || bootstrap) {
    // Full-reship send: dirty queries ship their topology-relevant neighbor
    // data, one combined message per destination worker. The delta-exchange
    // bootstrap charges the same volume — the accumulator replicas are built
    // from exactly this shipment. (Accumulated, not assigned: a failed
    // enveloped exchange earlier this iteration already charged its send.)
    const std::vector<uint64_t> reship_send_work =
        RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      std::vector<uint8_t> dst_mask(static_cast<size_t>(W));
      for (VertexId q : query_shards_[static_cast<size_t>(w)]) {
        if (!query_dirty_[q] && !bootstrap) continue;
        // Pull mode restricts to buckets active in this topology (recursion
        // sends "at most r values" per §3.3). A delta-exchange bootstrap
        // ships the *full* lists instead: the accumulator replicas it seeds
        // are topology-free, which is what lets later recursion levels
        // re-slice the active window instead of reshipping.
        std::vector<BucketCount> restricted;
        restricted.reserve(query_ndata_.Fanout(q));
        for (const BucketCount& e : query_ndata_.Entries(q)) {
          if (bootstrap ||
              topo.group_of_bucket[static_cast<size_t>(e.bucket)] >= 0) {
            restricted.push_back(e);
          }
        }
        if (restricted.empty()) continue;
        std::fill(dst_mask.begin(), dst_mask.end(), 0);
        for (VertexId v : graph_.QueryNeighbors(q)) {
          dst_mask[static_cast<size_t>(data_owner_[v])] = 1;
        }
        for (int dst = 0; dst < W; ++dst) {
          if (!dst_mask[static_cast<size_t>(dst)]) continue;
          router2.Send(w, dst, NeighborDataMsg{q, restricted});
          work += restricted.size();
        }
      }
      return work;
    });
    for (int w = 0; w < W; ++w) {
      s2_send_work[static_cast<size_t>(w)] +=
          reship_send_work[static_cast<size_t>(w)];
    }
    // Receive: mark data vertices adjacent to dirty queries — plus last
    // round's movers, whose own `from` changed even if every adjacent count
    // delta cancelled — for proposal recomputation (unused on a
    // recompute-all pass).
    s2_recv_work = RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      for (int src = 0; src < W; ++src) {
        for (const NeighborDataMsg& m : router2.Incoming(src, w)) {
          if (!recompute_all) {
            for (VertexId v : graph_.QueryNeighbors(m.query)) claim(w, v);
          }
          work += m.entries.size();
        }
      }
      return recompute_all ? work : work + claim_movers(w);
    });
    if (bootstrap) {
      // Build each data worker's accumulator replica from the shipment, one
      // query-major pass over its own shard.
      const std::vector<uint64_t> build_work = sweep_.BuildSharded(
          graph_, query_ndata_, gain_.pow_table(), data_owner_, W, pool);
      for (int w = 0; w < W; ++w) {
        s2_patch_work[static_cast<size_t>(w)] =
            build_work[static_cast<size_t>(w)];
      }
      sweep_valid_ = true;
      // The reship bypasses the enveloped link protocol, so it doubles as
      // the protocol resync point: receive sequences jump to the send
      // sequences and the next delta exchange starts from a clean chain.
      ResyncLinks();
    }
  } else {
    // Receive: each worker consumes its inbox (the transfer merged the
    // per-source runs, so it is ascending (q, bucket) — the order the
    // threaded refiner patches in), marks the blast radius, and patches the
    // accumulator replicas. The verified transfer above already filled the
    // inbox — the records here are the *decoded* frames.
    s2_recv_work = RunPhase(W, pool, [&](int w) -> uint64_t {
      uint64_t work = 0;
      const std::vector<NeighborDelta>& inbox =
          s2_inbox_[static_cast<size_t>(w)];
      if (!recompute_all) {
        VertexId last_q = static_cast<VertexId>(-1);
        for (const NeighborDelta& rec : inbox) {
          if (rec.q == last_q) continue;
          last_q = rec.q;
          for (VertexId v : graph_.QueryNeighbors(rec.q)) work += claim(w, v);
        }
        work += claim_movers(w);
      }
      return work;
    });
    std::vector<std::span<const NeighborDelta>> inboxes;
    inboxes.reserve(static_cast<size_t>(W));
    for (int w = 0; w < W; ++w) {
      inboxes.emplace_back(s2_inbox_[static_cast<size_t>(w)]);
    }
    s2_patch_work = sweep_.ApplyDeltasSharded(graph_, inboxes,
                                              gain_.pow_table(), &data_owner_,
                                              pool);
  }

  // Proposal recomputation: the proposal function the threaded Refiner
  // runs, reading the query replicas (pull) or the accumulator replicas
  // (push), charged as the entries it scans.
  const ProposalSource source{gain_, graph_, *partition, query_ndata_,
                              push ? &sweep_ : nullptr};
  const ProposalRule rule{topo, anchor, anchor_penalty,
                          options_.propose_nonpositive};
  const auto recompute_vertex = [&](int w, VertexId v, uint64_t* work) {
    const Proposal proposal =
        ComputeProposal(source, rule, v, /*explore_target=*/-1,
                        &proposal_scratch_[static_cast<size_t>(w)], work);
    cached_target_[v] = proposal.target;
    cached_gain_[v] = proposal.gain;
  };

  // A recompute-all pass covers every owned vertex, a steady pass only the
  // claimed blast radius.
  const std::vector<std::vector<VertexId>>& work_lists =
      recompute_all ? data_shards_ : recompute_lists_;
  const std::vector<uint64_t> s2_gain_work =
      RunPhase(W, pool, [&](int w) -> uint64_t {
        uint64_t work = 0;
        for (VertexId v : work_lists[static_cast<size_t>(w)]) {
          recompute_vertex(w, v, &work);
        }
        return work;
      });
  for (int w = 0; w < W; ++w) {
    stats.num_recomputed += work_lists[static_cast<size_t>(w)].size();
  }
  proposals_valid_ = true;

  // Queries consumed their dirty flag by sending.
  RunPhase(W, pool, [&](int w) -> uint64_t {
    for (VertexId q : query_shards_[static_cast<size_t>(w)]) {
      query_dirty_[q] = 0;
    }
    return 0;
  });

  s2.label = push && !bootstrap ? "2:ship-deltas+gains"
                                : "2:ship-neighbor-data+gains";
  s2.superstep = base_superstep + 1;
  s2.traffic = router2.CollectAndClearSized([](const NeighborDataMsg& m) {
    return sizeof(VertexId) + m.entries.size() * sizeof(BucketCount);
  });
  // Delta records go on the wire under the grouped varint codec; the payload
  // byte series counts exactly the grouped stream, with the envelope framing
  // tracked separately in s2.envelope_bytes so the series stays comparable
  // across the protocol change. The accounting replays the per-link payload
  // sizes the enveloped transfer recorded instead of re-encoding every
  // buffer. Only a transfer fills router2d, so a nonempty buffer always has
  // this epoch's size recorded (and an empty one encodes to zero bytes).
  s2.traffic += router2d.CollectAndClearPerLink(
      [this](int src, int dst, const std::vector<NeighborDelta>& buffer) {
        return buffer.empty() ? uint64_t{0}
                              : link_payload_bytes_[LinkIndex(src, dst)];
      });
  s2.work_units.resize(static_cast<size_t>(W));
  for (int w = 0; w < W; ++w) {
    s2.work_units[static_cast<size_t>(w)] =
        s2_send_work[static_cast<size_t>(w)] +
        s2_recv_work[static_cast<size_t>(w)] +
        s2_patch_work[static_cast<size_t>(w)] +
        s2_gain_work[static_cast<size_t>(w)];
  }
  // Worker stall: a straggler's extra work units gate the simulated epoch
  // time (slowest worker holds the barrier) without touching any exchanged
  // data — the trajectory is unchanged by construction.
  if (!injector_.empty()) {
    for (int w = 0; w < W; ++w) {
      const uint64_t stall = injector_.StallWorkUnits(epoch, w);
      if (stall == 0) continue;
      s2.work_units[static_cast<size_t>(w)] += stall;
      ++stats.stalled_workers;
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

  // ---------------------------------------------------------------- S3 ---
  // data -> master: per-worker (bucket-pair, gain-bin) histograms — one
  // shard of the master state MoveBroker keeps, written only by its worker —
  // maintained incrementally from the compact changed-proposal list. Each
  // worker still uploads its full live histogram — the master's matching
  // needs every pair's totals — so bytes stay O(active pairs × bins); only
  // the accumulation work shrinks to the blast radius.
  const GainBinning& binning = options_.broker.binning;
  const auto update_hist = [&](int w, VertexId v) {
    hist_.Update(static_cast<size_t>(w), v, partition->bucket_of(v),
                 cached_target_[v], cached_gain_[v]);
  };
  std::vector<uint64_t> s3_work;
  if (recompute_all || !hist_valid_) {
    hist_.Reset(static_cast<size_t>(W), graph_.num_data(), binning);
    s3_work = RunPhase(W, pool, [&](int w) -> uint64_t {
      const std::vector<VertexId>& shard = data_shards_[static_cast<size_t>(w)];
      for (VertexId v : shard) update_hist(w, v);
      return shard.size();
    });
    hist_valid_ = true;
  } else {
    s3_work = RunPhase(W, pool, [&](int w) -> uint64_t {
      const std::vector<VertexId>& list =
          recompute_lists_[static_cast<size_t>(w)];
      for (VertexId v : list) update_hist(w, v);
      return 2 * list.size();
    });
  }
  // Emptied pairs leave the upload; the master is a distinct machine, so
  // every remaining histogram entry crosses the wire.
  uint64_t s3_remote_entries = 0;
  for (int w = 0; w < W; ++w) {
    hist_.Prune(static_cast<size_t>(w));
    s3_remote_entries += hist_.num_pairs(static_cast<size_t>(w)) *
                         static_cast<uint64_t>(binning.num_bins());
  }
#ifndef NDEBUG
  hist_.CheckAgainst(cached_target_, cached_gain_, *partition);
#endif

  SuperstepStats s3;
  s3.label = "3:propose-to-master";
  s3.superstep = base_superstep + 2;
  s3.traffic.remote_messages = s3_remote_entries;
  s3.traffic.remote_bytes = s3_remote_entries * sizeof(uint64_t);
  s3.work_units = s3_work;

  // ---------------------------------------------------------------- S4 ---
  // master -> data: probabilities; vertices draw and move; master repairs —
  // the threaded broker's draw and execution. The drawn movers land in
  // compact per-worker lists, so execution, repair, and next round's
  // superstep 1 touch O(moved) state.
  const PairProbabilityTable table =
      ComputePairProbabilities(topo, binning, hist_.Merged(), *partition,
                               options_.broker.use_capacity_slack);
  const MoveDraw draw =
      MoveDraw::Matched(table, options_.broker, seed, iteration);
  std::vector<uint64_t> s4_draws(static_cast<size_t>(W), 0);
  for (int w = 0; w < W; ++w) mover_lists_[static_cast<size_t>(w)].clear();
  std::vector<uint64_t> s4_work = RunPhase(W, pool, [&](int w) -> uint64_t {
    const MoveDraw::Tally tally =
        draw.Run(data_shards_[static_cast<size_t>(w)], cached_target_,
                 cached_gain_, *partition,
                 &mover_lists_[static_cast<size_t>(w)]);
    s4_draws[static_cast<size_t>(w)] = tally.draws;
    return tally.proposals;
  });
  for (int w = 0; w < W; ++w) {
    stats.num_draws += s4_draws[static_cast<size_t>(w)];
  }

  MoveOutcome outcome;
  outcome.num_proposals = hist_.num_proposals();
  MoveBroker::ExecuteMoves(topo, cached_target_, cached_gain_,
                           options_.broker.max_moves_per_round, mover_lists_,
                           &movers_, &original_, partition, &outcome);
  pending_announce_ = std::move(outcome.moves);
  last_movers_.clear();
  for (const VertexMove& m : pending_announce_) last_movers_.push_back(m.v);
  state_valid_ = true;
  if (push &&
      static_cast<double>(pending_announce_.size()) >
          options_.incremental_rebuild_fraction *
              static_cast<double>(graph_.num_data())) {
    // High-churn fallback (mirrors the threaded refiner): with this many
    // moved pins, the delta records outweigh the full restricted lists and
    // patching costs more than rebuilding — drop the accumulator replicas
    // and re-bootstrap next iteration.
    sweep_valid_ = false;
  }

  // Clear this round's recompute marks through the compact lists — the mark
  // array stays all-zero between iterations without an O(n) sweep.
  for (int w = 0; w < W; ++w) {
    for (VertexId v : recompute_lists_[static_cast<size_t>(w)]) {
      recompute_[v] = 0;
    }
  }

  SuperstepStats s4;
  s4.label = "4:probabilities+moves";
  s4.superstep = base_superstep + 3;
  // Broadcast: the probability table goes to every worker.
  uint64_t table_bytes = 0;
  for (const auto& [key, probs] : table.probabilities) {
    table_bytes += sizeof(uint64_t) + probs.size() * sizeof(float);
  }
  s4.traffic.remote_messages = table.probabilities.size() *
                               static_cast<uint64_t>(W);
  s4.traffic.remote_bytes = table_bytes * static_cast<uint64_t>(W);
  s4.work_units = s4_work;

  if (log_ != nullptr) {
    log_->push_back(std::move(s1));
    log_->push_back(std::move(s2));
    log_->push_back(std::move(s3));
    log_->push_back(std::move(s4));
  }

  stats.num_proposals = outcome.num_proposals;
  stats.num_moved = outcome.num_moved;
  stats.num_reverted = outcome.num_reverted;
  stats.gain_moved = outcome.gain_moved;
  stats.moved_fraction =
      graph_.num_data() == 0
          ? 0.0
          : static_cast<double>(outcome.num_moved) /
                static_cast<double>(graph_.num_data());

  // Epoch checkpoint: the full partition assignment plus the stats subset
  // the caller's convergence loop consumes, written after the moves so a
  // restore replays from the next epoch. A write failure degrades durability
  // (older checkpoints remain), never the run.
  if (checkpoints_ != nullptr && config_.checkpoint_interval > 0 &&
      epoch % static_cast<uint64_t>(config_.checkpoint_interval) == 0) {
    CheckpointData ckpt;
    ckpt.epoch = epoch;
    ckpt.num_moved = stats.num_moved;
    ckpt.gain_moved = stats.gain_moved;
    ckpt.moved_fraction = stats.moved_fraction;
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
  // Epoch boundary: everything of this iteration — moves, repair,
  // checkpoint — is committed; external observers (the serving loop's
  // migration bookkeeping) hook in here.
  if (config_.on_epoch_end) config_.on_epoch_end(epoch, stats.num_moved);
  return stats;
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
  return all_ok;
}

void BspRefiner::ResyncLinks() {
  for (size_t l = 0; l < link_send_seq_.size(); ++l) {
    link_recv_seq_[l] = link_send_seq_[l];
    link_last_wire_[l].clear();
  }
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
  std::fill(query_dirty_.begin(), query_dirty_.end(), 1);
  pending_announce_.clear();
  last_movers_.clear();
  epoch_ = restored_epoch + 1;
  std::fill(link_send_seq_.begin(), link_send_seq_.end(), 0);
  std::fill(link_recv_seq_.begin(), link_recv_seq_.end(), 0);
  for (auto& wire_image : link_last_wire_) wire_image.clear();
  std::fill(link_fail_streak_.begin(), link_fail_streak_.end(), 0);
  std::fill(link_backoff_until_.begin(), link_backoff_until_.end(), 0);
  std::fill(link_backoff_len_.begin(), link_backoff_len_.end(),
            std::max(config_.link_backoff_epochs, 1));
  ++counters_.rollbacks;
  return Status::Ok();
}

}  // namespace shp
