#include "objective/affinity_sweep.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace shp {

namespace {

/// Slack slots appended to every accumulator at Build/Compact time so the
/// common "move occupies one new bucket" insert stays in place.
constexpr uint32_t kSlackPad = 2;

/// Contiguous vertex range owned by shard s of `shards` over n vertices.
inline VertexId ShardBegin(VertexId n, size_t shards, size_t s) {
  return static_cast<VertexId>(static_cast<uint64_t>(n) * s / shards);
}

/// Fills *prefix (n + 1 entries) with the data-degree prefix sum; returns
/// the total. One O(n) pass, shared by every split count of the call.
uint64_t FillDegreePrefix(const BipartiteGraph& graph, VertexId n,
                          std::vector<uint64_t>* prefix) {
  prefix->resize(static_cast<size_t>(n) + 1);
  uint64_t sum = 0;
  (*prefix)[0] = 0;
  for (VertexId v = 0; v < n; ++v) {
    sum += graph.DataDegree(v);
    (*prefix)[static_cast<size_t>(v) + 1] = sum;
  }
  return sum;
}

/// Σ-degree-weighted shard boundary: smallest v whose degree prefix reaches
/// total·s/shards (uniform split when the graph has no edges). The per-shard
/// sweep/patch cost is proportional to the Σ-degree of its vertex range, not
/// the vertex count — uniform ranges let a few hubs straggle the phase.
/// Compared as prefix·shards ≥ total·s in uint64 (no overflow at realistic
/// |E| × core counts, ≪ 2^64).
VertexId DegShardBegin(const std::vector<uint64_t>& prefix, VertexId n,
                       size_t shards, size_t s) {
  if (s >= shards) return n;
  const uint64_t total = prefix[static_cast<size_t>(n)];
  if (total == 0) return ShardBegin(n, shards, s);
  const uint64_t target = total * s;
  VertexId lo = 0;
  VertexId hi = n;
  while (lo < hi) {
    const VertexId mid = lo + (hi - lo) / 2;
    if (prefix[static_cast<size_t>(mid)] * shards >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Folds (support += sup, affinity += add, drop at support 0) into an owned
/// (overflowed) accumulator vector.
void ApplyToVec(std::vector<AffinityEntry>* vec, BucketId b, double add,
                int32_t sup, int64_t* live_delta) {
  auto it = std::lower_bound(
      vec->begin(), vec->end(), b,
      [](const AffinityEntry& e, BucketId bucket) { return e.bucket < bucket; });
  if (it != vec->end() && it->bucket == b) {
    it->affinity += add;
    SHP_DCHECK(sup >= 0 || it->support > 0);
    it->support = static_cast<uint32_t>(static_cast<int64_t>(it->support) + sup);
    if (it->support == 0) {
      vec->erase(it);
      --*live_delta;
    }
    return;
  }
  SHP_DCHECK(sup == 1) << "accumulator entry absent for a non-insert delta";
  vec->insert(it, {b, 1, add});
  ++*live_delta;
}

}  // namespace

void AffinitySweep::Build(const BipartiteGraph& graph,
                          const QueryNeighborData& ndata, const PowTable& pow,
                          ThreadPool* pool, std::vector<BucketWindow> windows) {
  SHP_CHECK(windows.empty() ||
            windows.size() == static_cast<size_t>(graph.num_data()));
  windows_ = std::move(windows);
  BuildPass(graph, ndata, pow, nullptr, 0, pool);
}

std::vector<uint64_t> AffinitySweep::BuildSharded(
    const BipartiteGraph& graph, const QueryNeighborData& ndata,
    const PowTable& pow, const std::vector<int32_t>& owner_of, int num_shards,
    ThreadPool* pool) {
  SHP_CHECK_GT(num_shards, 0);
  SHP_CHECK_EQ(owner_of.size(), static_cast<size_t>(graph.num_data()));
  windows_.clear();
  return BuildPass(graph, ndata, pow, &owner_of, num_shards, pool);
}

std::vector<uint64_t> AffinitySweep::BuildPass(
    const BipartiteGraph& graph, const QueryNeighborData& ndata,
    const PowTable& pow, const std::vector<int32_t>* owner_of, int num_owners,
    ThreadPool* pool) {
  const VertexId n = graph.num_data();
  if (pool == nullptr) pool = &GlobalThreadPool();
  const size_t owners = static_cast<size_t>(num_owners);
  std::vector<uint64_t> work(owners, 0);
  loc_.assign(n, Loc{});
  garbage_ = 0;
  live_entries_ = 0;
  last_build_adjacency_reads_ = 0;
  if (n == 0) {
    entries_.clear();
    return work;
  }

  const size_t workers = std::max<size_t>(1, pool->num_threads());
  const size_t shards = std::min<size_t>(workers, n);
  // Shard boundaries weighted by Σ-degree, not vertex count: a shard's cost
  // is the Σ-degree of its range, and power-law hubs make uniform ranges
  // straggle.
  FillDegreePrefix(graph, n, &scratch_.deg_prefix);
  std::vector<VertexId> bound(shards + 1);
  for (size_t s = 0; s <= shards; ++s) {
    bound[s] = DegShardBegin(scratch_.deg_prefix, n, shards, s);
  }

  // Vertex-major pass: each shard owns a contiguous vertex range and writes
  // its accumulators, in vertex order with slack, into its own run (loc_
  // offsets relative to the run). Every vertex sums its contributions in
  // ascending query order — the same float sequence for any shard count.
  // The first run starts in the previous arena's storage, so a rebuild
  // does not hold the old arena and a growing new one at once.
  std::vector<std::vector<AffinityEntry>> runs(shards);
  runs[0] = std::move(entries_);
  runs[0].clear();
  std::vector<uint64_t> live(shards, 0);
  std::vector<uint64_t> reads(shards, 0);
  // Per (shard, owner) work units: the entries each owner's vertices merge.
  std::vector<uint64_t> owner_work(shards * owners, 0);
  pool->ParallelFor(shards, [&](size_t sbegin, size_t send, size_t) {
    struct Sum {
      uint32_t support = 0;
      double affinity = 0.0;
    };
    std::vector<Sum> dense;  // indexed by bucket; all-zero between vertices
    std::vector<BucketId> touched;
    for (size_t s = sbegin; s < send; ++s) {
      std::vector<AffinityEntry>& run = runs[s];
      for (VertexId v = bound[s]; v < bound[s + 1]; ++v) {
        const BucketWindow window =
            windows_.empty()
                ? BucketWindow{0, std::numeric_limits<BucketId>::max()}
                : windows_[v];
        if (window.begin < window.end) {
          uint64_t merged = 0;
          for (const VertexId q : graph.DataNeighbors(v)) {
            const auto entries = ndata.Entries(q);
            auto it = entries.begin();
            if (window.begin > 0) {
              it = std::lower_bound(it, entries.end(), window.begin,
                                    [](const BucketCount& e, BucketId b) {
                                      return e.bucket < b;
                                    });
            }
            const auto first = it;
            for (; it != entries.end() && it->bucket < window.end; ++it) {
              const size_t b = static_cast<size_t>(it->bucket);
              if (b >= dense.size()) dense.resize(b + 1);
              Sum& sum = dense[b];
              if (sum.support == 0) touched.push_back(it->bucket);
              ++sum.support;
              sum.affinity += 1.0 - pow.Pow(it->count);
            }
            merged += static_cast<uint64_t>(it - first);
          }
          reads[s] += graph.DataDegree(v);
          if (owner_of != nullptr) {
            const int32_t owner = (*owner_of)[v];
            SHP_DCHECK(owner >= 0 && owner < num_owners);
            owner_work[s * owners + static_cast<size_t>(owner)] += merged;
          }
          std::sort(touched.begin(), touched.end());
        }
        Loc& loc = loc_[v];
        loc.begin = run.size();
        loc.size = static_cast<uint32_t>(touched.size());
        loc.cap = loc.size + kSlackPad;
        for (const BucketId b : touched) {
          Sum& sum = dense[static_cast<size_t>(b)];
          run.push_back({b, sum.support, sum.affinity});
          sum = Sum{};
        }
        run.resize(run.size() + kSlackPad);
        live[s] += touched.size();
        touched.clear();
      }
    }
  });

  // Concatenate the runs in shard (= vertex) order: the first run becomes
  // the arena and the others are copied in behind it, their offsets
  // rebased.
  std::vector<uint64_t> base(shards, 0);
  uint64_t total = 0;
  for (size_t s = 0; s < shards; ++s) {
    base[s] = total;
    total += runs[s].size();
    live_entries_ += live[s];
    last_build_adjacency_reads_ += reads[s];
    for (size_t o = 0; o < owners; ++o) work[o] += owner_work[s * owners + o];
  }
  entries_ = std::move(runs[0]);
  entries_.resize(total);
  pool->ParallelForEach(shards - 1, [&](size_t i) {
    const size_t s = i + 1;
    std::copy(runs[s].begin(), runs[s].end(),
              entries_.begin() + static_cast<ptrdiff_t>(base[s]));
    for (VertexId v = bound[s]; v < bound[s + 1]; ++v) loc_[v].begin += base[s];
  });
  return work;
}

double AffinitySweep::AffinityFor(VertexId v, BucketId b) const {
  const auto entries = Entries(v);
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), b,
      [](const AffinityEntry& e, BucketId bucket) { return e.bucket < bucket; });
  if (it != entries.end() && it->bucket == b) return it->affinity;
  return 0.0;
}

void AffinitySweep::PatchEntry(VertexId v, BucketId bucket, double add,
                               int32_t sup, ShardOverflow* ovf,
                               int64_t* live_delta) {
  if (!ovf->index.empty()) {
    const auto oit = ovf->index.find(v);
    if (oit != ovf->index.end()) {
      ApplyToVec(&ovf->lists[oit->second].second, bucket, add, sup,
                 live_delta);
      return;
    }
  }
  Loc& loc = loc_[v];
  AffinityEntry* base = entries_.data() + loc.begin;
  AffinityEntry* pos = std::lower_bound(
      base, base + loc.size, bucket,
      [](const AffinityEntry& e, BucketId b) { return e.bucket < b; });
  if (pos != base + loc.size && pos->bucket == bucket) {
    pos->affinity += add;
    SHP_DCHECK(sup >= 0 || pos->support > 0);
    pos->support =
        static_cast<uint32_t>(static_cast<int64_t>(pos->support) + sup);
    if (pos->support == 0) {
      // Dropping the entry resets the float to an exact 0 — no cancellation
      // drift survives an emptied bucket.
      std::copy(pos + 1, base + loc.size, pos);
      --loc.size;
      --*live_delta;
    }
    return;
  }
  SHP_DCHECK(sup == 1) << "accumulator entry absent for a non-insert delta";
  if (loc.size == loc.cap) {
    // Outgrew the slack: move to overflow with the insert applied.
    std::vector<AffinityEntry> vec;
    vec.reserve(loc.size + 2);
    vec.insert(vec.end(), base, pos);
    vec.push_back({bucket, 1, add});
    vec.insert(vec.end(), pos, base + loc.size);
    ++*live_delta;
    ovf->index.emplace(v, ovf->lists.size());
    ovf->lists.emplace_back(v, std::move(vec));
    return;
  }
  std::copy_backward(pos, base + loc.size, base + loc.size + 1);
  *pos = {bucket, 1, add};
  ++loc.size;
  ++*live_delta;
}

void AffinitySweep::MergeOverflow(size_t count) {
  // Relocate overflowed accumulators to the arena tail (serial — the arena
  // may reallocate) and fold the per-shard accounting.
  int64_t total_delta = 0;
  for (size_t s = 0; s < count; ++s) {
    total_delta += scratch_.live_delta[s];
    for (auto& [v, vec] : scratch_.overflow[s].lists) {
      const uint32_t sz = static_cast<uint32_t>(vec.size());
      const uint32_t new_cap = sz + std::max(kSlackPad, sz / 2);
      const uint64_t new_begin = entries_.size();
      entries_.resize(new_begin + new_cap);
      std::copy(vec.begin(), vec.end(),
                entries_.begin() + static_cast<ptrdiff_t>(new_begin));
      Loc& loc = loc_[v];
      garbage_ += loc.cap;
      loc.begin = new_begin;
      loc.cap = new_cap;
      loc.size = sz;
    }
  }
  live_entries_ = static_cast<uint64_t>(
      static_cast<int64_t>(live_entries_) + total_delta);
  MaybeCompact();
}

std::vector<uint64_t> AffinitySweep::ApplyDeltasSharded(
    const BipartiteGraph& graph,
    const std::vector<std::span<const NeighborDelta>>& records,
    const PowTable& pow, const std::vector<int32_t>* owner_of,
    ThreadPool* pool) {
  std::vector<uint64_t> work(records.size(), 0);
  const VertexId n = num_vertices();
  if (n == 0 || records.empty()) return work;
  if (pool == nullptr) pool = &GlobalThreadPool();
  SHP_CHECK(owner_of != nullptr ? owner_of->size() == static_cast<size_t>(n)
                                : records.size() == 1);

  // Host sub-sharding weights: Σ deg(q) over each worker's records is that
  // inbox's patch cost, so a hub-query-heavy inbox gets proportionally more
  // vertex-range subtasks instead of serializing the phase on one thread.
  // Per-record scan cost is charged once per worker (the sub-task rescans
  // are host parallelization, not simulated work).
  std::vector<uint64_t> weight(records.size(), 0);
  uint64_t total_weight = 0;
  for (size_t s = 0; s < records.size(); ++s) {
    for (const NeighborDelta& rec : records[s]) {
      weight[s] += graph.QueryDegree(rec.q);
    }
    total_weight += weight[s];
    work[s] = records[s].size();
  }
  if (total_weight == 0) return work;

  struct Task {
    int32_t shard;
    VertexId vbegin;
    VertexId vend;
  };
  const uint64_t host = std::max<uint64_t>(1, pool->num_threads());
  // Sub-task vertex ranges are Σ-degree-weighted (the patch cost of a range
  // follows the record-adjacent pins in it, for which the degree mass is the
  // stable proxy): one prefix pass serves every split count.
  FillDegreePrefix(graph, n, &scratch_.deg_prefix);
  std::vector<Task> tasks;
  for (size_t s = 0; s < records.size(); ++s) {
    if (weight[s] == 0) continue;
    const uint64_t splits = std::min<uint64_t>(
        host, 1 + weight[s] * host / total_weight);
    for (uint64_t t = 0; t < splits; ++t) {
      tasks.push_back({static_cast<int32_t>(s),
                       DegShardBegin(scratch_.deg_prefix, n,
                                     static_cast<size_t>(splits),
                                     static_cast<size_t>(t)),
                       DegShardBegin(scratch_.deg_prefix, n,
                                     static_cast<size_t>(splits),
                                     static_cast<size_t>(t) + 1)});
    }
  }

  std::vector<ShardOverflow>& overflow = scratch_.overflow;
  std::vector<int64_t>& live_delta = scratch_.live_delta;
  overflow.resize(std::max(overflow.size(), tasks.size()));
  live_delta.assign(std::max(live_delta.size(), tasks.size()), 0);
  for (size_t t = 0; t < tasks.size(); ++t) {
    overflow[t].lists.clear();
    overflow[t].index.clear();
  }
  std::vector<uint64_t> patched(tasks.size(), 0);

  // (worker shard, vertex range) tasks: a vertex belongs to one shard and
  // one range, so the arena stays single-writer per accumulator.
  pool->ParallelForEach(tasks.size(), [&](size_t t) {
    const Task& task = tasks[t];
    if (task.vbegin == task.vend) return;
    ShardOverflow& ovf = overflow[t];
    const BucketWindow* windows = windows_.empty() ? nullptr : windows_.data();
    int64_t delta = 0;
    uint64_t ops = 0;
    for (const NeighborDelta& rec : records[static_cast<size_t>(task.shard)]) {
      const double add = pow.Pow(rec.old_count) - pow.Pow(rec.new_count);
      const int32_t sup = static_cast<int32_t>(rec.old_count == 0) -
                          static_cast<int32_t>(rec.new_count == 0);
      const auto nbrs = graph.QueryNeighbors(rec.q);
      const auto lo = std::lower_bound(nbrs.begin(), nbrs.end(), task.vbegin);
      if (lo == nbrs.end() || *lo >= task.vend) continue;
      const auto hi = std::lower_bound(lo, nbrs.end(), task.vend);
      for (auto it = lo; it != hi; ++it) {
        if (owner_of != nullptr && (*owner_of)[*it] != task.shard) continue;
        if (windows != nullptr && !windows[*it].Contains(rec.bucket)) continue;
        PatchEntry(*it, rec.bucket, add, sup, &ovf, &delta);
        ++ops;
      }
    }
    live_delta[t] = delta;
    patched[t] = ops;
  });

  MergeOverflow(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    work[static_cast<size_t>(tasks[t].shard)] += patched[t];
  }
  return work;
}

void AffinitySweep::Compact() {
  const VertexId n = num_vertices();
  std::vector<AffinityEntry> fresh;
  fresh.reserve(live_entries_ + static_cast<uint64_t>(kSlackPad) * n);
  for (VertexId v = 0; v < n; ++v) {
    const auto span = Entries(v);
    Loc& loc = loc_[v];
    loc.begin = fresh.size();
    fresh.insert(fresh.end(), span.begin(), span.end());
    loc.cap = loc.size + kSlackPad;
    fresh.resize(fresh.size() + kSlackPad);
  }
  entries_ = std::move(fresh);
  garbage_ = 0;
}

void AffinitySweep::MaybeCompact() {
  if (garbage_ > live_entries_ / 2 + 1024) Compact();
}

bool AffinitySweep::ApproxEquals(const AffinitySweep& other, double atol,
                                 double rtol) const {
  if (num_vertices() != other.num_vertices()) return false;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const auto a = Entries(v);
    const auto b = other.Entries(v);
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].bucket != b[i].bucket || a[i].support != b[i].support) {
        return false;
      }
      const double tol =
          atol + rtol * std::max(std::fabs(a[i].affinity),
                                 std::fabs(b[i].affinity));
      if (std::fabs(a[i].affinity - b[i].affinity) > tol) return false;
    }
  }
  return true;
}

}  // namespace shp
