#include "objective/neighbor_data.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace shp {

namespace {

/// Slack slots appended to every entry list at Build/Compact time so that
/// the common "move introduces one new bucket" splice stays in place.
constexpr uint32_t kSlackPad = 2;

/// Per-thread counting-sort scratch for Build: dense per-bucket counts plus
/// the touched-bucket list used to reset them in O(fanout).
struct BuildScratch {
  std::vector<uint32_t> counts;
  std::vector<BucketId> touched;

  void EnsureBuckets(size_t k) {
    if (counts.size() < k) counts.assign(k, 0);
  }
};

}  // namespace

void QueryNeighborData::Build(const BipartiteGraph& graph,
                              const std::vector<BucketId>& assignment,
                              ThreadPool* pool) {
  SHP_CHECK_EQ(assignment.size(), graph.num_data());
  const VertexId num_queries = graph.num_queries();
  if (pool == nullptr) pool = &GlobalThreadPool();

  size_t k = 0;
  for (const BucketId b : assignment) {
    SHP_DCHECK(b >= 0);
    k = std::max(k, static_cast<size_t>(b) + 1);
  }

  loc_.assign(num_queries, Loc{});
  garbage_ = 0;

  std::vector<BuildScratch> scratch(std::max<size_t>(1, pool->num_threads()));

  // Pass 1: fanout per query via counting over a dense k-sized per-thread
  // scratch (reset through the touched list, so each query costs O(deg + f)).
  pool->ParallelFor(num_queries, [&](size_t begin, size_t end, size_t worker) {
    BuildScratch& s = scratch[worker];
    s.EnsureBuckets(k);
    for (size_t q = begin; q < end; ++q) {
      s.touched.clear();
      for (VertexId v : graph.QueryNeighbors(static_cast<VertexId>(q))) {
        const BucketId b = assignment[v];
        if (s.counts[static_cast<size_t>(b)]++ == 0) s.touched.push_back(b);
      }
      loc_[q].size = static_cast<uint32_t>(s.touched.size());
      for (const BucketId b : s.touched) s.counts[static_cast<size_t>(b)] = 0;
    }
  });

  // Offsets with per-query slack; live total for TotalEntries().
  uint64_t cursor = 0;
  live_entries_ = 0;
  for (VertexId q = 0; q < num_queries; ++q) {
    Loc& loc = loc_[q];
    loc.begin = cursor;
    loc.cap = loc.size + kSlackPad;
    cursor += loc.cap;
    live_entries_ += loc.size;
  }
  entries_.assign(cursor, BucketCount{});

  // Pass 2: recount and emit sorted run-length entries. Only the (small)
  // touched list is sorted — O(f log f) per query instead of O(deg log deg).
  pool->ParallelFor(num_queries, [&](size_t begin, size_t end, size_t worker) {
    BuildScratch& s = scratch[worker];
    s.EnsureBuckets(k);
    for (size_t q = begin; q < end; ++q) {
      s.touched.clear();
      for (VertexId v : graph.QueryNeighbors(static_cast<VertexId>(q))) {
        const BucketId b = assignment[v];
        if (s.counts[static_cast<size_t>(b)]++ == 0) s.touched.push_back(b);
      }
      std::sort(s.touched.begin(), s.touched.end());
      BucketCount* out = entries_.data() + loc_[q].begin;
      for (const BucketId b : s.touched) {
        *out++ = {b, s.counts[static_cast<size_t>(b)]};
        s.counts[static_cast<size_t>(b)] = 0;
      }
      SHP_DCHECK(out == entries_.data() + loc_[q].begin + loc_[q].size);
    }
  });
}

void QueryNeighborData::Clear(VertexId num_queries) {
  entries_.clear();
  loc_.assign(num_queries, Loc{});
  live_entries_ = 0;
  garbage_ = 0;
}

template <class Expand>
void QueryNeighborData::Fold(size_t num_items, const Expand& expand,
                             ThreadPool* pool,
                             std::vector<VertexId>* touched_queries,
                             std::vector<NeighborDelta>* records) {
  if (num_items == 0) return;
  if (pool == nullptr) pool = &GlobalThreadPool();
  const VertexId nq = num_queries();
  if (nq == 0) return;

  const size_t workers = std::max<size_t>(1, pool->num_threads());
  const size_t shards = std::min<size_t>(workers, nq);
  // Over-decompose the query space so the fold can be balanced by the
  // *measured* delta volume instead of uniform id ranges: one hub query
  // receiving many deltas otherwise serializes its whole shard.
  const size_t minis = std::min<size_t>(static_cast<size_t>(nq), shards * 8);
  const auto mini_of = [&](VertexId q) {
    return static_cast<size_t>(static_cast<uint64_t>(q) * minis / nq);
  };
  FoldScratch& s = scratch_;

  // Scatter in two passes over the same static item split: count each
  // worker's deltas per mini-shard, then write them into one flat array in
  // which every mini-shard's deltas are contiguous.
  std::vector<size_t>& offset = s.offset;
  offset.assign(workers * minis, 0);
  pool->ParallelFor(num_items, [&](size_t begin, size_t end, size_t w) {
    size_t* count = offset.data() + w * minis;
    for (size_t i = begin; i < end; ++i) {
      expand(i, [&](const BucketDeltaMsg& d) { ++count[mini_of(d.query)]; });
    }
  });
  std::vector<size_t>& mini_begin = s.mini_begin;
  mini_begin.resize(minis + 1);
  size_t total = 0;
  for (size_t m = 0; m < minis; ++m) {
    mini_begin[m] = total;
    for (size_t w = 0; w < workers; ++w) {
      const size_t count = offset[w * minis + m];
      offset[w * minis + m] = total;
      total += count;
    }
  }
  mini_begin[minis] = total;
  s.scattered.resize(total);
  pool->ParallelFor(num_items, [&](size_t begin, size_t end, size_t w) {
    size_t* cursor = offset.data() + w * minis;
    for (size_t i = begin; i < end; ++i) {
      expand(i, [&](const BucketDeltaMsg& d) {
        s.scattered[cursor[mini_of(d.query)]++] = d;
      });
    }
  });

  // Group contiguous mini-shards into per-worker fold ranges balanced by
  // their delta counts: boundary g is the first mini-shard whose delta
  // prefix reaches g/shards of the total.
  std::vector<size_t>& group_begin = s.group_begin;
  group_begin.assign(shards + 1, minis);
  group_begin[0] = 0;
  for (size_t g = 1, m = 0; g < shards; ++g) {
    while (m < minis && mini_begin[m] * shards < total * g) ++m;
    group_begin[g] = m;
  }

  // Fold: each shard sorts its deltas by (query, bucket), sums every
  // (query, bucket) run and merges the net changes into the query's entry
  // list — in place while the list fits its slack, else into a shard-local
  // overflow list (the shared arena cannot be grown concurrently) that is
  // appended to the arena below.
  s.merged.resize(std::max(s.merged.size(), shards));
  s.overflow.resize(std::max(s.overflow.size(), shards));
  s.live_delta.assign(std::max(s.live_delta.size(), shards), 0);
  s.touched.resize(std::max(s.touched.size(), shards));
  s.records.resize(std::max(s.records.size(), shards));
  pool->ParallelFor(shards, [&](size_t sbegin, size_t send, size_t) {
    for (size_t sh = sbegin; sh < send; ++sh) {
      BucketDeltaMsg* it = s.scattered.data() + mini_begin[group_begin[sh]];
      BucketDeltaMsg* const last =
          s.scattered.data() + mini_begin[group_begin[sh + 1]];
      std::sort(it, last, QueryBucketLess);
      std::vector<BucketCount>& merged = s.merged[sh];
      auto& overflow = s.overflow[sh];
      std::vector<VertexId>& touched = s.touched[sh];
      std::vector<NeighborDelta>* emit =
          records != nullptr ? &s.records[sh] : nullptr;
      overflow.clear();
      touched.clear();
      if (emit != nullptr) emit->clear();
      int64_t live_delta = 0;
      while (it != last) {
        const VertexId q = it->query;
        touched.push_back(q);
        Loc& loc = loc_[q];
        const BucketCount* old = entries_.data() + loc.begin;
        const uint32_t n = loc.size;
        uint32_t a = 0;
        merged.clear();
        while (it != last && it->query == q) {
          const BucketId b = it->bucket;
          const int64_t sum = SumRun(it, last);
          while (a < n && old[a].bucket < b) merged.push_back(old[a++]);
          const uint32_t before =
              a < n && old[a].bucket == b ? old[a++].count : 0;
          const int64_t after = before + sum;
          SHP_CHECK(after >= 0) << "neighbor count of query " << q
                                << " in bucket " << b << " would go negative";
          if (after > 0) merged.push_back({b, static_cast<uint32_t>(after)});
          if (sum != 0 && emit != nullptr) {
            emit->push_back({q, b, before, static_cast<uint32_t>(after)});
          }
        }
        merged.insert(merged.end(), old + a, old + n);
        live_delta += static_cast<int64_t>(merged.size()) - n;
        if (merged.size() <= loc.cap) {
          std::copy(merged.begin(), merged.end(),
                    entries_.begin() + static_cast<ptrdiff_t>(loc.begin));
          loc.size = static_cast<uint32_t>(merged.size());
        } else {
          overflow.emplace_back(q, merged);
        }
      }
      s.live_delta[sh] = live_delta;
    }
  });

  // Append the overflowed lists to the arena tail (serial — the arena may
  // reallocate) and fold the per-shard accounting. Shards own ascending
  // query ranges, so concatenating their outputs keeps them ascending.
  int64_t total_delta = 0;
  for (size_t sh = 0; sh < shards; ++sh) {
    total_delta += s.live_delta[sh];
    for (auto& [q, vec] : s.overflow[sh]) {
      const uint32_t n = static_cast<uint32_t>(vec.size());
      const uint32_t new_cap = n + std::max(kSlackPad, n / 2);
      const uint64_t new_begin = entries_.size();
      entries_.resize(new_begin + new_cap);
      std::copy(vec.begin(), vec.end(),
                entries_.begin() + static_cast<ptrdiff_t>(new_begin));
      Loc& loc = loc_[q];
      garbage_ += loc.cap;
      loc.begin = new_begin;
      loc.cap = new_cap;
      loc.size = n;
    }
    if (touched_queries != nullptr) {
      touched_queries->insert(touched_queries->end(), s.touched[sh].begin(),
                              s.touched[sh].end());
    }
    if (records != nullptr) {
      records->insert(records->end(), s.records[sh].begin(),
                      s.records[sh].end());
    }
  }
  live_entries_ = static_cast<uint64_t>(
      static_cast<int64_t>(live_entries_) + total_delta);
  MaybeCompact();
}

void QueryNeighborData::ApplyDeltas(std::span<const BucketDeltaMsg> deltas,
                                    ThreadPool* pool,
                                    std::vector<VertexId>* touched_queries,
                                    std::vector<NeighborDelta>* records) {
  Fold(
      deltas.size(),
      [&](size_t i, const auto& emit) { emit(deltas[i]); }, pool,
      touched_queries, records);
}

void QueryNeighborData::ApplyMoves(const BipartiteGraph& graph,
                                   std::span<const VertexMove> moves,
                                   ThreadPool* pool,
                                   std::vector<VertexId>* touched_queries,
                                   std::vector<NeighborDelta>* records) {
  Fold(
      moves.size(),
      [&](size_t i, const auto& emit) {
        const VertexMove& m = moves[i];
        SHP_DCHECK(m.from != m.to);
        for (VertexId q : graph.DataNeighbors(m.v)) {
          emit({q, m.from, -1});
          emit({q, m.to, +1});
        }
      },
      pool, touched_queries, records);
}

void QueryNeighborData::Compact() {
  const VertexId nq = num_queries();
  std::vector<BucketCount> fresh;
  fresh.reserve(live_entries_ +
                static_cast<uint64_t>(kSlackPad) * nq);
  for (VertexId q = 0; q < nq; ++q) {
    const auto span = Entries(q);
    Loc& loc = loc_[q];
    loc.begin = fresh.size();
    fresh.insert(fresh.end(), span.begin(), span.end());
    loc.cap = loc.size + kSlackPad;
    fresh.resize(fresh.size() + kSlackPad);
  }
  entries_ = std::move(fresh);
  garbage_ = 0;
}

void QueryNeighborData::MaybeCompact() {
  // Relocation garbage (not the standing slack) is what compaction reclaims;
  // let it reach half the live volume before paying the O(arena) repack.
  if (garbage_ > live_entries_ / 2 + 1024) Compact();
}

bool QueryNeighborData::ContentEquals(const QueryNeighborData& other) const {
  if (num_queries() != other.num_queries()) return false;
  for (VertexId q = 0; q < num_queries(); ++q) {
    const auto a = Entries(q);
    const auto b = other.Entries(q);
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
      return false;
    }
  }
  return true;
}

}  // namespace shp
