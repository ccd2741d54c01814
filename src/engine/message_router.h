// Typed message routing between simulated BSP workers.
//
// Workers are threads standing in for Giraph machines; vertices are
// hash-distributed over workers ("Giraph distributes vertices among machines
// in a Giraph cluster randomly", paper §3.3). During a superstep each worker
// appends messages into its own row of a W×W buffer matrix — single-writer
// per row, so no locks — and after the barrier each destination worker
// drains its column.
//
// The router counts messages and bytes, separating worker-local deliveries
// (free in Giraph: "replaced with a read from the local memory") from remote
// ones, which is exactly the quantity the paper's communication-complexity
// analysis bounds. Payloads are caller-defined; the steady-state refinement
// supersteps route fixed-width delta records (superstep 1 bucket deltas,
// superstep 2 NeighborDelta records) rather than variable-length state, so
// wire volume is O(moved pins) per §3.3.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace shp {

// ------------------------------------------------------- fault injection ---

/// Fault classes the chaos harness can inject into the simulated fabric.
/// The wire faults act on one enveloped (src, dst) buffer delivery; the
/// worker faults fire at a superstep boundary.
enum class FaultKind : uint8_t {
  kDropBuffer,       ///< the frame never arrives
  kDuplicateBuffer,  ///< the frame arrives twice (same sequence number)
  kReorderBuffer,    ///< the link's previous-epoch frame arrives instead
  kTruncateBuffer,   ///< the frame is cut short
  kBitFlipBuffer,    ///< one bit of the frame flips in flight
  kStallWorker,      ///< the worker straggles (extra work units this epoch)
  kKillWorker,       ///< the worker dies at the superstep boundary
};

/// One scheduled fault. Wire faults match a delivery by (epoch, src, dst,
/// attempt); `src`/`dst` of -1 match any worker, and `attempt` selects which
/// retransmission the fault hits (0 = the first delivery), so a schedule can
/// fail a link's retries too. Worker faults use `src` as the worker id.
/// `param` carries the fault detail — kTruncateBuffer: bytes to keep,
/// kBitFlipBuffer: bit index, kStallWorker: extra work units; 0 derives a
/// deterministic value from the schedule seed.
struct FaultEvent {
  FaultKind kind = FaultKind::kDropBuffer;
  uint64_t epoch = 0;
  int src = -1;
  int dst = -1;
  int attempt = 0;
  uint64_t param = 0;
};

/// Declarative fault schedule: the full chaos run is a pure function of this
/// struct, so every run is reproducible bit for bit.
struct FaultSchedule {
  uint64_t seed = 0x0bad0bad;  ///< derives defaulted fault params
  std::vector<FaultEvent> events;
};

/// Deterministic fault injector: applies the scheduled faults to enveloped
/// buffer deliveries and answers worker-boundary queries. Hooked into the
/// router layer — the BSP engine calls OnDelivery once per remote (src, dst)
/// delivery attempt of superstep 2, and the worker queries once per epoch.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultSchedule schedule)
      : schedule_(std::move(schedule)) {}

  bool empty() const { return schedule_.events.empty(); }

  /// Outcome of one delivery attempt after fault application.
  struct WireAction {
    bool drop = false;       ///< frame lost: nothing arrives
    bool duplicate = false;  ///< frame arrives twice
    bool mutated = false;    ///< bytes were truncated/flipped/replayed
  };

  /// Applies every wire fault scheduled for (epoch, src, dst, attempt) to
  /// `bytes` (mutating it for truncate/bit-flip/reorder).
  /// `previous_epoch_bytes` is the link's last successfully delivered frame
  /// — what a reordered network would deliver instead; an empty history
  /// makes kReorderBuffer degrade to a drop.
  WireAction OnDelivery(uint64_t epoch, int src, int dst, int attempt,
                        std::vector<uint8_t>* bytes,
                        const std::vector<uint8_t>& previous_epoch_bytes);

  /// True when a kKillWorker event targets `worker` at `epoch`.
  bool KillsWorker(uint64_t epoch, int worker) const;

  /// Summed kStallWorker work units for `worker` at `epoch` (0 = no stall).
  uint64_t StallWorkUnits(uint64_t epoch, int worker) const;

  /// Wire faults actually applied so far (diagnostics; a detection test can
  /// assert detected == injected).
  uint64_t faults_injected() const { return injected_; }

 private:
  FaultSchedule schedule_;
  uint64_t injected_ = 0;
};

/// Aggregated traffic counts of one superstep.
struct RouteStats {
  uint64_t local_messages = 0;
  uint64_t remote_messages = 0;
  uint64_t remote_bytes = 0;

  RouteStats& operator+=(const RouteStats& other) {
    local_messages += other.local_messages;
    remote_messages += other.remote_messages;
    remote_bytes += other.remote_bytes;
    return *this;
  }
};

template <typename Message>
class MessageRouter {
 public:
  explicit MessageRouter(int num_workers) : num_workers_(num_workers) {
    SHP_CHECK_GT(num_workers, 0);
    buffers_.resize(static_cast<size_t>(num_workers) * num_workers);
    out_bytes_.assign(static_cast<size_t>(num_workers), 0);
    in_bytes_.assign(static_cast<size_t>(num_workers), 0);
  }

  int num_workers() const { return num_workers_; }

  /// Called by worker `src` only (single-writer row).
  void Send(int src, int dst, Message message) {
    buffers_[Index(src, dst)].push_back(std::move(message));
  }

  /// Messages addressed to `dst` from `src` (drained after the barrier).
  const std::vector<Message>& Incoming(int src, int dst) const {
    return buffers_[Index(src, dst)];
  }

  /// Tallies traffic (counting `bytes_per_message` for remote ones), then
  /// clears all buffers. Call once per superstep after consumption.
  RouteStats CollectAndClear(size_t bytes_per_message) {
    return CollectAndClearSized(
        [bytes_per_message](const Message&) { return bytes_per_message; });
  }

  /// Variable-size variant: `size_of(msg)` gives each message's wire bytes.
  template <typename SizeFn>
  RouteStats CollectAndClearSized(const SizeFn& size_of) {
    RouteStats stats;
    for (int src = 0; src < num_workers_; ++src) {
      for (int dst = 0; dst < num_workers_; ++dst) {
        const auto& buffer = buffers_[Index(src, dst)];
        if (src == dst) {
          stats.local_messages += buffer.size();
          continue;
        }
        stats.remote_messages += buffer.size();
        uint64_t bytes = 0;
        for (const Message& m : buffer) bytes += size_of(m);
        stats.remote_bytes += bytes;
        out_bytes_[static_cast<size_t>(src)] += bytes;
        in_bytes_[static_cast<size_t>(dst)] += bytes;
      }
    }
    for (auto& buffer : buffers_) buffer.clear();
    return stats;
  }

  /// Per-link variant: `bytes_of(src, dst, buffer)` gives the wire bytes of
  /// one remote buffer. Used when the bytes were already determined during
  /// the (enveloped) transfer — the accounting then replays the recorded
  /// per-link sizes instead of re-encoding every buffer.
  template <typename LinkSizeFn>
  RouteStats CollectAndClearPerLink(const LinkSizeFn& bytes_of) {
    RouteStats stats;
    for (int src = 0; src < num_workers_; ++src) {
      for (int dst = 0; dst < num_workers_; ++dst) {
        const auto& buffer = buffers_[Index(src, dst)];
        if (src == dst) {
          stats.local_messages += buffer.size();
          continue;
        }
        stats.remote_messages += buffer.size();
        const uint64_t bytes = bytes_of(src, dst, buffer);
        stats.remote_bytes += bytes;
        out_bytes_[static_cast<size_t>(src)] += bytes;
        in_bytes_[static_cast<size_t>(dst)] += bytes;
      }
    }
    for (auto& buffer : buffers_) buffer.clear();
    return stats;
  }

  /// Per-worker remote byte counters accumulated across supersteps (used by
  /// the cost model's max-over-workers term); reset with ResetByteCounters.
  const std::vector<uint64_t>& out_bytes() const { return out_bytes_; }
  const std::vector<uint64_t>& in_bytes() const { return in_bytes_; }
  void ResetByteCounters() {
    std::fill(out_bytes_.begin(), out_bytes_.end(), 0);
    std::fill(in_bytes_.begin(), in_bytes_.end(), 0);
  }

 private:
  size_t Index(int src, int dst) const {
    SHP_DCHECK(src >= 0 && src < num_workers_);
    SHP_DCHECK(dst >= 0 && dst < num_workers_);
    return static_cast<size_t>(src) * num_workers_ + dst;
  }

  int num_workers_;
  std::vector<std::vector<Message>> buffers_;
  std::vector<uint64_t> out_bytes_;
  std::vector<uint64_t> in_bytes_;
};

/// Giraph-style message combiner: during a superstep's send phase each source
/// worker folds same-destination, same-key messages into one value before
/// anything reaches the wire ("machine-pair message combining", paper §3.3).
/// Layout mirrors MessageRouter: one map per (src, dst) cell, single-writer
/// per src row. The maps are *cleared, not destroyed*, between supersteps —
/// a W×W grid of fresh unordered_maps per iteration was measurable
/// allocation churn in the BSP hot loop, and clear() keeps each map's bucket
/// array for the next round.
template <typename Value>
class MessageCombiner {
 public:
  /// (Re)shapes to num_workers² cells and clears every map, keeping their
  /// allocated bucket arrays. Call once per superstep before combining.
  void Reset(int num_workers) {
    SHP_CHECK_GT(num_workers, 0);
    num_workers_ = num_workers;
    const size_t cells =
        static_cast<size_t>(num_workers) * static_cast<size_t>(num_workers);
    if (maps_.size() < cells) maps_.resize(cells);
    for (auto& m : maps_) m.clear();
  }

  /// Accumulation slot for `key` on the (src, dst) wire; value-initialized
  /// (0 for arithmetic types) on first touch. Called by worker `src` only.
  Value& Slot(int src, int dst, uint64_t key) {
    return maps_[Index(src, dst)][key];
  }

  /// Combined (key, value) pairs queued from src to dst, ready to route.
  const std::unordered_map<uint64_t, Value>& Cell(int src, int dst) const {
    return maps_[Index(src, dst)];
  }

 private:
  size_t Index(int src, int dst) const {
    SHP_DCHECK(src >= 0 && src < num_workers_);
    SHP_DCHECK(dst >= 0 && dst < num_workers_);
    return static_cast<size_t>(src) * num_workers_ + dst;
  }

  int num_workers_ = 0;
  std::vector<std::unordered_map<uint64_t, Value>> maps_;
};

}  // namespace shp
