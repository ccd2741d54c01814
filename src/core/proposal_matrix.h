// The S matrix of paper Algorithm 1: S[i][j] = number of data vertices in
// bucket i whose best (positive-gain) target is bucket j. The master uses it
// to set swap probabilities min(S_ij, S_ji)/S_ij so the expected flow is
// symmetric and balance is preserved in expectation.
//
// Stored sparsely (hash map over packed (i,j)) because during recursion only
// sibling pairs occur, and even in direct k-way mode the number of occupied
// cells is bounded by the number of proposing vertices, not k².
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "objective/neighbor_data.h"

namespace shp {

/// Directed bucket-pair key (from << 32 | to) of the S matrix, the
/// superstep-3 histograms and the probability tables.
inline uint64_t PackPair(BucketId from, BucketId to) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
         static_cast<uint32_t>(to);
}

class ProposalMatrix {
 public:
  void Add(BucketId from, BucketId to, uint64_t count = 1) {
    counts_[PackPair(from, to)] += count;
  }

  uint64_t Count(BucketId from, BucketId to) const {
    const auto it = counts_.find(PackPair(from, to));
    return it == counts_.end() ? 0 : it->second;
  }

  /// Paper Algorithm 1: probability of actually moving a proposed vertex
  /// from i to j = min(S_ij, S_ji) / S_ij (0 when S_ij = 0).
  double MoveProbability(BucketId from, BucketId to) const;

  /// Merges another matrix (used to combine per-thread partials).
  void Merge(const ProposalMatrix& other);

  size_t num_pairs() const { return counts_.size(); }

  /// All (from, to) pairs in deterministic (sorted) order.
  std::vector<std::pair<BucketId, BucketId>> SortedPairs() const;

  void Clear() { counts_.clear(); }

 private:
  std::unordered_map<uint64_t, uint64_t> counts_;
};

}  // namespace shp
