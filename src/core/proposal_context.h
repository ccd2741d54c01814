// The context a cached move proposal depends on beyond the neighbor data:
// the move topology (which buckets a vertex may target) and the
// incremental-update anchor (paper §5(i)). Both refinement engines reuse a
// vertex's proposal across iterations only while this context is unchanged;
// a recursion-level switch or a new anchor forces a full recompute.
#pragma once

#include <vector>

#include "core/move_topology.h"

namespace shp {

class ProposalContext {
 public:
  /// True iff the last Snapshot was taken under an identical topology and
  /// anchor. Capacity is a broker concern; proposals do not depend on it.
  bool Matches(const MoveTopology& topo, const std::vector<BucketId>* anchor,
               double anchor_penalty) const {
    if (!valid_) return false;
    if (topo_.k != topo.k || topo_.full_k != topo.full_k ||
        topo_.group_of_bucket != topo.group_of_bucket ||
        topo_.group_children != topo.group_children) {
      return false;
    }
    const bool has_anchor = anchor != nullptr && anchor_penalty != 0.0;
    if (has_anchor != has_anchor_) return false;
    return !has_anchor ||
           (anchor_penalty_ == anchor_penalty && anchor_ == *anchor);
  }

  void Snapshot(const MoveTopology& topo, const std::vector<BucketId>* anchor,
                double anchor_penalty) {
    valid_ = true;
    topo_ = topo;
    has_anchor_ = anchor != nullptr && anchor_penalty != 0.0;
    anchor_ = has_anchor_ ? *anchor : std::vector<BucketId>{};
    anchor_penalty_ = has_anchor_ ? anchor_penalty : 0.0;
  }

 private:
  bool valid_ = false;
  MoveTopology topo_;
  bool has_anchor_ = false;
  std::vector<BucketId> anchor_;
  double anchor_penalty_ = 0.0;
};

}  // namespace shp
