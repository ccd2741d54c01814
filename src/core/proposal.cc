#include "core/proposal.h"

namespace shp {

Proposal FinishProposal(const ProposalRule& rule, VertexId v, BucketId from,
                        BucketId target, double gain) {
  if (target < 0) return {};
  // Incremental-update penalty (paper §5(i)).
  if (rule.anchor != nullptr && rule.anchor_penalty != 0.0) {
    const BucketId home = (*rule.anchor)[v];
    if (from == home && target != home) gain -= rule.anchor_penalty;
    if (from != home && target == home) gain += rule.anchor_penalty;
  }
  if (!rule.propose_nonpositive && gain <= 0.0) return {};
  return {target, gain};
}

bool ProposalContext::Matches(const MoveTopology& topo,
                              const std::vector<BucketId>* anchor,
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

void ProposalContext::Snapshot(const MoveTopology& topo,
                               const std::vector<BucketId>* anchor,
                               double anchor_penalty) {
  valid_ = true;
  topo_ = topo;
  has_anchor_ = anchor != nullptr && anchor_penalty != 0.0;
  anchor_ = has_anchor_ ? *anchor : std::vector<BucketId>{};
  anchor_penalty_ = has_anchor_ ? anchor_penalty : 0.0;
}

}  // namespace shp
