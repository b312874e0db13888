#include "topology/srlg_index.h"

#include "common/check.h"

namespace netent::topology {

SrlgIndex::SrlgIndex(const Topology& topo) : links_by_srlg_(topo.srlg_count()) {
  for (const Link& link : topo.links()) {
    NETENT_EXPECTS(link.srlg.value() < links_by_srlg_.size());
    links_by_srlg_[link.srlg.value()].push_back(link.id);
  }
  // links() iterates in ascending LinkId order, so each list is sorted.
}

std::span<const LinkId> SrlgIndex::links_of(SrlgId srlg) const {
  NETENT_EXPECTS(srlg.value() < links_by_srlg_.size());
  return links_by_srlg_[srlg.value()];
}

}  // namespace netent::topology
