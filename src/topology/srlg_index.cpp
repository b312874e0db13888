#include "topology/srlg_index.h"

#include "common/check.h"

namespace netent::topology {

SrlgIndex::SrlgIndex(const Topology& topo) : links_by_srlg_(topo.srlg_count()) {
  for (const Link& link : topo.links()) {
    NETENT_EXPECTS(link.srlg.value() < links_by_srlg_.size());
    links_by_srlg_[link.srlg.value()].push_back(link.id);
  }
  links_indexed_ = topo.link_count();
  // links() iterates in ascending LinkId order, so each list is sorted.
}

void SrlgIndex::resync(const Topology& topo) {
  NETENT_EXPECTS(topo.link_count() >= links_indexed_);
  if (topo.srlg_count() > links_by_srlg_.size()) links_by_srlg_.resize(topo.srlg_count());
  for (std::size_t i = links_indexed_; i < topo.link_count(); ++i) {
    const Link& link = topo.link(LinkId(static_cast<std::uint32_t>(i)));
    NETENT_EXPECTS(link.srlg.value() < links_by_srlg_.size());
    links_by_srlg_[link.srlg.value()].push_back(link.id);
  }
  links_indexed_ = topo.link_count();
}

std::span<const LinkId> SrlgIndex::links_of(SrlgId srlg) const {
  NETENT_EXPECTS(srlg.value() < links_by_srlg_.size());
  return links_by_srlg_[srlg.value()];
}

}  // namespace netent::topology
