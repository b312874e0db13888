#include "topology/path_store.h"

#include "common/check.h"

namespace netent::topology {

PathStore::PathStore(std::size_t region_count)
    : region_count_(region_count),
      pair_slot_(region_count * region_count, kNoSlot) {
  link_off_.push_back(0);
}

PathList PathStore::insert(RegionId src, RegionId dst, std::span<const Path> paths) {
  NETENT_EXPECTS(src.value() < region_count_ && dst.value() < region_count_);
  std::uint32_t& slot = pair_slot_[pair_id(src, dst)];
  NETENT_EXPECTS(slot == kNoSlot && "path set already compiled for this pair");
  slot = static_cast<std::uint32_t>(path_begin_.size());
  const auto first_path = static_cast<std::uint32_t>(cost_.size());
  for (const Path& path : paths) {
    links_.insert(links_.end(), path.links.begin(), path.links.end());
    link_off_.push_back(static_cast<std::uint32_t>(links_.size()));
    cost_.push_back(path.cost);
  }
  path_begin_.push_back(first_path);
  path_count_.push_back(static_cast<std::uint32_t>(paths.size()));
  pair_of_slot_.push_back(PairKey{src, dst});
  return PathList(this, first_path, static_cast<std::uint32_t>(paths.size()));
}

}  // namespace netent::topology
