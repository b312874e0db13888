#include "topology/routing.h"

#include <algorithm>

namespace netent::topology {

Router::Router(const Topology& topo, std::size_t k_paths)
    : topo_(topo),
      k_paths_(k_paths),
      region_count_(topo.region_count()),
      store_(topo.region_count()),
      synced_epoch_(topo.epoch()) {
  NETENT_EXPECTS(k_paths > 0);
  full_caps_.resize(topo_.link_count());
  for (const Link& link : topo_.links()) {
    full_caps_[link.id.value()] = topo_.effective_capacity(link.id).value();
  }
}

PathList Router::paths(RegionId src, RegionId dst) {
  NETENT_EXPECTS(src != dst);
  if (const PathList cached = store_.find(src, dst); cached.valid()) return cached;
  NETENT_EXPECTS(active_sweeps_.load(std::memory_order_acquire) == 0 &&
                 "path-cache insertion during an active sweep");
  const std::vector<Path> computed = k_shortest_paths(topo_, src, dst, k_paths_, usable_links(topo_));
  return store_.insert(src, dst, computed);
}

void Router::warm(std::span<const Demand> demands) {
  for (const Demand& demand : demands) (void)paths(demand.src, demand.dst);
}

RouteResult Router::route(std::span<const Demand> demands,
                          std::span<const double> capacity_gbps) {
  warm(demands);
  return route_warmed(demands, capacity_gbps);
}

RouteResult Router::route_warmed(std::span<const Demand> demands,
                                 std::span<const double> capacity_gbps) const {
  RouteResult result;
  route_warmed_into(demands, capacity_gbps, result);
  return result;
}

void Router::route_warmed_into(std::span<const Demand> demands,
                               std::span<const double> capacity_gbps,
                               RouteResult& out) const {
  NETENT_EXPECTS(capacity_gbps.size() == topo_.link_count());

  out.demand_total = Gbps(0.0);
  out.placed_total = Gbps(0.0);
  out.placed_per_demand.clear();
  out.placed_per_demand.reserve(demands.size());
  out.link_load.assign(capacity_gbps.size(), 0.0);

  std::vector<double>& residual = out.residual;
  residual.assign(capacity_gbps.begin(), capacity_gbps.end());

  for (const Demand& demand : demands) {
    out.demand_total += demand.amount;
    const PathList candidate_paths = cached_paths(demand.src, demand.dst);
    NETENT_EXPECTS(candidate_paths.valid());  // warm() must cover the pair
    const double placed =
        water_fill_demand(demand.amount.value(), candidate_paths, residual, out.link_load);
    out.placed_total += Gbps(placed);
    out.placed_per_demand.push_back(placed);
  }

  out.fully_placed = (out.demand_total - out.placed_total) <= Gbps(kPlacementEps);
}

RouteResult Router::route(std::span<const Demand> demands) {
  return route(demands, full_capacities());
}

namespace {

/// Bit-exact equality of a compiled path list against freshly computed
/// paths (same count, same costs, same link sequences).
bool same_paths(const PathList& old_list, std::span<const Path> fresh) {
  if (old_list.size() != fresh.size()) return false;
  for (std::size_t p = 0; p < fresh.size(); ++p) {
    const PathView view = old_list[p];
    if (view.cost != fresh[p].cost) return false;
    if (view.links.size() != fresh[p].links.size()) return false;
    for (std::size_t i = 0; i < view.links.size(); ++i) {
      if (view.links[i] != fresh[p].links[i]) return false;
    }
  }
  return true;
}

}  // namespace

void Router::resync_topology(std::vector<std::pair<RegionId, RegionId>>* changed_pairs) {
  NETENT_EXPECTS(active_sweeps_.load(std::memory_order_acquire) == 0 &&
                 "topology resync during an active sweep");
  NETENT_EXPECTS(topo_.region_count() == region_count_ &&
                 "regions are fixed once a Router is attached");

  const std::span<const MutationRecord> delta = topo_.mutation_log().since(synced_epoch_);
  synced_epoch_ = topo_.epoch();

  // Effective capacities always refresh (capacity-only mutations move them).
  full_caps_.resize(topo_.link_count());
  for (const Link& link : topo_.links()) {
    full_caps_[link.id.value()] = topo_.effective_capacity(link.id).value();
  }

  // Adds and retires are the only records that can change path sets: KSP
  // costs are hop counts, independent of capacities.
  if (std::none_of(delta.begin(), delta.end(),
                   [](const MutationRecord& rec) { return rec.structural(); })) {
    return;
  }

  // Recompile every pair in slot order, so the fresh store's slots match
  // the old ones and a fresh Router warmed on the same pairs.
  PathStore fresh(region_count_);
  const LinkFilter usable = usable_links(topo_);
  for (const PathStore::PairKey& pair : store_.pairs()) {
    const std::vector<Path> paths = k_shortest_paths(topo_, pair.src, pair.dst, k_paths_, usable);
    if (changed_pairs != nullptr && !same_paths(store_.find(pair.src, pair.dst), paths)) {
      changed_pairs->emplace_back(pair.src, pair.dst);
    }
    (void)fresh.insert(pair.src, pair.dst, paths);
  }
  store_ = std::move(fresh);
}

}  // namespace netent::topology
