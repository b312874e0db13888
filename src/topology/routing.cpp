#include "topology/routing.h"

#include <limits>
#include <queue>


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

constexpr std::uint32_t kUnreached = 0xffffffffu;

/// Hop-count BFS from `root` over links selected by `usable`. The link set
/// is a symmetric digraph (every fiber contributes both directions with the
/// same lifecycle state), so distances-from double as distances-to.
void bfs_hops(const Topology& topo, RegionId root,
              const std::function<bool(const Link&)>& usable,
              std::vector<std::uint32_t>& dist) {
  dist.assign(topo.region_count(), kUnreached);
  dist[root.value()] = 0;
  std::queue<RegionId> frontier;
  frontier.push(root);
  while (!frontier.empty()) {
    const RegionId u = frontier.front();
    frontier.pop();
    for (const LinkId lid : topo.out_links(u)) {
      const Link& link = topo.link(lid);
      if (!usable(link)) continue;
      if (dist[link.dst.value()] != kUnreached) continue;
      dist[link.dst.value()] = dist[u.value()] + 1;
      frontier.push(link.dst);
    }
  }
}

double hops_or_inf(std::uint32_t d) {
  return d == kUnreached ? std::numeric_limits<double>::infinity() : static_cast<double>(d);
}

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

void Router::resync_topology(TopologyResyncStats* stats,
                             std::vector<std::pair<RegionId, RegionId>>* changed_pairs) {
  NETENT_EXPECTS(active_sweeps_.load(std::memory_order_acquire) == 0 &&
                 "topology resync during an active sweep");
  NETENT_EXPECTS(topo_.region_count() == region_count_ &&
                 "regions are fixed once a Router is attached");

  TopologyResyncStats st;
  st.from_epoch = synced_epoch_;
  st.to_epoch = topo_.epoch();
  const std::span<const MutationRecord> delta = topo_.mutation_log().since(synced_epoch_);
  st.mutations = delta.size();

  // Effective capacities always refresh (capacity-only mutations move them).
  full_caps_.resize(topo_.link_count());
  for (const Link& link : topo_.links()) {
    full_caps_[link.id.value()] = topo_.effective_capacity(link.id).value();
  }

  // Structural records are the only ones that can change path sets: KSP
  // costs are hop counts, independent of capacities.
  std::vector<const MutationRecord*> structural;
  std::vector<char> span_retired(topo_.link_count(), 0);
  for (const MutationRecord& rec : delta) {
    if (!rec.structural()) continue;
    structural.push_back(&rec);
    if (rec.kind == MutationKind::retire_fiber) {
      span_retired[rec.link.value()] = 1;
      span_retired[topo_.link(rec.link).reverse.value()] = 1;
    }
  }
  st.structural = structural.size();

  if (!structural.empty() && store_.pair_count() > 0) {
    // Dirty predicate: pair (s, t) can have changed iff some shortest route
    // s -> fiber -> t is no longer than the pair's k-th best compiled cost.
    // Distances are computed on the SUPERGRAPH (final usable links plus the
    // fibers retired within this delta): it contains every intermediate
    // epoch's link set, so the bound is <= any intermediate epoch's bound
    // and the marking is a superset of every step-by-step marking — sound
    // for batched logs. Recompiling a clean-in-truth pair is harmless: the
    // deterministic KSP reproduces the identical path set and we skip the
    // replace.
    const auto usable_super = [this, &span_retired](const Link& link) {
      return !topo_.link_retired(link.id) || span_retired[link.id.value()] != 0;
    };

    const std::span<const PathStore::PairKey> pairs = store_.pairs();
    std::vector<char> dirty(pairs.size(), 0);
    std::vector<std::uint32_t> dist_a;
    std::vector<std::uint32_t> dist_b;
    for (const MutationRecord* rec : structural) {
      const Link& fiber = topo_.link(rec->link);
      bfs_hops(topo_, fiber.src, usable_super, dist_a);
      bfs_hops(topo_, fiber.dst, usable_super, dist_b);
      for (std::size_t slot = 0; slot < pairs.size(); ++slot) {
        if (dirty[slot] != 0) continue;
        const RegionId s = pairs[slot].src;
        const RegionId t = pairs[slot].dst;
        const double through = std::min(
            hops_or_inf(dist_a[s.value()]) + 1.0 + hops_or_inf(dist_b[t.value()]),
            hops_or_inf(dist_b[s.value()]) + 1.0 + hops_or_inf(dist_a[t.value()]));
        const PathList compiled = store_.find(s, t);
        if (compiled.size() < k_paths_) {
          // Fewer than k simple paths compiled: any finite route through the
          // fiber could add or remove one.
          if (through != std::numeric_limits<double>::infinity()) dirty[slot] = 1;
        } else if (through <= compiled[compiled.size() - 1].cost) {
          dirty[slot] = 1;
        }
      }
    }
    st.pairs_checked = pairs.size();

    for (std::size_t slot = 0; slot < pairs.size(); ++slot) {
      if (dirty[slot] == 0) continue;
      ++st.pairs_dirty;
      const RegionId s = pairs[slot].src;
      const RegionId t = pairs[slot].dst;
      const std::vector<Path> fresh = k_shortest_paths(topo_, s, t, k_paths_, usable_links(topo_));
      if (same_paths(store_.find(s, t), fresh)) continue;
      store_.replace(s, t, fresh);
      ++st.pairs_changed;
      if (changed_pairs != nullptr) changed_pairs->emplace_back(s, t);
    }

    const std::size_t live = store_.link_entry_count() - store_.garbage_link_entries();
    if (store_.garbage_link_entries() > live) {
      store_.compact();
      st.compacted = true;
    }
  }

  synced_epoch_ = topo_.epoch();
  if (stats != nullptr) *stats = st;
}

}  // namespace netent::topology
