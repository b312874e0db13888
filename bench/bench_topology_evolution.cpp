// Topology evolution: router resync versus full rebuild. A 28-region
// backbone takes a stream of lifecycle mutations (capacity resizes, fiber
// adds/retires, drains, SRLG storms); after every mutation the warmed
// Router catches up two ways — Router::resync_topology() (refresh the
// capacities, and recompile every compiled pair only after an add or a
// retire) and a from-scratch Router re-warmed over every pair. Both must
// produce bit-identical path stores and capacity views. The resync wins
// because three in four mutations are capacity-only and do no path work:
// 3.4-3.9x over the smoke stream (10 runs) and 3.4x over the full one on a
// 4-core VM; it must stay >= 1.5x faster (the perf-smoke CI gate).
//
// Usage: ./bench_topology_evolution [--smoke] [--bench-json=PATH]
//        [--metrics-json]
#include "bench_util.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "topology/generator.h"
#include "topology/routing.h"
#include "topology/topology.h"

namespace {

using namespace netent;

constexpr std::size_t kPaths = 4;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

void warm_all_pairs(topology::Router& router, const topology::Topology& topo) {
  const auto regions = static_cast<std::uint32_t>(topo.region_count());
  for (std::uint32_t s = 0; s < regions; ++s) {
    for (std::uint32_t d = 0; d < regions; ++d) {
      if (s != d) (void)router.paths(RegionId(s), RegionId(d));
    }
  }
}

/// Compiled path stores and capacity views bitwise-equal?
bool stores_identical(const topology::Router& incremental, const topology::Router& fresh) {
  const std::span<const double> a = incremental.full_capacities();
  const std::span<const double> b = fresh.full_capacities();
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  for (const topology::PathStore::PairKey& pair : incremental.path_store().pairs()) {
    const topology::PathList lhs = incremental.cached_paths(pair.src, pair.dst);
    const topology::PathList rhs = fresh.cached_paths(pair.src, pair.dst);
    if (!lhs.valid() || !rhs.valid() || lhs.size() != rhs.size()) return false;
    for (std::size_t p = 0; p < lhs.size(); ++p) {
      const topology::PathView x = lhs[p];
      const topology::PathView y = rhs[p];
      if (x.cost != y.cost || x.links.size() != y.links.size()) return false;
      for (std::size_t l = 0; l < x.links.size(); ++l) {
        if (x.links[l] != y.links[l]) return false;
      }
    }
  }
  return true;
}

/// One lifecycle mutation against the current topology state: mostly
/// capacity resizes (the common operational delta), with structural adds /
/// retires and transient drains / storms mixed in.
topology::Mutation next_mutation(Rng& rng, const topology::Topology& topo,
                                 std::vector<LinkId>& added) {
  using topology::Mutation;
  using topology::MutationKind;
  const std::size_t regions = topo.region_count();
  for (;;) {
    const std::uint64_t roll = rng.uniform_int(100);
    Mutation mut;
    if (roll < 55) {
      const auto id = LinkId(static_cast<std::uint32_t>(rng.uniform_int(topo.link_count())));
      if (topo.link_retired(id)) continue;
      mut.kind = MutationKind::resize_fiber;
      mut.link = id;
      mut.capacity = Gbps(topo.link(id).capacity.value() * rng.uniform(0.6, 1.6) + 1.0);
      return mut;
    }
    if (roll < 75) {
      const std::uint32_t a = static_cast<std::uint32_t>(rng.uniform_int(regions));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.uniform_int(regions));
      if (a == b) continue;
      mut.kind = MutationKind::add_fiber;
      mut.region_a = RegionId(a);
      mut.region_b = RegionId(b);
      mut.capacity = Gbps(rng.uniform(500.0, 2500.0));
      mut.mtbf_hours = rng.uniform(200000.0, 400000.0);
      mut.mttr_hours = rng.uniform(4.0, 12.0);
      return mut;
    }
    if (roll < 85) {
      if (added.empty()) continue;
      const std::size_t i = rng.uniform_int(added.size());
      mut.kind = MutationKind::retire_fiber;
      mut.link = added[i];
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(i));
      return mut;
    }
    if (roll < 93) {
      // Transient drain: undrain first if anything is drained.
      for (std::uint32_t r = 0; r < regions; ++r) {
        if (topo.region_drained(RegionId(r))) {
          mut.kind = MutationKind::undrain_region;
          mut.region_a = RegionId(r);
          return mut;
        }
      }
      mut.kind = MutationKind::drain_region;
      mut.region_a = RegionId(static_cast<std::uint32_t>(rng.uniform_int(regions)));
      return mut;
    }
    // Transient storm: repair every struck SRLG first.
    std::vector<SrlgId> struck;
    for (std::uint32_t g = 0; g < topo.srlg_count(); ++g) {
      if (topo.srlg_struck(SrlgId(g))) struck.push_back(SrlgId(g));
    }
    if (!struck.empty()) {
      mut.kind = MutationKind::repair_srlgs;
      mut.srlgs = std::move(struck);
      return mut;
    }
    mut.kind = MutationKind::strike_srlgs;
    mut.srlgs = {SrlgId(static_cast<std::uint32_t>(rng.uniform_int(topo.srlg_count())))};
    return mut;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netent::bench;
  const bool smoke = flag_present(argc, argv, "smoke");

  print_header("BENCH topology evolution",
               "Router::resync_topology() vs a from-scratch Router re-warm after "
               "every mutation of a lifecycle stream; path stores must stay "
               "bit-identical and the resync >= 1.5x faster.");

  Rng net_rng(kSeed + 1);
  topology::GeneratorConfig net_config;
  net_config.region_count = 28;
  net_config.base_capacity = Gbps(2000);
  net_config.capacity_sigma = 0.2;
  net_config.max_parallel_fibers = 2;
  net_config.mtbf_hours_min = 200000.0;
  net_config.mtbf_hours_max = 400000.0;
  net_config.mttr_hours_min = 4.0;
  net_config.mttr_hours_max = 12.0;
  topology::Topology topo = topology::generate_backbone(net_config, net_rng);

  topology::Router incremental(topo, kPaths);
  warm_all_pairs(incremental, topo);

  const std::size_t mutations = smoke ? 60 : 150;
  Rng rng(kSeed);
  std::vector<LinkId> added;

  double incr_ms = 0.0;
  double full_ms = 0.0;
  bool identical = true;
  std::uint64_t structural = 0;
  std::uint64_t pairs_changed = 0;
  std::vector<std::pair<RegionId, RegionId>> changed;

  for (std::size_t i = 0; i < mutations; ++i) {
    const std::uint64_t pre_epoch = topo.epoch();
    const topology::Mutation mut = next_mutation(rng, topo, added);
    (void)topo.apply(mut);
    for (const topology::MutationRecord& rec : topo.mutation_log().since(pre_epoch)) {
      if (rec.kind == topology::MutationKind::add_fiber) added.push_back(rec.link);
      if (rec.structural()) ++structural;
    }

    // Resync: capacities always, every compiled pair after an add or retire.
    changed.clear();
    const auto incr_start = std::chrono::steady_clock::now();
    incremental.resync_topology(&changed);
    incr_ms += ms_since(incr_start);
    pairs_changed += changed.size();

    // Full rebuild: a fresh Router re-warmed over every pair.
    const auto full_start = std::chrono::steady_clock::now();
    topology::Router fresh(topo, kPaths);
    warm_all_pairs(fresh, topo);
    full_ms += ms_since(full_start);

    identical = identical && stores_identical(incremental, fresh);
  }

  const double speedup = incr_ms > 0.0 ? full_ms / incr_ms : 0.0;
  const std::size_t pair_count = incremental.path_store().pairs().size();

  Table table({"mutations", "structural", "pairs", "changed", "incr_ms", "full_ms", "speedup"},
              2);
  table.add_row({static_cast<double>(mutations), static_cast<double>(structural),
                 static_cast<double>(pair_count), static_cast<double>(pairs_changed), incr_ms,
                 full_ms, speedup});
  table.print(std::cout);

  std::cout << "\nresync identical to full rebuild: " << (identical ? "yes" : "NO")
            << '\n';
  std::cout << "rewarm_speedup_1_5x: " << (speedup >= 1.5 ? "true" : "false") << " (" << speedup
            << "x)\n";

  BenchJson json;
  json.add("bench", std::string("topology_evolution"));
  json.add("smoke", smoke);
  json.add("mutations", static_cast<std::uint64_t>(mutations));
  json.add("structural_mutations", structural);
  json.add("pairs", static_cast<std::uint64_t>(pair_count));
  json.add("pairs_changed", pairs_changed);
  json.add("rewarm_incremental_ms", incr_ms);
  json.add("rewarm_full_ms", full_ms);
  json.add("rewarm_speedup", speedup);
  json.add("topology_rewarm_identical", identical);
  json.add("rewarm_perf_ok", speedup >= 1.5);
  maybe_write_bench_json(argc, argv, json);
  maybe_dump_metrics(argc, argv);

  return identical && speedup >= 1.5 ? 0 : 1;
}
