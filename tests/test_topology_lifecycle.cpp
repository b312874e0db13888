// Topology-lifecycle equivalence tests: the versioned mutation log and the
// incremental re-verification stack built on it.
//
//  * link_unavailability degenerate-input convention (mtbf/mttr <= 0).
//  * add_fiber_in_conduit: >= 3 fibers sharing one conduit SRLG, SrlgIndex
//    grouping, and a single storm / failure scenario cutting all of them.
//  * MutationLog epoch bookkeeping (consecutive epochs, O(1) since()).
//  * Router::resync_topology == fresh Router after randomized structural +
//    capacity churn, for every compiled pair, bit-identically.
//  * SrlgIndex::resync == fresh index after fiber adds.
//  * The mutation-churn TORTURE: one interleaved stream of topology deltas
//    (resize / drain / storm / add / retire) and admit / resize / release
//    requests replayed at 1/4 threads, fastpath on and off.
//    After every mutation window the maintained residuals, fast-path
//    summaries and (mirror-router) PathStore contents must equal from-
//    scratch rebuilds, and the full decision transcript (statuses, approved
//    rates, verdicts, contract-db fingerprints) must be bit-identical
//    across all four configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/contract_db.h"
#include "risk/failure.h"
#include "risk/fast_estimator.h"
#include "risk/simulator.h"
#include "service/admission.h"
#include "topology/routing.h"
#include "topology/srlg_index.h"
#include "topology/topology.h"

namespace netent {
namespace {

using hose::Direction;
using hose::HoseRequest;
using service::AdmissionConfig;
using service::AdmissionController;
using service::AdmissionOutcome;
using service::AdmissionStatus;
using service::ContractId;
using service::ContractVerdict;
using service::VerdictKind;
using topology::Link;
using topology::Mutation;
using topology::MutationKind;
using topology::MutationRecord;
using topology::PathList;
using topology::PathStore;
using topology::Router;
using topology::Topology;

constexpr std::size_t kRouterPaths = 3;

/// 8-region ring + chords seed backbone, deterministic.
Topology seed_topology() {
  Topology topo;
  for (int r = 0; r < 8; ++r) {
    topo.add_region("r" + std::to_string(r),
                    r % 2 == 0 ? topology::RegionKind::data_center : topology::RegionKind::pop);
  }
  Rng rng(7);
  const auto fiber = [&](std::uint32_t a, std::uint32_t b) {
    (void)topo.add_fiber(RegionId(a), RegionId(b), Gbps(rng.uniform(120.0, 220.0)),
                         rng.uniform(80000.0, 300000.0), rng.uniform(4.0, 12.0));
  };
  for (std::uint32_t r = 0; r < 8; ++r) fiber(r, (r + 1) % 8);
  fiber(0, 3);
  fiber(1, 5);
  fiber(2, 6);
  fiber(4, 7);
  return topo;
}

void expect_same_paths(const PathList& got, const PathList& want, const std::string& where) {
  ASSERT_TRUE(got.valid()) << where;
  ASSERT_TRUE(want.valid()) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t p = 0; p < got.size(); ++p) {
    const topology::PathView a = got[p];
    const topology::PathView b = want[p];
    EXPECT_EQ(a.cost, b.cost) << where << " path " << p;
    ASSERT_EQ(a.links.size(), b.links.size()) << where << " path " << p;
    for (std::size_t l = 0; l < a.links.size(); ++l) {
      EXPECT_EQ(a.links[l], b.links[l]) << where << " path " << p << " hop " << l;
    }
  }
}

/// Every compiled pair of `mirror` must hold exactly the path set a Router
/// built fresh on the current topology would compile.
void expect_store_matches_fresh(const Router& mirror, const Topology& topo,
                                const std::string& where) {
  Router fresh(topo, kRouterPaths);
  for (const PathStore::PairKey& pair : mirror.path_store().pairs()) {
    std::ostringstream label;
    label << where << " pair (" << pair.src.value() << "," << pair.dst.value() << ")";
    expect_same_paths(mirror.cached_paths(pair.src, pair.dst), fresh.paths(pair.src, pair.dst),
                      label.str());
  }
  const std::span<const double> caps = mirror.full_capacities();
  ASSERT_EQ(caps.size(), topo.link_count());
  for (std::size_t l = 0; l < caps.size(); ++l) {
    EXPECT_EQ(caps[l], topo.effective_capacity(LinkId(static_cast<std::uint32_t>(l))).value())
        << where << " link " << l;
  }
}

// --- link_unavailability degenerate convention --------------------------

Link reliability_link(double mtbf, double mttr) {
  Link link;
  link.mtbf_hours = mtbf;
  link.mttr_hours = mttr;
  return link;
}

TEST(TopologyLifecycle, LinkUnavailabilityDegenerateConvention) {
  // Sane inputs: the textbook stationary unavailability.
  EXPECT_DOUBLE_EQ(topology::link_unavailability(reliability_link(8760.0, 12.0)),
                   12.0 / (8760.0 + 12.0));
  // mttr <= 0: instant (or absent) repair — never observed down. This rule
  // wins when both are degenerate.
  EXPECT_EQ(topology::link_unavailability(reliability_link(8760.0, 0.0)), 0.0);
  EXPECT_EQ(topology::link_unavailability(reliability_link(0.0, 0.0)), 0.0);
  // mtbf <= 0 with repair time: fails immediately, always down.
  EXPECT_EQ(topology::link_unavailability(reliability_link(0.0, 12.0)), 1.0);
  // Never NaN/inf, whatever the inputs.
  for (const double mtbf : {0.0, 1.0, 8760.0}) {
    for (const double mttr : {0.0, 1.0, 12.0}) {
      const double u = topology::link_unavailability(reliability_link(mtbf, mttr));
      EXPECT_TRUE(u >= 0.0 && u <= 1.0) << "mtbf=" << mtbf << " mttr=" << mttr;
    }
  }
}

// --- conduit sharing -----------------------------------------------------

TEST(TopologyLifecycle, ConduitSharedByThreeFibersFailsAsOne) {
  Topology topo;
  (void)topo.add_region("a", topology::RegionKind::data_center);
  (void)topo.add_region("b", topology::RegionKind::data_center);
  (void)topo.add_region("c", topology::RegionKind::pop);
  const LinkId spare = topo.add_fiber(RegionId(1), RegionId(2), Gbps(50), 100000.0, 8.0);
  const LinkId first = topo.add_fiber(RegionId(0), RegionId(1), Gbps(100), 200000.0, 6.0);
  const LinkId second = topo.add_fiber_in_conduit(RegionId(0), RegionId(1), Gbps(80), first);
  const LinkId third = topo.add_fiber_in_conduit(RegionId(0), RegionId(1), Gbps(60), second);

  // All three fibers (six directed links) share the first fiber's SRLG and
  // reliability; the unrelated fiber does not.
  const SrlgId conduit = topo.link(first).srlg;
  const std::vector<LinkId> conduit_links = {first,  topo.link(first).reverse,
                                             second, topo.link(second).reverse,
                                             third,  topo.link(third).reverse};
  for (const LinkId id : conduit_links) {
    EXPECT_EQ(topo.link(id).srlg, conduit);
    EXPECT_EQ(topo.link(id).mtbf_hours, 200000.0);
    EXPECT_EQ(topo.link(id).mttr_hours, 6.0);
  }
  EXPECT_NE(topo.link(spare).srlg, conduit);

  // The SRLG index groups all six under the one group.
  topology::SrlgIndex index(topo);
  EXPECT_EQ(index.links_of(conduit).size(), 6u);
  for (const LinkId id : index.links_of(conduit)) {
    EXPECT_EQ(topo.link(id).srlg, conduit);
  }

  // One storm strike zeroes every co-conduit link and nothing else.
  topo.strike_srlgs({conduit});
  for (const LinkId id : conduit_links) {
    EXPECT_EQ(topo.effective_capacity(id).value(), 0.0);
  }
  EXPECT_GT(topo.effective_capacity(spare).value(), 0.0);
  topo.repair_srlgs({conduit});

  // And one enumerated failure scenario takes all of them out together.
  const std::vector<risk::FailureScenario> scenarios =
      risk::enumerate_scenarios(topo, risk::ScenarioConfig{});
  const auto hit = std::find_if(scenarios.begin(), scenarios.end(), [&](const auto& s) {
    return s.down.size() == 1 && s.down[0] == conduit;
  });
  ASSERT_NE(hit, scenarios.end());
  std::vector<double> base;
  for (const Link& link : topo.links()) base.push_back(link.capacity.value());
  const std::vector<double> failed = risk::scenario_capacities(index, base, *hit);
  for (const LinkId id : conduit_links) EXPECT_EQ(failed[id.value()], 0.0);
  EXPECT_GT(failed[spare.value()], 0.0);
}

// --- mutation log --------------------------------------------------------

TEST(TopologyLifecycle, MutationLogEpochsAreConsecutive) {
  Topology topo = seed_topology();
  const std::uint64_t built = topo.epoch();
  EXPECT_EQ(built, topo.mutation_log().size());  // build-phase adds are logged

  const LinkId added = topo.add_fiber(RegionId(0), RegionId(4), Gbps(90), 120000.0, 6.0);
  topo.resize_fiber(added, Gbps(140));
  topo.drain_region(RegionId(2));
  topo.undrain_region(RegionId(2));
  topo.strike_srlgs({topo.link(added).srlg});
  topo.repair_srlgs({topo.link(added).srlg});
  topo.retire_fiber(added);
  EXPECT_EQ(topo.epoch(), built + 7);

  const auto records = topo.mutation_log().records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].epoch, i + 1);  // consecutive from 1
  }
  const auto tail = topo.mutation_log().since(built);
  ASSERT_EQ(tail.size(), 7u);
  EXPECT_EQ(tail[0].kind, MutationKind::add_fiber);
  EXPECT_EQ(tail[0].link, added);
  EXPECT_EQ(tail[6].kind, MutationKind::retire_fiber);
  EXPECT_TRUE(topo.mutation_log().since(topo.epoch()).empty());
}

// --- srlg index resync ---------------------------------------------------

TEST(TopologyLifecycle, SrlgIndexResyncMatchesFreshIndex) {
  Topology topo = seed_topology();
  topology::SrlgIndex index(topo);
  const LinkId a = topo.add_fiber(RegionId(0), RegionId(5), Gbps(70), 90000.0, 5.0);
  (void)topo.add_fiber_in_conduit(RegionId(0), RegionId(5), Gbps(70), a);
  (void)topo.add_fiber(RegionId(3), RegionId(6), Gbps(80), 110000.0, 7.0);
  index.resync(topo);

  const topology::SrlgIndex fresh(topo);
  for (std::size_t g = 0; g < topo.srlg_count(); ++g) {
    const SrlgId srlg(static_cast<std::uint32_t>(g));
    const auto got = index.links_of(srlg);
    const auto want = fresh.links_of(srlg);
    ASSERT_EQ(got.size(), want.size()) << "srlg " << g;
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]) << "srlg " << g;
  }
}

// --- router resync -------------------------------------------------------

TEST(TopologyLifecycle, RouterResyncMatchesFreshRouterUnderChurn) {
  Topology topo = seed_topology();
  Router router(topo, kRouterPaths);
  const std::size_t regions = topo.region_count();
  for (std::uint32_t s = 0; s < regions; ++s) {
    for (std::uint32_t d = 0; d < regions; ++d) {
      if (s != d) (void)router.paths(RegionId(s), RegionId(d));
    }
  }

  Rng rng(31);
  std::vector<LinkId> added;
  for (int step = 0; step < 40; ++step) {
    const std::uint64_t roll = rng.uniform_int(4);
    if (roll == 0) {
      const std::uint32_t a = static_cast<std::uint32_t>(rng.uniform_int(regions));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.uniform_int(regions));
      if (a == b) continue;
      added.push_back(topo.add_fiber(RegionId(a), RegionId(b), Gbps(rng.uniform(50.0, 150.0)),
                                     rng.uniform(60000.0, 250000.0), rng.uniform(3.0, 10.0)));
    } else if (roll == 1 && !added.empty()) {
      const std::size_t i = rng.uniform_int(added.size());
      topo.retire_fiber(added[i]);
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const std::uint32_t l = static_cast<std::uint32_t>(rng.uniform_int(topo.link_count()));
      if (topo.link_retired(LinkId(l))) continue;
      topo.resize_fiber(LinkId(l), Gbps(topo.link(LinkId(l)).capacity.value() *
                                            rng.uniform(0.6, 1.5) +
                                        1.0));
    }
    topology::TopologyResyncStats stats;
    router.resync_topology(&stats);
    EXPECT_EQ(stats.to_epoch, topo.epoch());
    EXPECT_EQ(router.synced_epoch(), topo.epoch());
    EXPECT_LE(stats.pairs_changed, stats.pairs_dirty);
    EXPECT_LE(stats.pairs_dirty, stats.pairs_checked);
    expect_store_matches_fresh(router, topo, "step " + std::to_string(step));
  }
}

// --- admission-plane topology windows ------------------------------------

HoseRequest make_hose(std::uint32_t npg, std::uint32_t region, double gbps,
                      Direction direction) {
  HoseRequest hose;
  hose.npg = NpgId(npg);
  hose.qos = QosClass::c4_high;
  hose.region = RegionId(region);
  hose.direction = direction;
  hose.rate = Gbps(gbps);
  return hose;
}

std::vector<HoseRequest> hose_pair(std::uint32_t npg, std::uint32_t src, std::uint32_t dst,
                                   double gbps) {
  return {make_hose(npg, src, gbps, Direction::egress),
          make_hose(npg, dst, gbps, Direction::ingress)};
}

std::string fingerprint(const core::ContractDb& db) {
  std::ostringstream out;
  out.precision(17);
  for (const core::EntitlementContract& contract : db.contracts()) {
    out << contract.id << '|' << contract.npg.value() << '|' << contract.npg_name << '|'
        << contract.slo_availability << '\n';
    for (const core::Entitlement& e : contract.entitlements) {
      out << ' ' << e.npg.value() << ',' << static_cast<int>(e.qos) << ',' << e.region.value()
          << ',' << static_cast<int>(e.direction) << ',' << e.entitled_rate.value() << ','
          << e.period.start_seconds << ',' << e.period.end_seconds << '\n';
    }
  }
  return out.str();
}

AdmissionConfig lifecycle_config(std::size_t threads, bool fastpath) {
  AdmissionConfig config;
  config.background = false;
  config.attach_counter_proposals = false;
  config.router_paths = kRouterPaths;
  config.seed = 99;
  config.approval.realizations = 2;
  config.approval.slo_availability = 0.99;
  config.approval.scenarios.max_simultaneous = 1;
  config.exec.threads = threads;
  config.approval.fastpath.enabled = fastpath;
  config.approval.fastpath.audit = fastpath;
  return config;
}

TEST(TopologyLifecycle, TopologyWindowRequiresMutableTopologyAndValidBatch) {
  const Topology immutable = seed_topology();
  {
    AdmissionController controller(immutable, lifecycle_config(1, false));
    Mutation resize;
    resize.kind = MutationKind::resize_fiber;
    resize.link = LinkId(0);
    resize.capacity = Gbps(10);
    const AdmissionOutcome outcome = controller.apply_topology_delta({resize});
    EXPECT_EQ(outcome.status, AdmissionStatus::failed);
  }

  Topology topo = seed_topology();
  AdmissionController controller(topo, lifecycle_config(1, false));
  const std::uint64_t before = topo.epoch();

  // One invalid mutation fails the whole batch without applying anything —
  // including the valid resize in front of it.
  Mutation good;
  good.kind = MutationKind::resize_fiber;
  good.link = LinkId(0);
  good.capacity = Gbps(500);
  Mutation bad;
  bad.kind = MutationKind::resize_fiber;
  bad.link = LinkId(9999);
  bad.capacity = Gbps(10);
  const AdmissionOutcome outcome = controller.apply_topology_delta({good, bad});
  EXPECT_EQ(outcome.status, AdmissionStatus::failed);
  EXPECT_EQ(topo.epoch(), before);
  EXPECT_NE(topo.link(LinkId(0)).capacity.value(), 500.0);

  // The same valid mutation alone applies.
  const AdmissionOutcome applied = controller.apply_topology_delta({good});
  EXPECT_EQ(applied.status, AdmissionStatus::topology_applied);
  EXPECT_EQ(topo.epoch(), before + 1);
  EXPECT_EQ(topo.link(LinkId(0)).capacity.value(), 500.0);

  // One invalid batch per mutation rule, each against a network with
  // contracts in force, a retired fiber, a drained region and a struck SRLG.
  ASSERT_EQ(controller.admit(NpgId(1), "a", hose_pair(1, 0, 3, 8.0)).status,
            AdmissionStatus::admitted);
  ASSERT_EQ(controller.admit(NpgId(2), "b", hose_pair(2, 2, 6, 8.0)).status,
            AdmissionStatus::admitted);
  const LinkId retired(2);
  const RegionId drained(5);
  const SrlgId struck(3);
  Mutation retire;
  retire.kind = MutationKind::retire_fiber;
  retire.link = retired;
  Mutation drain;
  drain.kind = MutationKind::drain_region;
  drain.region_a = drained;
  Mutation strike;
  strike.kind = MutationKind::strike_srlgs;
  strike.srlgs = {struck};
  ASSERT_EQ(controller.apply_topology_delta({retire, drain, strike}).status,
            AdmissionStatus::topology_applied);

  const auto fiber = [](std::uint32_t a, std::uint32_t b, double gbps) {
    Mutation add;
    add.kind = MutationKind::add_fiber;
    add.region_a = RegionId(a);
    add.region_b = RegionId(b);
    add.capacity = Gbps(gbps);
    return add;
  };
  const auto on_link = [](MutationKind kind, LinkId link, double gbps) {
    Mutation mut;
    mut.kind = kind;
    mut.link = link;
    mut.capacity = Gbps(gbps);
    return mut;
  };
  const auto on_region = [](MutationKind kind, RegionId region) {
    Mutation mut;
    mut.kind = kind;
    mut.region_a = region;
    return mut;
  };
  const auto on_srlgs = [](MutationKind kind, std::vector<SrlgId> srlgs) {
    Mutation mut;
    mut.kind = kind;
    mut.srlgs = std::move(srlgs);
    return mut;
  };
  const auto kind_name = [](MutationKind kind) -> std::string {
    switch (kind) {
      case MutationKind::add_fiber: return "add_fiber";
      case MutationKind::retire_fiber: return "retire_fiber";
      case MutationKind::resize_fiber: return "resize_fiber";
      case MutationKind::drain_region: return "drain_region";
      case MutationKind::undrain_region: return "undrain_region";
      case MutationKind::strike_srlgs: return "strike_srlgs";
      case MutationKind::repair_srlgs: return "repair_srlgs";
    }
    return "unknown";
  };
  Mutation in_retired_conduit = fiber(0, 2, 50.0);
  in_retired_conduit.conduit = retired;
  const LinkId next_link(static_cast<std::uint32_t>(topo.link_count()));
  const SrlgId next_srlg(static_cast<std::uint32_t>(topo.srlg_count()));
  const LinkId live_fiber(16);  // the 0-3 chord: in service, unstruck
  const std::vector<std::pair<std::string, std::vector<Mutation>>> invalid = {
      {"region out of range", {fiber(0, 99, 50.0)}},
      {"drained region out of range", {on_region(MutationKind::drain_region, RegionId(99))}},
      {"equal endpoints", {fiber(3, 3, 50.0)}},
      {"zero capacity", {fiber(0, 2, 0.0)}},
      {"negative resize", {on_link(MutationKind::resize_fiber, live_fiber, -5.0)}},
      {"retired conduit", {in_retired_conduit}},
      {"fiber retired twice in one batch",
       {on_link(MutationKind::retire_fiber, live_fiber, 0.0),
        on_link(MutationKind::retire_fiber, topo.link(live_fiber).reverse, 0.0)}},
      {"resize of a retired link", {on_link(MutationKind::resize_fiber, retired, 50.0)}},
      {"drain of a drained region", {on_region(MutationKind::drain_region, drained)}},
      {"undrain of an undrained region", {on_region(MutationKind::undrain_region, RegionId(0))}},
      {"strike of a struck SRLG", {on_srlgs(MutationKind::strike_srlgs, {struck})}},
      {"repair of an unstruck SRLG", {on_srlgs(MutationKind::repair_srlgs, {SrlgId(0)})}},
      {"empty SRLG list", {on_srlgs(MutationKind::strike_srlgs, {})}},
      {"link created earlier in the batch",
       {fiber(0, 2, 50.0), on_link(MutationKind::resize_fiber, next_link, 60.0)}},
      {"SRLG created earlier in the batch",
       {fiber(0, 2, 50.0), on_srlgs(MutationKind::strike_srlgs, {next_srlg})}},
  };
  const std::uint64_t epoch = topo.epoch();
  const std::string contracts = fingerprint(controller.contracts_snapshot());
  const AdmissionController::ResidualState residuals = controller.residual_snapshot();
  for (const auto& [rule, mutations] : invalid) {
    // A valid resize leads every batch: nothing of it may apply either.
    std::vector<Mutation> batch = {on_link(MutationKind::resize_fiber, LinkId(0), 321.0)};
    batch.insert(batch.end(), mutations.begin(), mutations.end());
    const AdmissionOutcome rejected = controller.apply_topology_delta(batch);
    EXPECT_EQ(rejected.status, AdmissionStatus::failed) << rule;
    ASSERT_TRUE(rejected.error.has_value()) << rule;
    // The error names the failing mutation — always the batch's last here.
    const std::string failing = "mutations[" + std::to_string(batch.size() - 1) + "] (" +
                                kind_name(batch.back().kind) + ")";
    EXPECT_NE(rejected.error->message.find(failing), std::string::npos)
        << rule << ": " << rejected.error->message;
    EXPECT_EQ(topo.epoch(), epoch) << rule;
    EXPECT_EQ(fingerprint(controller.contracts_snapshot()), contracts) << rule;
    EXPECT_TRUE(controller.residual_snapshot() == residuals) << rule;
  }
  EXPECT_EQ(topo.link(LinkId(0)).capacity.value(), 500.0);
}

// --- the torture ---------------------------------------------------------

struct LifecycleParams {
  std::size_t threads = 1;
  bool fastpath = false;
  bool check_paths = false;  ///< mirror-router PathStore verification
};

struct LifecycleResult {
  std::string log;  ///< full-precision transcript of every decision
  AdmissionController::ResidualState final_residuals;
  std::string final_contracts;
};

/// One valid-by-construction mutation against the CURRENT topology state.
/// Decisions depend only on (rng, topo, added), all of which evolve
/// identically across configurations.
Mutation next_mutation(Rng& rng, const Topology& topo, std::vector<LinkId>& added) {
  const std::size_t regions = topo.region_count();
  for (;;) {
    const std::uint64_t roll = rng.uniform_int(100);
    Mutation mut;
    if (roll < 40) {
      const auto id = LinkId(static_cast<std::uint32_t>(rng.uniform_int(topo.link_count())));
      if (topo.link_retired(id)) continue;
      mut.kind = MutationKind::resize_fiber;
      mut.link = id;
      // Mostly mild capacity churn, occasionally a severe degradation that
      // turns the link into a bottleneck (the shrunk-verdict territory).
      const double factor =
          rng.uniform_int(4) == 0 ? rng.uniform(0.05, 0.25) : rng.uniform(0.7, 1.4);
      mut.capacity = Gbps(topo.link(id).capacity.value() * factor + 1.0);
      return mut;
    }
    if (roll < 55) {
      // Outages are transient: undrain any drained region before draining a
      // new one, so at most one region is down at a time and the network
      // recovers (a 50/50 toggle would leave half the regions dead forever).
      std::optional<RegionId> drained;
      for (std::uint32_t r = 0; r < regions; ++r) {
        if (topo.region_drained(RegionId(r))) {
          drained = RegionId(r);
          break;
        }
      }
      if (drained.has_value()) {
        mut.kind = MutationKind::undrain_region;
        mut.region_a = *drained;
      } else {
        mut.kind = MutationKind::drain_region;
        mut.region_a = RegionId(static_cast<std::uint32_t>(rng.uniform_int(regions)));
      }
      return mut;
    }
    if (roll < 70) {
      // Same transience for storms: repair every struck SRLG before striking
      // again.
      std::vector<SrlgId> struck;
      for (std::uint32_t g = 0; g < topo.srlg_count(); ++g) {
        if (topo.srlg_struck(SrlgId(g))) struck.push_back(SrlgId(g));
      }
      if (!struck.empty()) {
        mut.kind = MutationKind::repair_srlgs;
        mut.srlgs = std::move(struck);
        return mut;
      }
      const auto srlg = SrlgId(static_cast<std::uint32_t>(rng.uniform_int(topo.srlg_count())));
      mut.kind = MutationKind::strike_srlgs;
      mut.srlgs = {srlg};
      if (rng.uniform_int(4) == 0) {
        // Correlated multi-SRLG storm.
        const auto other =
            SrlgId(static_cast<std::uint32_t>(rng.uniform_int(topo.srlg_count())));
        if (other != srlg) mut.srlgs.push_back(other);
      }
      return mut;
    }
    if (roll < 85) {
      const std::uint32_t a = static_cast<std::uint32_t>(rng.uniform_int(regions));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.uniform_int(regions));
      if (a == b) continue;
      mut.kind = MutationKind::add_fiber;
      mut.region_a = RegionId(a);
      mut.region_b = RegionId(b);
      mut.capacity = Gbps(rng.uniform(60.0, 160.0));
      mut.mtbf_hours = rng.uniform(50000.0, 300000.0);
      mut.mttr_hours = rng.uniform(2.0, 12.0);
      if (rng.uniform_int(3) == 0) {
        const auto conduit =
            LinkId(static_cast<std::uint32_t>(rng.uniform_int(topo.link_count())));
        if (!topo.link_retired(conduit)) mut.conduit = conduit;
      }
      return mut;
    }
    if (added.empty()) continue;  // only churn-added fibers get retired
    const std::size_t i = rng.uniform_int(added.size());
    mut.kind = MutationKind::retire_fiber;
    mut.link = added[i];
    added.erase(added.begin() + static_cast<std::ptrdiff_t>(i));
    return mut;
  }
}

LifecycleResult run_lifecycle_churn(const LifecycleParams& params) {
  constexpr std::size_t kTargetMutations = 204;
  Topology topo = seed_topology();
  AdmissionController controller(topo, lifecycle_config(params.threads, params.fastpath));
  std::optional<Router> mirror;
  if (params.check_paths) {
    mirror.emplace(topo, kRouterPaths);
    for (std::uint32_t s = 0; s < topo.region_count(); ++s) {
      for (std::uint32_t d = 0; d < topo.region_count(); ++d) {
        if (s != d) (void)mirror->paths(RegionId(s), RegionId(d));
      }
    }
  }

  Rng rng(20260808);
  std::vector<LinkId> added;
  std::vector<std::pair<ContractId, std::uint32_t>> live;  // (contract, npg)
  std::uint32_t next_npg = 0;
  std::ostringstream log;
  log.precision(17);

  const auto total_approved = [](const AdmissionOutcome& outcome) {
    double total = 0.0;
    for (const auto& approval : outcome.approvals) total += approval.approved.value();
    return total;
  };
  const auto check_invariants = [&](const std::string& where) {
    const auto snapshot = controller.residual_snapshot();
    ASSERT_TRUE(snapshot == controller.rebuild_residuals_from_scratch())
        << where << ": maintained residuals diverged from a from-scratch rebuild";
    if (params.fastpath) {
      const auto headroom = controller.fastpath_headroom_snapshot();
      ASSERT_EQ(headroom.size(), snapshot.size()) << where;
      for (std::size_t k = 0; k < snapshot.size(); ++k) {
        risk::FastEstimator fresh(topo, controller.scenarios());
        fresh.rebuild(snapshot[k]);
        ASSERT_EQ(headroom[k].size(), fresh.headroom().size()) << where;
        for (std::size_t l = 0; l < headroom[k].size(); ++l) {
          ASSERT_EQ(headroom[k][l], fresh.headroom()[l])
              << where << ": fastpath summary realization " << k << " link " << l;
        }
      }
    }
  };

  std::size_t mutations_applied = 0;
  std::size_t step = 0;
  while (mutations_applied < kTargetMutations) {
    ++step;
    if (step % 4 == 0) {
      // --- contract op: admit / resize / release -------------------------
      const std::uint64_t pick = rng.uniform_int(3);
      if (pick == 0 || live.empty()) {
        const std::uint32_t npg = next_npg++;
        const std::uint32_t src = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
        std::uint32_t dst = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
        if (dst == src) dst = (dst + 1) % static_cast<std::uint32_t>(topo.region_count());
        const double rate = rng.uniform(4.0, 16.0);
        const AdmissionOutcome outcome = controller.admit(
            NpgId(npg), "npg" + std::to_string(npg), hose_pair(npg, src, dst, rate));
        log << "admit " << npg << " -> " << static_cast<int>(outcome.status) << ' '
            << total_approved(outcome) << '\n';
        if (outcome.status == AdmissionStatus::admitted) {
          live.emplace_back(outcome.contract, npg);
        }
      } else if (pick == 1) {
        const auto& [id, npg] = live[rng.uniform_int(live.size())];
        const std::uint32_t src = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
        std::uint32_t dst = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
        if (dst == src) dst = (dst + 1) % static_cast<std::uint32_t>(topo.region_count());
        const AdmissionOutcome outcome =
            controller.resize(id, hose_pair(npg, src, dst, rng.uniform(4.0, 16.0)));
        log << "resize " << id << " -> " << static_cast<int>(outcome.status) << ' '
            << total_approved(outcome) << '\n';
      } else {
        const std::size_t i = rng.uniform_int(live.size());
        const ContractId id = live[i].first;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        const AdmissionOutcome outcome = controller.release(id);
        log << "release " << id << " -> " << static_cast<int>(outcome.status) << '\n';
      }
      check_invariants("step " + std::to_string(step));
      if (testing::Test::HasFatalFailure()) return {};
      continue;
    }

    // --- topology window -------------------------------------------------
    std::vector<Mutation> batch;
    batch.push_back(next_mutation(rng, topo, added));
    const bool double_batch = rng.uniform_int(8) == 0;
    if (double_batch &&
        (batch[0].kind == MutationKind::resize_fiber || batch[0].kind == MutationKind::add_fiber)) {
      // A second, conflict-free capacity mutation in the same window.
      for (;;) {
        const auto id = LinkId(static_cast<std::uint32_t>(rng.uniform_int(topo.link_count())));
        if (topo.link_retired(id)) continue;
        Mutation extra;
        extra.kind = MutationKind::resize_fiber;
        extra.link = id;
        extra.capacity = Gbps(topo.link(id).capacity.value() * rng.uniform(0.8, 1.25) + 1.0);
        batch.push_back(extra);
        break;
      }
    }
    const std::uint64_t pre_epoch = topo.epoch();
    const AdmissionOutcome outcome = controller.apply_topology_delta(batch);
    EXPECT_EQ(outcome.status, AdmissionStatus::topology_applied)
        << "step " << step << ": " << (outcome.error ? outcome.error->message : "");
    if (outcome.status != AdmissionStatus::topology_applied) return {};
    mutations_applied += batch.size();
    for (const MutationRecord& rec : topo.mutation_log().since(pre_epoch)) {
      if (rec.kind == MutationKind::add_fiber) added.push_back(rec.link);
    }
    log << "topo " << batch.size();
    for (const ContractVerdict& verdict : outcome.reverified) {
      log << " [" << verdict.contract << ':' << static_cast<int>(verdict.kind) << ':'
          << verdict.fraction << ']';
      if (verdict.kind == VerdictKind::revoked) {
        std::erase_if(live, [&](const auto& entry) { return entry.first == verdict.contract; });
      }
    }
    log << '\n';
    log << "db " << std::hash<std::string>{}(fingerprint(controller.contracts_snapshot()))
        << '\n';

    check_invariants("step " + std::to_string(step));
    if (testing::Test::HasFatalFailure()) return {};
    if (mirror.has_value()) {
      mirror->resync_topology();
      expect_store_matches_fresh(*mirror, topo, "step " + std::to_string(step));
      if (testing::Test::HasFatalFailure()) return {};
    }
  }

  if (params.fastpath) {
    (void)controller.audit_fastpath();
    EXPECT_EQ(controller.fastpath_stats().violations, 0u);
  }
  LifecycleResult result;
  result.log = log.str();
  result.final_residuals = controller.residual_snapshot();
  result.final_contracts = fingerprint(controller.contracts_snapshot());
  return result;
}

TEST(TopologyLifecycle, MutationChurnTortureBitIdenticalAcrossConfigs) {
  // Baseline: serial, exact-only, with per-mutation PathStore verification.
  const LifecycleResult base = run_lifecycle_churn({1, false, true});
  ASSERT_FALSE(base.log.empty());
  if (const char* dump = std::getenv("NETENT_LIFECYCLE_DUMP")) {
    std::ofstream(dump) << base.log;
  }
  // The churn must exercise the interesting machinery, not degenerate into
  // rejections and no-op windows: contracts get admitted (status 0 with a
  // positive approved rate), topology windows re-verify in-force contracts
  // (bracketed verdicts), multi-mutation batches occur, and contracts
  // survive to the end.
  EXPECT_NE(base.log.find("-> 0 "), std::string::npos) << "no admitted contract";
  EXPECT_NE(base.log.find(":0:"), std::string::npos) << "no reaffirmed verdict";
  EXPECT_NE(base.log.find(":1:"), std::string::npos) << "no shrunk verdict";
  EXPECT_NE(base.log.find(":2:"), std::string::npos) << "no revoked verdict";
  EXPECT_NE(base.log.find("topo 2"), std::string::npos) << "no multi-mutation batch";
  EXPECT_FALSE(base.final_contracts.empty()) << "no contract survived the churn";

  const LifecycleParams configs[] = {
      {4, false, false},
      {1, true, true},
      {4, true, false},
  };
  for (const LifecycleParams& params : configs) {
    const LifecycleResult result = run_lifecycle_churn(params);
    if (testing::Test::HasFatalFailure()) return;
    const std::string label = "threads=" + std::to_string(params.threads) +
                              " fastpath=" + std::to_string(params.fastpath);
    EXPECT_EQ(result.log, base.log) << label;
    EXPECT_TRUE(result.final_residuals == base.final_residuals) << label;
    EXPECT_EQ(result.final_contracts, base.final_contracts) << label;
  }
}

}  // namespace
}  // namespace netent
