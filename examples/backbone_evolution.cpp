// Backbone evolution: the topology lifecycle end to end. A 12-region WAN
// roughly doubles its capacity over one simulated year while the admission
// plane keeps serving contracts: every month lays new fibers (some in
// existing conduits), upgrades others, drains a region for maintenance and
// weathers an SRLG storm — each batch applied through
// AdmissionController::apply_topology_delta, which resyncs the placement
// stack (recompiling the router's paths when a batch lays or retires a
// fiber) and re-verifies every in-force contract the batch can affect
// against the evolved network (reaffirm / shrink / revoke verdicts).
//
// Usage: ./backbone_evolution [--metrics-json]
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "netent.h"

using namespace netent;

namespace {

const char* verdict_name(service::VerdictKind kind) {
  switch (kind) {
    case service::VerdictKind::reaffirmed: return "reaffirmed";
    case service::VerdictKind::shrunk: return "shrunk";
    case service::VerdictKind::revoked: return "revoked";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bool metrics_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--metrics-json") metrics_json = true;
  }

  // Year 0: a modest 12-region backbone.
  Rng net_rng(2026);
  topology::GeneratorConfig net_config;
  net_config.region_count = 12;
  net_config.base_capacity = Gbps(800);
  net_config.capacity_sigma = 0.2;
  net_config.max_parallel_fibers = 2;
  net_config.mtbf_hours_min = 150000.0;
  net_config.mtbf_hours_max = 400000.0;
  net_config.mttr_hours_min = 4.0;
  net_config.mttr_hours_max = 12.0;
  topology::Topology topo = topology::generate_backbone(net_config, net_rng);
  const double capacity_start = topo.total_capacity().value();

  service::AdmissionConfig config;
  config.approval.realizations = 2;
  config.approval.slo_availability = 0.999;
  config.approval.scenarios.max_simultaneous = 1;
  config.seed = 2026;
  config.background = false;  // deterministic windows for a scripted demo
  config.attach_counter_proposals = false;
  service::AdmissionController controller(topo, config);  // mutable overload

  std::cout << "Backbone evolution: one simulated year of growth under continuous "
               "admission\n";
  std::cout << "  start: " << topo.region_count() << " regions, " << topo.link_count() / 2
            << " fibers, " << std::fixed << std::setprecision(0) << capacity_start
            << " Gbps total capacity\n\n";

  Rng rng(7);
  std::uint32_t next_npg = 1;
  std::size_t admitted_total = 0;
  std::size_t rejected_total = 0;
  std::size_t reaffirmed = 0;
  std::size_t shrunk = 0;
  std::size_t revoked = 0;
  std::vector<LinkId> laid_this_year;

  const auto admit_some = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t npg = next_npg++;
      const auto src = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
      auto dst = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
      if (dst == src) dst = (dst + 1) % static_cast<std::uint32_t>(topo.region_count());
      hose::HoseRequest egress;
      egress.npg = NpgId(npg);
      egress.qos = QosClass::c4_high;
      egress.region = RegionId(src);
      egress.direction = hose::Direction::egress;
      egress.rate = Gbps(rng.uniform(20.0, 80.0));
      hose::HoseRequest ingress = egress;
      ingress.region = RegionId(dst);
      ingress.direction = hose::Direction::ingress;
      const auto outcome =
          controller.admit(NpgId(npg), "svc" + std::to_string(npg), {egress, ingress});
      if (outcome.status == service::AdmissionStatus::admitted) {
        ++admitted_total;
      } else {
        ++rejected_total;
      }
    }
  };

  for (int month = 1; month <= 12; ++month) {
    const double when = static_cast<double>(month) * 730.0;  // hours

    // Contracts keep arriving while the network evolves.
    admit_some(3);

    // This month's change batch: lay 1-2 new fibers (sometimes in an
    // existing conduit), upgrade one, and every quarter drain a region for
    // maintenance or take a storm — one atomic, re-verified delta.
    std::vector<topology::Mutation> batch;
    const std::size_t lays = 2 + rng.uniform_int(2);
    for (std::size_t i = 0; i < lays; ++i) {
      topology::Mutation lay;
      lay.kind = topology::MutationKind::add_fiber;
      lay.when_hours = when;
      const auto a = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
      auto b = static_cast<std::uint32_t>(rng.uniform_int(topo.region_count()));
      if (b == a) b = (b + 1) % static_cast<std::uint32_t>(topo.region_count());
      lay.region_a = RegionId(a);
      lay.region_b = RegionId(b);
      lay.capacity = Gbps(rng.uniform(600.0, 1800.0));
      lay.mtbf_hours = rng.uniform(150000.0, 400000.0);
      lay.mttr_hours = rng.uniform(4.0, 12.0);
      if (!laid_this_year.empty() && rng.uniform_int(3) == 0) {
        lay.conduit = laid_this_year[rng.uniform_int(laid_this_year.size())];
      }
      batch.push_back(lay);
    }
    for (int upgrades = 0; upgrades < 2; ++upgrades) {
      topology::Mutation upgrade;
      upgrade.kind = topology::MutationKind::resize_fiber;
      upgrade.when_hours = when;
      for (;;) {
        const auto id = LinkId(static_cast<std::uint32_t>(rng.uniform_int(topo.link_count())));
        if (topo.link_retired(id)) continue;
        upgrade.link = id;
        upgrade.capacity = Gbps(topo.link(id).capacity.value() * rng.uniform(1.2, 1.6));
        break;
      }
      batch.push_back(upgrade);
    }
    if (month % 4 == 0) {
      topology::Mutation drain;
      drain.kind = topology::MutationKind::drain_region;
      drain.when_hours = when;
      drain.region_a = RegionId(static_cast<std::uint32_t>(rng.uniform_int(topo.region_count())));
      batch.push_back(drain);
    } else if (month % 4 == 2) {
      topology::Mutation storm;
      storm.kind = topology::MutationKind::strike_srlgs;
      storm.when_hours = when;
      storm.srlgs = {SrlgId(static_cast<std::uint32_t>(rng.uniform_int(topo.srlg_count())))};
      batch.push_back(storm);
    } else {
      // Recover whatever last month's maintenance or storm took down.
      for (std::uint32_t r = 0; r < topo.region_count(); ++r) {
        if (topo.region_drained(RegionId(r))) {
          topology::Mutation undrain;
          undrain.kind = topology::MutationKind::undrain_region;
          undrain.when_hours = when;
          undrain.region_a = RegionId(r);
          batch.push_back(undrain);
        }
      }
      std::vector<SrlgId> struck;
      for (std::uint32_t g = 0; g < topo.srlg_count(); ++g) {
        if (topo.srlg_struck(SrlgId(g))) struck.push_back(SrlgId(g));
      }
      if (!struck.empty()) {
        topology::Mutation repair;
        repair.kind = topology::MutationKind::repair_srlgs;
        repair.when_hours = when;
        repair.srlgs = std::move(struck);
        batch.push_back(repair);
      }
    }

    const std::uint64_t pre_epoch = topo.epoch();
    const auto outcome = controller.apply_topology_delta(batch);
    if (outcome.status != service::AdmissionStatus::topology_applied) {
      std::cerr << "month " << month << ": topology delta failed: "
                << (outcome.error ? outcome.error->message : "?") << '\n';
      return 1;
    }
    for (const topology::MutationRecord& rec : topo.mutation_log().since(pre_epoch)) {
      if (rec.kind == topology::MutationKind::add_fiber) laid_this_year.push_back(rec.link);
    }
    for (const service::ContractVerdict& verdict : outcome.reverified) {
      switch (verdict.kind) {
        case service::VerdictKind::reaffirmed: ++reaffirmed; break;
        case service::VerdictKind::shrunk: ++shrunk; break;
        case service::VerdictKind::revoked: ++revoked; break;
      }
    }

    std::cout << "month " << std::setw(2) << month << ": epoch " << std::setw(3) << topo.epoch()
              << ", " << topo.link_count() / 2 << " fibers, " << std::setprecision(0)
              << topo.total_effective_capacity().value() << " Gbps effective, "
              << controller.admitted_count() << " contracts in force";
    if (!outcome.reverified.empty()) {
      std::cout << " (re-verified " << outcome.reverified.size() << ":";
      std::size_t shown = 0;
      for (const service::ContractVerdict& verdict : outcome.reverified) {
        if (verdict.kind == service::VerdictKind::reaffirmed) continue;
        std::cout << ' ' << verdict.contract << "=" << verdict_name(verdict.kind);
        if (verdict.kind == service::VerdictKind::shrunk) {
          std::cout << '@' << std::setprecision(2) << verdict.fraction << std::setprecision(0);
        }
        ++shown;
      }
      if (shown == 0) std::cout << " all reaffirmed";
      std::cout << ')';
    }
    std::cout << '\n';
  }

  const double capacity_end = topo.total_capacity().value();
  const double growth = capacity_end / capacity_start;
  const bool exact =
      controller.residual_snapshot() == controller.rebuild_residuals_from_scratch();

  std::cout << "\nyear summary:\n";
  std::cout << "  capacity " << std::setprecision(0) << capacity_start << " -> " << capacity_end
            << " Gbps (" << std::setprecision(2) << growth << "x)\n";
  std::cout << "  " << topo.mutation_log().since(0).size() << " logged mutations, final epoch "
            << topo.epoch() << '\n';
  std::cout << "  admissions: " << admitted_total << " admitted, " << rejected_total
            << " rejected; verdicts: " << reaffirmed << " reaffirmed, " << shrunk << " shrunk, "
            << revoked << " revoked\n";
  std::cout << "  incremental state identical to from-scratch rebuild: "
            << (exact ? "yes" : "NO") << '\n';

  if (metrics_json) {
    std::cout << obs::to_json(obs::Registry::global().snapshot()) << '\n';
  }
  // The demo's contract with CI: the network must have grown substantially
  // and the incremental lifecycle must have stayed exact.
  return exact && growth >= 1.8 ? 0 : 1;
}
