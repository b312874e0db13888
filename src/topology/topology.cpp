#include "topology/topology.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace netent::topology {

namespace {

const char* kind_name(MutationKind kind) {
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
}

/// Whether every link and SRLG id `m` reads is below the given counts.
bool ids_below(const Mutation& m, std::size_t links, std::size_t srlgs) {
  switch (m.kind) {
    case MutationKind::add_fiber:
      return !m.conduit.has_value() || m.conduit->value() < links;
    case MutationKind::retire_fiber:
    case MutationKind::resize_fiber:
      return m.link.value() < links;
    case MutationKind::strike_srlgs:
    case MutationKind::repair_srlgs:
      return std::all_of(m.srlgs.begin(), m.srlgs.end(),
                         [&](SrlgId srlg) { return srlg.value() < srlgs; });
    case MutationKind::drain_region:
    case MutationKind::undrain_region:
      return true;
  }
  return true;
}

}  // namespace

double link_unavailability(const Link& link) {
  // Degenerate-input convention (see the header): instant repair wins, then
  // instant failure; the ratio is only evaluated with both inputs positive,
  // so it can never produce NaN or inf.
  if (link.mttr_hours <= 0.0) return 0.0;
  if (link.mtbf_hours <= 0.0) return 1.0;
  return link.mttr_hours / (link.mtbf_hours + link.mttr_hours);
}

RegionId Topology::add_region(std::string name, RegionKind kind) {
  NETENT_EXPECTS(!name.empty());
  const RegionId id(static_cast<std::uint32_t>(regions_.size()));
  regions_.push_back(Region{id, std::move(name), kind});
  out_links_.emplace_back();
  drained_.push_back(0);
  return id;
}

LinkId Topology::push_fiber(RegionId a, RegionId b, Gbps capacity, SrlgId srlg, double mtbf_hours,
                            double mttr_hours) {
  const LinkId fwd(static_cast<std::uint32_t>(links_.size()));
  const LinkId rev(static_cast<std::uint32_t>(links_.size() + 1));
  links_.push_back(Link{fwd, a, b, srlg, rev, capacity, mtbf_hours, mttr_hours});
  links_.push_back(Link{rev, b, a, srlg, fwd, capacity, mtbf_hours, mttr_hours});
  out_links_[a.value()].push_back(fwd);
  out_links_[b.value()].push_back(rev);
  retired_.push_back(0);
  retired_.push_back(0);
  if (srlg.value() >= struck_.size()) struck_.resize(srlg.value() + 1, 0);
  return fwd;
}

void Topology::record(MutationRecord rec) {
  rec.epoch = ++epoch_;
  log_.records_.push_back(std::move(rec));
}

LinkId Topology::add_fiber(RegionId a, RegionId b, Gbps capacity_per_direction, double mtbf_hours,
                           double mttr_hours, double when_hours) {
  NETENT_EXPECTS(a.value() < regions_.size());
  NETENT_EXPECTS(b.value() < regions_.size());
  NETENT_EXPECTS(a != b);
  NETENT_EXPECTS(capacity_per_direction > Gbps(0));
  NETENT_EXPECTS(mtbf_hours >= 0.0 && mttr_hours >= 0.0);

  const SrlgId srlg(static_cast<std::uint32_t>(srlg_count_++));
  const LinkId fwd = push_fiber(a, b, capacity_per_direction, srlg, mtbf_hours, mttr_hours);
  record(MutationRecord{MutationKind::add_fiber, 0, when_hours, fwd, capacity_per_direction,
                        RegionId(0), {}});
  return fwd;
}

LinkId Topology::add_fiber_in_conduit(RegionId a, RegionId b, Gbps capacity_per_direction,
                                      LinkId existing, double when_hours) {
  NETENT_EXPECTS(a.value() < regions_.size());
  NETENT_EXPECTS(b.value() < regions_.size());
  NETENT_EXPECTS(a != b);
  NETENT_EXPECTS(capacity_per_direction > Gbps(0));
  NETENT_EXPECTS(existing.value() < links_.size());
  NETENT_EXPECTS(!link_retired(existing));

  // Copy, not reference: the push_backs below may reallocate links_.
  const Link conduit_peer = links_[existing.value()];
  const LinkId fwd = push_fiber(a, b, capacity_per_direction, conduit_peer.srlg,
                                conduit_peer.mtbf_hours, conduit_peer.mttr_hours);
  record(MutationRecord{MutationKind::add_fiber, 0, when_hours, fwd, capacity_per_direction,
                        RegionId(0), {}});
  return fwd;
}

void Topology::retire_fiber(LinkId fiber, double when_hours) {
  NETENT_EXPECTS(fiber.value() < links_.size());
  NETENT_EXPECTS(!link_retired(fiber));
  const Link& l = links_[fiber.value()];
  // Normalize to the forward direction so the log names fibers canonically.
  const LinkId fwd = l.id.value() < l.reverse.value() ? l.id : l.reverse;
  retired_[fwd.value()] = 1;
  retired_[links_[fwd.value()].reverse.value()] = 1;
  record(MutationRecord{MutationKind::retire_fiber, 0, when_hours, fwd, Gbps(0), RegionId(0), {}});
}

void Topology::resize_fiber(LinkId fiber, Gbps capacity_per_direction, double when_hours) {
  NETENT_EXPECTS(fiber.value() < links_.size());
  NETENT_EXPECTS(!link_retired(fiber));
  NETENT_EXPECTS(capacity_per_direction > Gbps(0));
  Link& l = links_[fiber.value()];
  const LinkId fwd = l.id.value() < l.reverse.value() ? l.id : l.reverse;
  links_[fwd.value()].capacity = capacity_per_direction;
  links_[links_[fwd.value()].reverse.value()].capacity = capacity_per_direction;
  record(MutationRecord{MutationKind::resize_fiber, 0, when_hours, fwd, capacity_per_direction,
                        RegionId(0), {}});
}

void Topology::drain_region(RegionId region, double when_hours) {
  NETENT_EXPECTS(region.value() < regions_.size());
  NETENT_EXPECTS(!region_drained(region));
  drained_[region.value()] = 1;
  record(
      MutationRecord{MutationKind::drain_region, 0, when_hours, LinkId(0), Gbps(0), region, {}});
}

void Topology::undrain_region(RegionId region, double when_hours) {
  NETENT_EXPECTS(region.value() < regions_.size());
  NETENT_EXPECTS(region_drained(region));
  drained_[region.value()] = 0;
  record(
      MutationRecord{MutationKind::undrain_region, 0, when_hours, LinkId(0), Gbps(0), region, {}});
}

void Topology::strike_srlgs(std::vector<SrlgId> srlgs, double when_hours) {
  std::sort(srlgs.begin(), srlgs.end(),
            [](SrlgId a, SrlgId b) { return a.value() < b.value(); });
  srlgs.erase(std::unique(srlgs.begin(), srlgs.end()), srlgs.end());
  NETENT_EXPECTS(!srlgs.empty());
  for (const SrlgId s : srlgs) {
    NETENT_EXPECTS(s.value() < srlg_count_);
    NETENT_EXPECTS(!srlg_struck(s));
    struck_[s.value()] = 1;
  }
  record(MutationRecord{MutationKind::strike_srlgs, 0, when_hours, LinkId(0), Gbps(0), RegionId(0),
                        std::move(srlgs)});
}

void Topology::repair_srlgs(std::vector<SrlgId> srlgs, double when_hours) {
  std::sort(srlgs.begin(), srlgs.end(),
            [](SrlgId a, SrlgId b) { return a.value() < b.value(); });
  srlgs.erase(std::unique(srlgs.begin(), srlgs.end()), srlgs.end());
  NETENT_EXPECTS(!srlgs.empty());
  for (const SrlgId s : srlgs) {
    NETENT_EXPECTS(s.value() < srlg_count_);
    NETENT_EXPECTS(srlg_struck(s));
    struck_[s.value()] = 0;
  }
  record(MutationRecord{MutationKind::repair_srlgs, 0, when_hours, LinkId(0), Gbps(0), RegionId(0),
                        std::move(srlgs)});
}

LinkId Topology::apply(const Mutation& m) {
  switch (m.kind) {
    case MutationKind::add_fiber:
      if (m.conduit.has_value()) {
        return add_fiber_in_conduit(m.region_a, m.region_b, m.capacity, *m.conduit, m.when_hours);
      }
      return add_fiber(m.region_a, m.region_b, m.capacity, m.mtbf_hours, m.mttr_hours,
                       m.when_hours);
    case MutationKind::retire_fiber:
      retire_fiber(m.link, m.when_hours);
      return LinkId(0);
    case MutationKind::resize_fiber:
      resize_fiber(m.link, m.capacity, m.when_hours);
      return LinkId(0);
    case MutationKind::drain_region:
      drain_region(m.region_a, m.when_hours);
      return LinkId(0);
    case MutationKind::undrain_region:
      undrain_region(m.region_a, m.when_hours);
      return LinkId(0);
    case MutationKind::strike_srlgs:
      strike_srlgs(m.srlgs, m.when_hours);
      return LinkId(0);
    case MutationKind::repair_srlgs:
      repair_srlgs(m.srlgs, m.when_hours);
      return LinkId(0);
  }
  NETENT_EXPECTS(false);
  return LinkId(0);
}

Expected<void> Topology::validate_batch(std::span<const Mutation> batch) const {
  Topology scratch = *this;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string where =
        "mutations[" + std::to_string(i) + "] (" + kind_name(batch[i].kind) + "): ";
    if (!ids_below(batch[i], link_count(), srlg_count())) {
      return Error{ErrorCode::invalid_argument,
                   where + "names a link or SRLG the topology did not have before the batch"};
    }
    try {
      (void)scratch.apply(batch[i]);
    } catch (const ContractViolation& violation) {
      return Error{ErrorCode::invalid_argument, where + violation.what()};
    }
  }
  return {};
}

Gbps Topology::effective_capacity(LinkId id) const {
  NETENT_EXPECTS(id.value() < links_.size());
  const Link& l = links_[id.value()];
  if (retired_[id.value()] != 0) return Gbps(0);
  if (drained_[l.src.value()] != 0 || drained_[l.dst.value()] != 0) return Gbps(0);
  if (struck_[l.srlg.value()] != 0) return Gbps(0);
  return l.capacity;
}

const Region& Topology::region(RegionId id) const {
  NETENT_EXPECTS(id.value() < regions_.size());
  return regions_[id.value()];
}

const Link& Topology::link(LinkId id) const {
  NETENT_EXPECTS(id.value() < links_.size());
  return links_[id.value()];
}

std::span<const LinkId> Topology::out_links(RegionId id) const {
  NETENT_EXPECTS(id.value() < out_links_.size());
  return out_links_[id.value()];
}

std::optional<RegionId> Topology::find_region(const std::string& name) const {
  for (const auto& region : regions_) {
    if (region.name == name) return region.id;
  }
  return std::nullopt;
}

Gbps Topology::total_capacity() const {
  Gbps total(0);
  for (const auto& link : links_) total += link.capacity;
  return total;
}

Gbps Topology::total_effective_capacity() const {
  Gbps total(0);
  for (const auto& link : links_) total += effective_capacity(link.id);
  return total;
}

}  // namespace netent::topology
