// The WAN backbone model: regions (DCs and PoPs) connected by fibers, each
// fiber being a pair of directed links that share an SRLG (a fiber cut takes
// out both directions). Links carry capacity and reliability (MTBF/MTTR),
// which the risk subsystem turns into failure-scenario probabilities.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/types.h"
#include "common/units.h"
#include "topology/mutation.h"

namespace netent::topology {

enum class RegionKind : std::uint8_t { data_center, pop };

struct Region {
  RegionId id;
  std::string name;
  RegionKind kind = RegionKind::data_center;
};

/// One direction of a fiber. `reverse` is the opposite direction's LinkId.
struct Link {
  LinkId id;
  RegionId src;
  RegionId dst;
  SrlgId srlg;      ///< fiber identity; shared with `reverse`
  LinkId reverse;   ///< the other direction of the same fiber
  Gbps capacity;    ///< configured per-direction capacity (see effective_capacity)
  double mtbf_hours = 8760.0;  ///< mean time between failures
  double mttr_hours = 12.0;    ///< mean time to repair
};

/// Stationary unavailability of a link: the long-run fraction of time the
/// fiber is down, MTTR / (MTBF + MTTR). Degenerate reliability inputs follow
/// a documented convention instead of propagating NaN/inf:
///   mttr <= 0  ->  0.0  (instant or no repair: the link is never observed
///                        down; this rule wins when both are zero)
///   mtbf <= 0  ->  1.0  (fails immediately, repair takes time: always down)
[[nodiscard]] double link_unavailability(const Link& link);

/// Mutable, versioned backbone topology. Built through `add_region` /
/// `add_fiber`, then evolved through the lifecycle mutations (retire /
/// resize / drain / strike, see mutation.h) — every mutation appends a
/// MutationRecord to the log and bumps `epoch()`. The query interface is
/// const; LinkIds and SrlgIds are dense and stable forever (links are
/// retired in place, never erased). Regions are fixed once any Router is
/// attached: path stores size their pair tables by region_count.
///
/// Consumers holding topology-derived caches resync from
/// `mutation_log().since(their_epoch)` — see Router::resync_topology(),
/// which recompiles its paths only when that tail holds an add or a retire.
class Topology {
 public:
  RegionId add_region(std::string name, RegionKind kind);

  /// Adds a bidirectional fiber: two directed links sharing one SRLG.
  /// Returns the forward-direction link id (a -> b). Degenerate reliability
  /// (mtbf or mttr <= 0) is allowed under the link_unavailability
  /// convention. Usable during build AND as a lifecycle mutation (logged
  /// either way).
  LinkId add_fiber(RegionId a, RegionId b, Gbps capacity_per_direction, double mtbf_hours,
                   double mttr_hours, double when_hours = 0.0);

  /// Adds a bidirectional fiber laid in the same conduit as `existing`
  /// (same SRLG, same reliability): a single cut takes out both fibers.
  /// Models the correlated-failure reality that "parallel" capacity often
  /// shares physical risk. Returns the forward-direction link id.
  LinkId add_fiber_in_conduit(RegionId a, RegionId b, Gbps capacity_per_direction,
                              LinkId existing, double when_hours = 0.0);

  // --- Lifecycle mutations (mutation.h). Each logs a record + bumps epoch.

  /// Retires the fiber (both directions): effective capacity 0, excluded
  /// from new path computation. Irreversible; `fiber` may be either
  /// direction's id. The link keeps its slot, SRLG and reliability (an SRLG
  /// all of whose fibers are retired stops contributing failure scenarios).
  void retire_fiber(LinkId fiber, double when_hours = 0.0);

  /// Re-provisions the fiber's per-direction capacity (both directions).
  void resize_fiber(LinkId fiber, Gbps capacity_per_direction, double when_hours = 0.0);

  /// Maintenance drain: every link touching `region` gets effective
  /// capacity 0 until undrained. Drained links keep their place in compiled
  /// path sets (path costs are hop counts), they just carry nothing.
  void drain_region(RegionId region, double when_hours = 0.0);
  void undrain_region(RegionId region, double when_hours = 0.0);

  /// Correlated storm: all links of the listed SRLGs get effective capacity
  /// 0 until repaired. `srlgs` is sorted+deduped into the record.
  void strike_srlgs(std::vector<SrlgId> srlgs, double when_hours = 0.0);
  void repair_srlgs(std::vector<SrlgId> srlgs, double when_hours = 0.0);

  /// Uniform dispatch of one Mutation (the admission plane's delta windows
  /// arrive as Mutation lists). Returns the created forward link id for
  /// add_fiber kinds, LinkId(0) otherwise.
  LinkId apply(const Mutation& mutation);

  /// Whether applying `batch` in order would succeed, judged by the
  /// mutators' own preconditions on a scratch copy (this topology is left
  /// untouched). Every link and SRLG id a mutation names must predate the
  /// batch: a batch may not target a fiber or SRLG it creates itself. The
  /// error is invalid_argument and names the failing mutation's index and
  /// kind.
  [[nodiscard]] Expected<void> validate_batch(std::span<const Mutation> batch) const;

  // --- Versioning.

  /// Number of mutations ever applied (0 for an empty topology). Bumped by
  /// every add/retire/resize/drain/undrain/strike/repair.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const MutationLog& mutation_log() const { return log_; }

  // --- Lifecycle state queries.

  [[nodiscard]] bool link_retired(LinkId id) const { return retired_[id.value()] != 0; }
  [[nodiscard]] bool region_drained(RegionId id) const { return drained_[id.value()] != 0; }
  [[nodiscard]] bool srlg_struck(SrlgId id) const { return struck_[id.value()] != 0; }

  /// The capacity the link offers right now: 0 when the link is retired,
  /// either endpoint region is drained, or its SRLG is struck; the
  /// configured capacity otherwise.
  [[nodiscard]] Gbps effective_capacity(LinkId id) const;

  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] std::size_t srlg_count() const { return srlg_count_; }

  [[nodiscard]] const Region& region(RegionId id) const;
  [[nodiscard]] const Link& link(LinkId id) const;
  [[nodiscard]] std::span<const Region> regions() const { return regions_; }
  [[nodiscard]] std::span<const Link> links() const { return links_; }

  /// Outgoing links of a region.
  [[nodiscard]] std::span<const LinkId> out_links(RegionId id) const;

  /// Looks up a region by name; nullopt if absent.
  [[nodiscard]] std::optional<RegionId> find_region(const std::string& name) const;

  /// Sum of configured capacities of all directed links.
  [[nodiscard]] Gbps total_capacity() const;

  /// Sum of effective capacities (retired/drained/struck links count 0).
  [[nodiscard]] Gbps total_effective_capacity() const;

 private:
  LinkId push_fiber(RegionId a, RegionId b, Gbps capacity, SrlgId srlg, double mtbf_hours,
                    double mttr_hours);
  void record(MutationRecord record);

  std::vector<Region> regions_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_links_;
  std::size_t srlg_count_ = 0;

  std::vector<char> retired_;  ///< per link
  std::vector<char> drained_;  ///< per region
  std::vector<char> struck_;   ///< per SRLG
  std::uint64_t epoch_ = 0;
  MutationLog log_;
};

}  // namespace netent::topology
