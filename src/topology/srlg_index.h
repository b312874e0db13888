// SRLG -> link inverted index. Failure scenarios are expressed as sets of
// down SRLGs; turning a scenario into its affected links used to cost a full
// O(links x |down|) scan per scenario. The index is built once per topology
// and answers the same question in O(|down|) lookups, which is what makes
// the incremental scenario-replay engine (replay.h) and the shared
// scenario-capacity helper cheap per scenario.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "topology/topology.h"

namespace netent::topology {

/// Inverted index from SRLG to the directed links riding it. Every link
/// belongs to exactly one SRLG, so the per-SRLG link lists are disjoint and
/// their union is the full link set. Links are indexed for life — retired
/// fibers stay listed (their effective capacity is already 0, so zeroing
/// them again in a scenario is a no-op); after the topology gains links or
/// SRLGs, `resync()` appends the new entries.
class SrlgIndex {
 public:
  explicit SrlgIndex(const Topology& topo);

  /// Directed links whose fiber is `srlg` (ascending LinkId order).
  [[nodiscard]] std::span<const LinkId> links_of(SrlgId srlg) const;

  [[nodiscard]] std::size_t srlg_count() const { return links_by_srlg_.size(); }

  /// Catches up with topology growth: indexes links added since the last
  /// build/resync. Equivalent to rebuilding from scratch (new links have the
  /// highest ids, so appending keeps each list ascending).
  void resync(const Topology& topo);

 private:
  std::vector<std::vector<LinkId>> links_by_srlg_;
  std::size_t links_indexed_ = 0;
};

}  // namespace netent::topology
