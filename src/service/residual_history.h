// The admission service's residual state (§4.3's strict-priority risk
// assessment, kept across requests for §5's agility): per (realization k,
// failure scenario s), the per-link capacities left after placing
// realization k's committed demands under scenario s, in commit order,
// through water_fill_demand. Appends place only the new demands. Edits
// (releases, resizes, topology re-verification) change the middle of the
// history, and water-filling is order-sensitive, so they replay the suffix
// behind the first edited demand from the newest of at most kSnapshots
// prefix states per realization, kept at multiples of a power-of-two stride
// sized to the history. Appends and edits share one replay, so the state is
// bit-identical to a from-scratch rebuild at any thread count.
//
// Each realization's state is a risk::SparseResiduals (risk/
// sparse_residuals.h): scenario 0's residuals dense, and every other
// scenario only on the links where it differs. It is the only form the
// residuals take: the assessors read it in place, and residuals() builds
// the dense [realization][scenario][link] cells only for the oracle
// comparisons. A replay is one fan-out. Its first items are the
// realizations' scenario-0 chains, which fill scenario 0 and publish each
// demand once placed. A fill's outcome depends only on the residuals of the
// links it scanned, so a scenario with no entry on the links scenario 0's
// fill scanned fills exactly as scenario 0 did and is not visited. The other
// items, one per (realization, group), follow their chain demand by demand:
// each fills only the group's scenarios set on a scanned link, over scenario
// 0's pre-placement residuals with its own entries on top, and re-derives
// their entries where either fill wrote. Snapshots copy the sparse state.
//
// stage() replays an edited history into a scratch state and rewrites the
// snapshots behind its restore points. They stay provisional: the Edit it
// returns drops them unless committed (a rejected resize, a window that
// throws), so no snapshot describes a history that was not committed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "risk/simulator.h"
#include "risk/sparse_residuals.h"
#include "topology/routing.h"

namespace netent::service {

/// Runtime handle of an admitted contract (EntitlementContract::id).
using ContractId = std::uint64_t;

class ResidualHistory {
 public:
  /// One committed demand and the contract it belongs to.
  struct TaggedDemand {
    topology::Demand demand;
    ContractId owner = 0;
  };
  /// Per realization, the committed demands in commit order.
  using History = std::vector<std::vector<TaggedDemand>>;
  /// One realization's residuals.
  using Residuals = risk::SparseResiduals;
  /// Every realization's residuals as dense [realization][scenario][link]
  /// cells: the oracle comparisons' form.
  using ResidualState = std::vector<std::vector<std::vector<double>>>;
  /// Work of the edits so far (appends are not edits), in placements: the
  /// demands replayed times the scenario count, in total and for the largest,
  /// and the placements actually made (`cells`: one per demand in scenario 0,
  /// plus one per other scenario that differed on a link it scanned).
  struct ReplayStats {
    std::uint64_t placements = 0;
    std::uint64_t largest = 0;
    std::uint64_t cells = 0;
  };
  static constexpr std::size_t kSnapshots = 8;  ///< most snapshots per realization
  class Edit;

  /// `realizations` empty histories over `simulator`'s scenarios on
  /// `router`'s network, both read at every replay and outliving the type.
  ResidualHistory(const topology::Router& router, const risk::RiskSimulator& simulator,
                  std::size_t realizations, std::size_t threads);
  ResidualHistory(const ResidualHistory&) = delete;
  ~ResidualHistory();

  /// Appends batch[k] to realization k's history and places it.
  void append(const History& batch);
  /// Stages `edited`, which agrees with the history on each realization's
  /// first same[k] demands; one edit is staged at a time. Throws, dropping
  /// what it wrote, when a demand's pair is not warmed in the router.
  [[nodiscard]] Edit stage(History edited, std::span<const std::size_t> same);
  /// The residuals stage() would give `edited`, leaving the snapshots alone:
  /// a what-if that cannot be committed, valid until the next probe or stage.
  [[nodiscard]] const std::vector<Residuals>& probe(const History& edited,
                                                    std::span<const std::size_t> same);
  /// Frees every snapshot before the network changes, so none of the old
  /// network survives a change that fails half way; once it has changed,
  /// replay_all() replays the whole history over it.
  void network_changing();
  void replay_all();

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] const Residuals& residuals(std::size_t k) const { return state_[k]; }
  /// The live state materialized: what rebuild_from_scratch() must equal.
  [[nodiscard]] ResidualState residuals() const;
  /// The oracle: the live state recomputed from the history alone.
  [[nodiscard]] ResidualState rebuild_from_scratch() const;
  [[nodiscard]] ReplayStats replay_stats() const { return replay_stats_; }
  /// Per realization, the ascending history positions of the snapshots.
  [[nodiscard]] std::vector<std::vector<std::size_t>> snapshot_positions() const;

  /// Removes `owners`' demands from `history`, keeping the rest in order,
  /// and returns per realization the first edited position.
  static std::vector<std::size_t> prune(History& history, const std::set<ContractId>& owners);

 private:
  /// The state after the first `position` demands; position 0 marks a free
  /// slot that keeps its buffers.
  struct Snapshot {
    std::size_t position = 0;
    Residuals state;
  };
  /// How one realization replays: the position it starts placing at, the
  /// snapshot it restores from (null: the scenario capacities), and the
  /// snapshots it fills as it passes each one's position.
  struct Plan {
    std::size_t start = 0;
    const Snapshot* from = nullptr;
    std::vector<std::pair<std::size_t, Snapshot*>> writes;
  };
  /// One fan-out worker's scratch.
  struct PlaceScratch;
  /// One demand as scenario 0 placed it, and a realization's run of them.
  struct Placed;
  struct Chain;

  /// Replays `history` into scratch_state_ from the newest snapshots at or
  /// before `same`, with `rewrite` making the snapshots behind them
  /// provisional.
  void replay_edit(const History& history, std::span<const std::size_t> same, bool rewrite);
  /// The one replay, as one fan-out. Item k < realizations restores
  /// realization k's scenario 0 per plans[k] (or, without `restore`,
  /// continues from states[k]) and places the rest of its history there,
  /// publishing each demand. Each later item, one per (realization, group),
  /// restores its group and places the demands in the group's scenarios as
  /// its chain publishes them. A chain that throws lets its groups go, and
  /// its exception is rethrown. Returns the work.
  ReplayStats replay(const History& history, std::span<const Plan> plans, bool restore,
                     std::vector<Residuals>& states);
  /// The residuals of an empty history: the scenario capacities.
  [[nodiscard]] Residuals empty_state() const;
  /// Places one demand in scenario 0 over `base`, which scratch.pre must
  /// equal, and records in `chain` and `placed` (its local paths and records
  /// already set) what the groups need.
  void place_first(const topology::Demand& demand, std::vector<double>& base, Chain& chain,
                   Placed& placed, PlaceScratch& scratch) const;
  /// Places `placed` in `group`'s scenarios that differ from scenario 0 on a
  /// link scenario 0's fill scanned, and returns how many there were.
  static std::uint64_t place_group(const Chain& chain, const Placed& placed,
                                   Residuals::Group& group, PlaceScratch& scratch);
  /// Frees realization k's snapshots past `kept` or off the stride for
  /// `length` demands, and claims one per stride position in (kept, length].
  std::vector<std::pair<std::size_t, Snapshot*>> plan_snapshots(std::size_t k, std::size_t kept,
                                                                std::size_t length);
  /// Frees every snapshot past the pending restore points.
  void drop_provisional();

  const topology::Router& router_;
  const risk::RiskSimulator& simulator_;
  std::size_t threads_;
  History history_;
  std::vector<Residuals> state_;          ///< [realization]
  std::vector<Residuals> scratch_state_;  ///< the staged edit's or the probe's
  std::vector<PlaceScratch> place_scratch_;  ///< per fan-out worker slot, kept across replays
  /// One per realization, kept across replays so their records' buffers are.
  std::vector<Chain> chains_;
  std::vector<std::array<Snapshot, kSnapshots>> snapshots_;  ///< [realization]
  /// Restore points of the staged edit, per realization (empty: none).
  std::vector<std::size_t> provisional_;
  ReplayStats replay_stats_;
  obs::Counter& replayed_;       ///< service.admission.replayed_placements
  obs::Histogram& edit_seconds_;  ///< service.admission.stage.edit_replay_seconds
};

/// A staged edit's history and residuals, until commit() makes them live.
class ResidualHistory::Edit {
 public:
  Edit(Edit&& other) noexcept
      : owner_(std::exchange(other.owner_, nullptr)), history_(std::move(other.history_)) {}
  ~Edit() {
    if (owner_ != nullptr) owner_->drop_provisional();
  }

  [[nodiscard]] const Residuals& residuals(std::size_t k) const {
    return owner_->scratch_state_[k];
  }
  void commit();

 private:
  friend class ResidualHistory;
  Edit(ResidualHistory& owner, History history) : owner_(&owner), history_(std::move(history)) {}

  ResidualHistory* owner_;
  History history_;
};

}  // namespace netent::service
