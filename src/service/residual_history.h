// The admission service's residual state (§4.3's strict-priority risk
// assessment, kept across requests for §5's agility): per (realization k,
// failure scenario s), the per-link capacities left after placing
// realization k's committed demands under scenario s, in commit order,
// through water_fill_demand. Appends place only the new demands. Edits
// (releases, resizes, topology re-verification) change the middle of the
// history, and water-filling is order-sensitive, so they replay the suffix
// behind the first edited demand from the newest of at most kSnapshots
// prefix states per realization, kept at multiples of a power-of-two stride
// sized to the history. Appends and edits share one per-cell replay, so the
// state is bit-identical to a from-scratch rebuild at any thread count.
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
  /// One realization's residuals, [scenario][link].
  using Residuals = std::vector<std::vector<double>>;
  using ResidualState = std::vector<Residuals>;  ///< [realization]
  /// Work of the edits so far (appends are not edits), in placements: the
  /// demands replayed times the scenario count, in total and for the largest.
  struct ReplayStats {
    std::uint64_t placements = 0;
    std::uint64_t largest = 0;
  };
  static constexpr std::size_t kSnapshots = 8;  ///< most snapshots per realization
  class Edit;

  /// `realizations` empty histories over `simulator`'s scenarios on
  /// `router`'s network, both read at every replay and outliving the type.
  ResidualHistory(const topology::Router& router, const risk::RiskSimulator& simulator,
                  std::size_t realizations, std::size_t threads);
  ResidualHistory(const ResidualHistory&) = delete;

  /// Appends batch[k] to realization k's history and places it.
  void append(const History& batch);
  /// Stages `edited`, which agrees with the history on each realization's
  /// first same[k] demands; one edit is staged at a time. Throws, dropping
  /// what it wrote, when a demand's pair is not warmed in the router.
  [[nodiscard]] Edit stage(History edited, std::span<const std::size_t> same);
  /// The residuals stage() would give `edited`, leaving the snapshots alone:
  /// a what-if that cannot be committed, valid until the next probe or stage.
  [[nodiscard]] const ResidualState& probe(const History& edited,
                                           std::span<const std::size_t> same);
  /// Frees every snapshot before the network changes, so none of the old
  /// network survives a change that fails half way; once it has changed,
  /// replay_all() replays the whole history over it.
  void network_changing();
  void replay_all();

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] const ResidualState& residuals() const { return residual_; }
  [[nodiscard]] const Residuals& residuals(std::size_t k) const { return residual_[k]; }
  /// The oracle: the live state recomputed from the history alone.
  [[nodiscard]] ResidualState rebuild_from_scratch() const;
  [[nodiscard]] ReplayStats replay_stats() const { return replay_stats_; }
  /// Per realization, the ascending history positions of the snapshots.
  [[nodiscard]] std::vector<std::vector<std::size_t>> snapshot_positions() const;

  /// Removes `owners`' demands from `history`, keeping the rest in order,
  /// and returns per realization the first edited position.
  static std::vector<std::size_t> prune(History& history, const std::set<ContractId>& owners);

 private:
  /// The flat [scenario * links + link] residuals after the first
  /// `position` demands; position 0 marks a free slot that keeps its buffer.
  struct Snapshot {
    std::size_t position = 0;
    std::vector<double> residuals;
  };
  /// How one realization's cells replay: the position they start placing
  /// at, the snapshot they restore from (null: the scenario capacities), and
  /// the snapshots they fill as they pass each one's position.
  struct CellPlan {
    std::size_t start = 0;
    const Snapshot* from = nullptr;
    std::vector<std::pair<std::size_t, Snapshot*>> writes;
  };

  /// Replays `history` into scratch_ from the newest snapshots at or before
  /// `same`, with `rewrite` making the snapshots behind them provisional.
  void replay_edit(const History& history, std::span<const std::size_t> same, bool rewrite);
  /// The one per-cell replay: each cell of `out` restores per plans[k] (or,
  /// without `restore`, continues from its own state) and places the rest.
  /// Returns the placements made.
  std::uint64_t replay(const History& history, std::span<const CellPlan> plans, bool restore,
                       ResidualState& out) const;
  /// Frees realization k's snapshots past `kept` or off the stride for
  /// `length` demands, and claims one per stride position in (kept, length].
  std::vector<std::pair<std::size_t, Snapshot*>> plan_snapshots(std::size_t k, std::size_t kept,
                                                                std::size_t length);
  /// Frees every snapshot past the pending restore points.
  void drop_provisional();
  void place(std::span<const TaggedDemand> demands, std::vector<double>& residual) const;

  const topology::Router& router_;
  const risk::RiskSimulator& simulator_;
  std::size_t threads_;
  History history_;
  ResidualState residual_;
  ResidualState scratch_;  ///< the staged edit's or the probe's residuals
  std::vector<std::array<Snapshot, kSnapshots>> snapshots_;  ///< [realization]
  /// Restore points of the staged edit, per realization (empty: none).
  std::vector<std::size_t> provisional_;
  ReplayStats replay_stats_;
  obs::Counter& replayed_;  ///< service.admission.replayed_placements
};

/// A staged edit's history and residuals, until commit() makes them live.
class ResidualHistory::Edit {
 public:
  Edit(Edit&& other) noexcept
      : owner_(std::exchange(other.owner_, nullptr)), history_(std::move(other.history_)) {}
  ~Edit() {
    if (owner_ != nullptr) owner_->drop_provisional();
  }

  [[nodiscard]] const Residuals& residuals(std::size_t k) const { return owner_->scratch_[k]; }
  void commit();

 private:
  friend class ResidualHistory;
  Edit(ResidualHistory& owner, History history) : owner_(&owner), history_(std::move(history)) {}

  ResidualHistory* owner_;
  History history_;
};

}  // namespace netent::service
