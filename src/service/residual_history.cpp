#include "service/residual_history.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/timer.h"

namespace netent::service {

struct ResidualHistory::PlaceScratch {
  /// The demand's candidate paths over local link indices, so the other
  /// scenarios fill over a few residuals of their own.
  struct LocalPaths {
    struct View {
      std::span<const LinkId> links;
    };
    std::vector<LinkId> links;         ///< every path's local links, path after path
    std::vector<std::size_t> offsets;  ///< per path, its first; then the end
    [[nodiscard]] std::size_t size() const { return offsets.size() - 1; }
    [[nodiscard]] View operator[](std::size_t p) const {
      return {std::span<const LinkId>(links).subspan(offsets[p], offsets[p + 1] - offsets[p])};
    }
  };
  /// A change that adds or drops an entry, applied once every fill is done.
  struct Update {
    std::size_t bit = 0;
    std::size_t local = 0;
    double residual = 0.0;
  };
  struct Local {
    std::vector<std::uint32_t> links;  ///< [local]: the link
    LocalPaths paths;
  };

  /// The demand pair's candidate paths over local links, built once.
  const Local& localize(const topology::Demand& demand, const topology::PathList& paths) {
    const std::uint64_t pair = (std::uint64_t{demand.src.value()} << 32) | demand.dst.value();
    auto [it, inserted] = local.try_emplace(pair);
    Local& built = it->second;
    if (!inserted) return built;
    built.paths.offsets.assign(1, 0);
    for (const topology::PathView path : paths) {
      for (const LinkId lid : path.links) {
        const auto at = std::find(built.links.begin(), built.links.end(), lid.value());
        built.paths.links.emplace_back(static_cast<std::uint32_t>(at - built.links.begin()));
        if (at == built.links.end()) built.links.push_back(lid.value());
      }
      built.paths.offsets.push_back(built.paths.links.size());
    }
    return built;
  }

  /// By (src, dst) pair; cleared when the network changes.
  std::unordered_map<std::uint64_t, Local> local;
  std::vector<double> pre;              ///< scenario 0's residuals before the demand, [link]
  std::vector<std::pair<LinkId, double>> written;  ///< scenario 0's fill's writes
  std::vector<std::uint64_t> bits;      ///< the group's bitset on each local link
  std::vector<double*> values;          ///< and its residuals there
  std::vector<double> residual;         ///< one dirty scenario's, [local]
  std::vector<double*> slot;            ///< its entries, [local] (null: none)
  std::vector<Update> updates;
};

/// One demand as scenario 0 placed it: what the groups' fills read.
struct ResidualHistory::Placed {
  const PlaceScratch::Local* local = nullptr;  ///< its candidate paths over local links
  double amount = 0.0;
  std::size_t scanned = 0;  ///< paths scenario 0's fill scanned
  std::size_t first = 0;    ///< its local links' residuals in Chain::before and ::after
};

/// One realization's scenario-0 chain over the replayed demands. Its records
/// are sized before the first publish, so its groups read them as it goes;
/// on cache lines of its own, as its progress is written per demand.
struct alignas(64) ResidualHistory::Chain {
  static constexpr std::uint32_t kAborted = std::numeric_limits<std::uint32_t>::max();
  std::vector<Placed> placed;
  std::vector<double> before;         ///< scenario 0's residual on each local link, before
  std::vector<double> after;          ///< and after the demand
  /// 0 until the base is restored, then 1 + the demands placed; kAborted
  /// once the chain threw. Reset to 0 before each replay's fan-out.
  std::atomic<std::uint32_t> progress{0};

  /// Tells the groups the base is restored and `count` demands are placed.
  void publish(std::size_t count) { set(static_cast<std::uint32_t>(count) + 1); }
  void abort() { set(kAborted); }
  void set(std::uint32_t value) {
    progress.store(value, std::memory_order_release);
    progress.notify_all();  // a syscall only while a group waits
  }
  /// Waits (spinning briefly, then blocking) until the base is restored and
  /// `count` demands are placed; false if the chain threw instead.
  bool follow(std::size_t count) const {
    std::uint32_t seen = progress.load(std::memory_order_acquire);
    while (seen <= count) {
      progress.wait(seen, std::memory_order_acquire);
      seen = progress.load(std::memory_order_acquire);
    }
    return seen != kAborted;
  }
};

ResidualHistory::ResidualHistory(const topology::Router& router,
                                 const risk::RiskSimulator& simulator, std::size_t realizations,
                                 std::size_t threads)
    : router_(router),
      simulator_(simulator),
      threads_(threads),
      history_(realizations),
      chains_(realizations),
      snapshots_(realizations),
      replayed_(obs::Registry::global().counter("service.admission.replayed_placements")),
      edit_seconds_(
          obs::Registry::global().timer_histogram("service.admission.stage.edit_replay_seconds")) {
  const std::vector<Plan> plans(realizations);
  (void)replay(history_, plans, /*restore=*/true, state_);
}

ResidualHistory::~ResidualHistory() = default;

void ResidualHistory::append(const History& batch) {
  NETENT_EXPECTS(provisional_.empty() && batch.size() == history_.size());
  std::vector<Plan> plans(batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    plans[k].start = history_[k].size();
    history_[k].insert(history_[k].end(), batch[k].begin(), batch[k].end());
    plans[k].writes = plan_snapshots(k, plans[k].start, history_[k].size());
    provisional_.push_back(plans[k].start);
  }
  try {
    (void)replay(history_, plans, /*restore=*/false, state_);
  } catch (...) {
    drop_provisional();
    throw;
  }
  provisional_.clear();
}

ResidualHistory::Edit ResidualHistory::stage(History edited, std::span<const std::size_t> same) {
  NETENT_EXPECTS(provisional_.empty());  // one staged edit at a time
  Edit edit(*this, std::move(edited));
  replay_edit(edit.history_, same, /*rewrite=*/true);
  return edit;
}

const std::vector<ResidualHistory::Residuals>& ResidualHistory::probe(
    const History& edited, std::span<const std::size_t> same) {
  NETENT_EXPECTS(provisional_.empty());  // a staged edit's residuals live in scratch_state_
  replay_edit(edited, same, /*rewrite=*/false);
  return scratch_state_;
}

void ResidualHistory::network_changing() {
  provisional_.assign(history_.size(), 0);
  drop_provisional();
  place_scratch_.clear();  // its local paths are the old network's
}

void ResidualHistory::replay_all() {
  stage(history_, std::vector<std::size_t>(history_.size(), 0)).commit();
}

void ResidualHistory::Edit::commit() {
  NETENT_EXPECTS(owner_ != nullptr);
  ResidualHistory& owner = *std::exchange(owner_, nullptr);
  owner.history_ = std::move(history_);
  std::swap(owner.state_, owner.scratch_state_);
  owner.provisional_.clear();
}

ResidualHistory::ResidualState ResidualHistory::residuals() const {
  const std::size_t scenario_count = simulator_.scenarios().size();
  ResidualState dense;
  for (const Residuals& state : state_) dense.push_back(state.dense(scenario_count));
  return dense;
}

ResidualHistory::ResidualState ResidualHistory::rebuild_from_scratch() const {
  // Dense and per cell, sharing nothing with replay() but the fill.
  const std::span<const risk::FailureScenario> scenarios = simulator_.scenarios();
  const std::size_t scenario_count = scenarios.size();
  std::uint64_t placements = 0;
  for (const auto& demands : history_) placements += scenario_count * demands.size();
  ResidualState state(history_.size(), std::vector<std::vector<double>>(scenario_count));
  fan_out(threads_, history_.size() * scenario_count, placements,
          [&](std::size_t /*worker*/, std::size_t c) {
            const std::size_t k = c / scenario_count;
            const std::size_t s = c % scenario_count;
            std::vector<double>& residual = state[k][s];
            residual = risk::scenario_capacities(simulator_.srlg_index(),
                                                 router_.full_capacities(), scenarios[s]);
            for (const TaggedDemand& tagged : history_[k]) {
              const topology::PathList paths =
                  router_.cached_paths(tagged.demand.src, tagged.demand.dst);
              NETENT_EXPECTS(paths.valid());
              (void)topology::water_fill_demand(tagged.demand.amount.value(), paths, residual, {});
            }
          });
  return state;
}

std::vector<std::vector<std::size_t>> ResidualHistory::snapshot_positions() const {
  std::vector<std::vector<std::size_t>> positions(snapshots_.size());
  for (std::size_t k = 0; k < snapshots_.size(); ++k) {
    for (const Snapshot& snapshot : snapshots_[k]) {
      if (snapshot.position != 0) positions[k].push_back(snapshot.position);
    }
    std::sort(positions[k].begin(), positions[k].end());
  }
  return positions;
}

std::vector<std::size_t> ResidualHistory::prune(History& history,
                                                const std::set<ContractId>& owners) {
  std::vector<std::size_t> same(history.size());
  for (std::size_t k = 0; k < history.size(); ++k) {
    std::vector<TaggedDemand>& demands = history[k];
    const auto owned = [&](const TaggedDemand& tagged) { return owners.count(tagged.owner) != 0; };
    same[k] = static_cast<std::size_t>(
        std::find_if(demands.begin(), demands.end(), owned) - demands.begin());
    std::erase_if(demands, owned);
  }
  return same;
}

void ResidualHistory::replay_edit(const History& history, std::span<const std::size_t> same,
                                  bool rewrite) {
  NETENT_EXPECTS(history.size() == history_.size() && same.size() == history.size());
  const obs::ScopedTimer span(edit_seconds_);
  std::vector<Plan> plans(history.size());
  for (std::size_t k = 0; k < history.size(); ++k) {
    Plan& plan = plans[k];
    for (const Snapshot& snapshot : snapshots_[k]) {
      if (snapshot.position > plan.start && snapshot.position <= same[k]) {
        plan.start = snapshot.position;
        plan.from = &snapshot;
      }
    }
    if (!rewrite) continue;
    // The restore snapshot may be freed and claimed again here: each of its
    // realization's items copies its part before writing any rewrite.
    plan.writes = plan_snapshots(k, plan.start, history[k].size());
    provisional_.push_back(plan.start);
  }
  const ReplayStats work = replay(history, plans, /*restore=*/true, scratch_state_);
  replay_stats_.placements += work.placements;
  replay_stats_.largest = std::max(replay_stats_.largest, work.placements);
  replay_stats_.cells += work.cells;
  replayed_.add(work.placements);
}

ResidualHistory::ReplayStats ResidualHistory::replay(const History& history,
                                                     std::span<const Plan> plans, bool restore,
                                                     std::vector<Residuals>& states) {
  const std::size_t realizations = history.size();
  const std::size_t scenario_count = simulator_.scenarios().size();
  const std::size_t groups = Residuals::group_count(scenario_count);
  ReplayStats work;
  std::size_t replayed = 0;  // scenario 0's fills, one per replayed demand
  bool from_capacities = false;
  for (std::size_t k = 0; k < realizations; ++k) {
    replayed += history[k].size() - plans[k].start;
    from_capacities = from_capacities || (restore && plans[k].from == nullptr);
  }
  work.placements = scenario_count * replayed;
  work.largest = work.placements;
  states.resize(realizations);
  const Residuals empty = from_capacities ? empty_state() : Residuals{};
  if (restore) {
    for (Residuals& state : states) state.groups.resize(groups);
  }
  const std::size_t items = realizations * (1 + groups);
  place_scratch_.resize(
      std::max(place_scratch_.size(), fan_out_width(threads_, items, work.placements)));

  // Items [0, realizations) are the scenario-0 chains; then one item per
  // (realization, group of 64) follows its chain demand by demand. Every
  // chain is claimed before any group (inline: has ended), so a group waits
  // only on a running chain; its progress is reset here, so no group reads
  // the last replay's. Each item restores its part of the state before
  // writing any snapshot: the restore snapshot may be claimed for one.
  for (Chain& chain : chains_) chain.progress.store(0, std::memory_order_relaxed);
  std::vector<std::uint64_t> cells(items, 0);
  fan_out(threads_, items, work.placements, [&](std::size_t worker, std::size_t item) {
    const std::size_t k = item < realizations ? item : (item - realizations) / groups;
    const Plan& plan = plans[k];
    const Residuals& from = plan.from != nullptr ? plan.from->state : empty;
    const auto demands = std::span<const TaggedDemand>(history[k]).subspan(plan.start);
    Chain& chain = chains_[k];
    PlaceScratch& scratch = place_scratch_[worker];
    auto write = plan.writes.begin();
    if (item < realizations) {
      try {
        std::vector<double>& base = states[k].base;
        if (restore) base = from.base;
        scratch.pre = base;
        chain.placed.resize(demands.size());
        std::size_t records = 0;
        for (std::size_t j = 0; j < demands.size(); ++j) {
          const topology::Demand& demand = demands[j].demand;
          const topology::PathList paths = router_.cached_paths(demand.src, demand.dst);
          NETENT_EXPECTS(paths.valid());
          chain.placed[j] = {.local = &scratch.localize(demand, paths),
                             .amount = demand.amount.value(),
                             .first = records};
          records += chain.placed[j].local->links.size();
        }
        chain.before.resize(records);
        chain.after.resize(records);
        chain.publish(0);
        for (std::size_t j = 0; j < demands.size(); ++j) {
          place_first(demands[j].demand, base, chain, chain.placed[j], scratch);
          if (write != plan.writes.end() && write->first == plan.start + j + 1) {
            (write++)->second->state.base = base;
          }
          chain.publish(j + 1);
        }
      } catch (...) {
        chain.abort();
        throw;
      }
      cells[item] = demands.size();
      return;
    }
    const std::size_t g = (item - realizations) % groups;
    Residuals::Group& group = states[k].groups[g];
    if (restore) group = from.groups[g];
    std::uint64_t placed = 0;  // counted here: cells[] shares cache lines
    for (std::size_t j = 0; j < demands.size(); ++j) {
      if (!chain.follow(j + 1)) return;
      placed += place_group(chain, chain.placed[j], group, scratch);
      if (write != plan.writes.end() && write->first == plan.start + j + 1) {
        (write++)->second->state.groups[g] = group;
      }
    }
    cells[item] = placed;
  });
  work.cells = std::accumulate(cells.begin(), cells.end(), std::uint64_t{0});
  return work;
}

ResidualHistory::Residuals ResidualHistory::empty_state() const {
  const std::span<const risk::FailureScenario> scenarios = simulator_.scenarios();
  const std::span<const double> capacity = router_.full_capacities();
  Residuals state;
  state.base = risk::scenario_capacities(simulator_.srlg_index(), capacity, scenarios[0]);
  state.groups.resize(Residuals::group_count(scenarios.size()));
  for (Residuals::Group& group : state.groups) {
    group.differs.assign(capacity.size(), 0);
    group.values.resize(capacity.size());
  }
  risk::ScenarioCapacityScratch scenario_capacity(simulator_.srlg_index(), capacity);
  for (std::size_t s = 1; s < scenarios.size(); ++s) {
    const std::span<const double> residual = scenario_capacity.apply(scenarios[s]);
    Residuals::Group& group = state.groups[s / Residuals::kGroup];
    for (std::size_t link = 0; link < residual.size(); ++link) {
      if (Residuals::same_bits(residual[link], state.base[link])) continue;
      group.differs[link] |= std::uint64_t{1} << (s % Residuals::kGroup);
      group.values[link].push_back(residual[link]);
    }
  }
  return state;
}

void ResidualHistory::place_first(const topology::Demand& demand, std::vector<double>& base,
                                  Chain& chain, Placed& placed, PlaceScratch& scratch) const {
  scratch.written.clear();
  (void)topology::water_fill_demand(placed.amount, router_.cached_paths(demand.src, demand.dst),
                                    base, {}, &scratch.written, &placed.scanned);
  const std::vector<std::uint32_t>& links = placed.local->links;
  for (std::size_t i = 0; i < links.size(); ++i) {
    chain.before[placed.first + i] = scratch.pre[links[i]];
    chain.after[placed.first + i] = base[links[i]];
  }
  for (const auto& [lid, amount] : scratch.written) scratch.pre[lid.value()] = base[lid.value()];
}

std::uint64_t ResidualHistory::place_group(const Chain& chain, const Placed& placed,
                                           Residuals::Group& group, PlaceScratch& scratch) {
  // Scenario 0's outcome is a function of the residuals on the links it
  // scanned, so a scenario with no entry there filled exactly as it did.
  const PlaceScratch::Local& local = *placed.local;
  const std::vector<std::uint32_t>& links = local.links;
  std::uint64_t dirty = 0;
  for (std::size_t p = 0; p < placed.scanned; ++p) {
    for (const LinkId i : local.paths[p].links) dirty |= group.differs[links[i.value()]];
  }
  if (dirty == 0) return 0;
  const std::size_t n = links.size();
  const std::span<const double> before(chain.before.data() + placed.first, n);
  const std::span<const double> after(chain.after.data() + placed.first, n);

  // Each over scenario 0's pre-placement residuals with its own entries on
  // top. Its entries change where its fill wrote, and where scenario 0's
  // did: there it keeps its old residual, which may now differ.
  scratch.bits.resize(n);
  scratch.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.bits[i] = group.differs[links[i]];
    scratch.values[i] = group.values[links[i]].data();
  }
  scratch.slot.resize(n);
  scratch.residual.resize(n);
  scratch.updates.clear();
  std::uint64_t cells = 0;
  for (std::uint64_t word = dirty; word != 0; word &= word - 1, ++cells) {
    const auto bit = static_cast<std::size_t>(std::countr_zero(word));
    for (std::size_t i = 0; i < n; ++i) {
      double* const slot = ((scratch.bits[i] >> bit) & 1U) != 0
                               ? scratch.values[i] + Residuals::rank(scratch.bits[i], bit)
                               : nullptr;
      scratch.slot[i] = slot;
      scratch.residual[i] = slot != nullptr ? *slot : before[i];
    }
    (void)topology::water_fill_demand(placed.amount, local.paths, scratch.residual, {});
    for (std::size_t i = 0; i < n; ++i) {
      const double residual = scratch.residual[i];
      double* const slot = scratch.slot[i];
      const bool moved = !Residuals::same_bits(residual, slot != nullptr ? *slot : before[i]);
      if (!moved && Residuals::same_bits(before[i], after[i])) continue;
      const bool differs = !Residuals::same_bits(residual, after[i]);
      if (slot != nullptr && differs) {
        *slot = residual;
      } else if (slot != nullptr || differs) {
        scratch.updates.push_back({bit, i, residual});
      }
    }
  }
  for (const PlaceScratch::Update& update : scratch.updates) {
    group.set(update.bit, links[update.local], update.residual, after[update.local]);
  }
  return cells;
}

std::vector<std::pair<std::size_t, ResidualHistory::Snapshot*>> ResidualHistory::plan_snapshots(
    std::size_t k, std::size_t kept, std::size_t length) {
  // The smallest power of two leaving at most kSnapshots positions in
  // (0, length]: the kept snapshots and the claimed ones sit on distinct
  // multiples of it, so the slots never run out.
  std::size_t stride = 1;
  while (length / stride > kSnapshots) stride *= 2;
  std::array<Snapshot, kSnapshots>& slots = snapshots_[k];
  for (Snapshot& snapshot : slots) {
    if (snapshot.position > kept || snapshot.position % stride != 0) snapshot.position = 0;
  }
  const std::size_t groups = Residuals::group_count(simulator_.scenarios().size());
  std::vector<std::pair<std::size_t, Snapshot*>> writes;
  auto free_slot = slots.begin();
  for (std::size_t position = (kept / stride + 1) * stride; position <= length;
       position += stride) {
    free_slot = std::find_if(free_slot, slots.end(),
                             [](const Snapshot& snapshot) { return snapshot.position == 0; });
    NETENT_ENSURES(free_slot != slots.end());
    free_slot->position = position;
    free_slot->state.groups.resize(groups);  // each group's item writes its own
    writes.emplace_back(position, &*free_slot);
  }
  return writes;
}

void ResidualHistory::drop_provisional() {
  for (std::size_t k = 0; k < provisional_.size(); ++k) {
    for (Snapshot& snapshot : snapshots_[k]) {
      if (snapshot.position > provisional_[k]) snapshot.position = 0;
    }
  }
  provisional_.clear();
}

}  // namespace netent::service
