#include "service/residual_history.h"

#include <algorithm>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"
#include "common/thread_pool.h"

namespace netent::service {

namespace {

/// Copies one cell's residuals into its snapshot slice. Where SSE2 is
/// available the stores stream past the caches: an edit rewrites megabytes
/// of snapshots that nothing reads until a later edit restores from them,
/// and cached stores would evict the residual state the next window reads.
/// The fence orders the streamed stores before the fan-out's completion
/// publishes the snapshot.
void store_snapshot(std::span<const double> residual, double* slice) {
#if defined(__SSE2__)
  std::size_t i = 0;
  if (reinterpret_cast<std::uintptr_t>(slice) % 16 != 0 && !residual.empty()) {
    slice[0] = residual[0];  // align the streamed pairs
    i = 1;
  }
  for (; i + 2 <= residual.size(); i += 2) {
    _mm_stream_pd(slice + i, _mm_loadu_pd(residual.data() + i));
  }
  if (i < residual.size()) slice[i] = residual[i];
  _mm_sfence();
#else
  std::copy(residual.begin(), residual.end(), slice);
#endif
}

}  // namespace

ResidualHistory::ResidualHistory(const topology::Router& router,
                                 const risk::RiskSimulator& simulator, std::size_t realizations,
                                 std::size_t threads)
    : router_(router),
      simulator_(simulator),
      threads_(threads),
      history_(realizations),
      snapshots_(realizations),
      replayed_(obs::Registry::global().counter("service.admission.replayed_placements")) {
  residual_ = rebuild_from_scratch();
}

void ResidualHistory::append(const History& batch) {
  NETENT_EXPECTS(provisional_.empty() && batch.size() == history_.size());
  std::vector<CellPlan> plans(batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    plans[k].start = history_[k].size();
    history_[k].insert(history_[k].end(), batch[k].begin(), batch[k].end());
    plans[k].writes = plan_snapshots(k, plans[k].start, history_[k].size());
    provisional_.push_back(plans[k].start);
  }
  try {
    (void)replay(history_, plans, /*restore=*/false, residual_);
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

const ResidualHistory::ResidualState& ResidualHistory::probe(const History& edited,
                                                             std::span<const std::size_t> same) {
  NETENT_EXPECTS(provisional_.empty());  // a staged edit's residuals live in scratch_
  replay_edit(edited, same, /*rewrite=*/false);
  return scratch_;
}

void ResidualHistory::network_changing() {
  provisional_.assign(history_.size(), 0);
  drop_provisional();
}

void ResidualHistory::replay_all() {
  stage(history_, std::vector<std::size_t>(history_.size(), 0)).commit();
}

void ResidualHistory::Edit::commit() {
  NETENT_EXPECTS(owner_ != nullptr);
  ResidualHistory& owner = *std::exchange(owner_, nullptr);
  owner.history_ = std::move(history_);
  std::swap(owner.residual_, owner.scratch_);
  owner.provisional_.clear();
}

ResidualHistory::ResidualState ResidualHistory::rebuild_from_scratch() const {
  std::vector<CellPlan> plans(history_.size());
  ResidualState state;
  (void)replay(history_, plans, /*restore=*/true, state);
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
  std::vector<CellPlan> plans(history.size());
  for (std::size_t k = 0; k < history.size(); ++k) {
    CellPlan& plan = plans[k];
    for (const Snapshot& snapshot : snapshots_[k]) {
      if (snapshot.position > plan.start && snapshot.position <= same[k]) {
        plan.start = snapshot.position;
        plan.from = &snapshot;
      }
    }
    if (!rewrite) continue;
    // The restore snapshot may be freed and claimed again here: each cell
    // reads its own slice of it before writing any slice of the rewrites.
    plan.writes = plan_snapshots(k, plan.start, history[k].size());
    provisional_.push_back(plan.start);
  }
  const std::uint64_t placements = replay(history, plans, /*restore=*/true, scratch_);
  replay_stats_.placements += placements;
  replay_stats_.largest = std::max(replay_stats_.largest, placements);
  replayed_.add(placements);
}

std::uint64_t ResidualHistory::replay(const History& history, std::span<const CellPlan> plans,
                                      bool restore, ResidualState& out) const {
  const std::span<const risk::FailureScenario> scenarios = simulator_.scenarios();
  const std::size_t scenario_count = scenarios.size();
  const std::span<const double> base_capacity = router_.full_capacities();
  std::uint64_t placements = 0;
  for (std::size_t k = 0; k < history.size(); ++k) {
    placements += scenario_count * (history[k].size() - plans[k].start);
  }
  out.resize(history.size());
  for (Residuals& cells : out) cells.resize(scenario_count);
  fan_out(threads_, history.size() * scenario_count, placements,
          [&](std::size_t /*worker*/, std::size_t c) {
            const std::size_t k = c / scenario_count;
            const std::size_t s = c % scenario_count;
            const CellPlan& plan = plans[k];
            std::vector<double>& residual = out[k][s];
            if (restore && plan.from == nullptr) {
              residual = risk::scenario_capacities(simulator_.srlg_index(), base_capacity,
                                                   scenarios[s]);
            } else if (restore) {
              const auto slice = plan.from->residuals.begin() +
                                 static_cast<std::ptrdiff_t>(s * base_capacity.size());
              residual.assign(slice, slice + static_cast<std::ptrdiff_t>(base_capacity.size()));
            }
            const std::span<const TaggedDemand> demands = history[k];
            std::size_t start = plan.start;
            for (const auto& [position, slot] : plan.writes) {
              place(demands.subspan(start, position - start), residual);
              store_snapshot(residual, slot->residuals.data() + s * residual.size());
              start = position;
            }
            place(demands.subspan(start), residual);
          });
  return placements;
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
  const std::size_t size = simulator_.scenarios().size() * router_.full_capacities().size();
  std::vector<std::pair<std::size_t, Snapshot*>> writes;
  auto free_slot = slots.begin();
  for (std::size_t position = (kept / stride + 1) * stride; position <= length;
       position += stride) {
    free_slot = std::find_if(free_slot, slots.end(),
                             [](const Snapshot& snapshot) { return snapshot.position == 0; });
    NETENT_ENSURES(free_slot != slots.end());
    free_slot->position = position;
    free_slot->residuals.resize(size);
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

void ResidualHistory::place(std::span<const TaggedDemand> demands,
                            std::vector<double>& residual) const {
  for (const TaggedDemand& tagged : demands) {
    const topology::PathList paths = router_.cached_paths(tagged.demand.src, tagged.demand.dst);
    NETENT_EXPECTS(paths.valid());
    (void)topology::water_fill_demand(tagged.demand.amount.value(), paths, residual, {});
  }
}

}  // namespace netent::service
