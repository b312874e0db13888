// Flat, cache-friendly storage for candidate path sets — the data the
// placement hot loop actually walks. The legacy layout was a
// std::map<(src,dst), std::vector<Path>> of per-path heap vectors: every
// demand paid an O(log pairs) tree descent and every path a pointer chase to
// a separately allocated link list. The PathStore compiles the same path
// sets into CSR (compressed sparse row) form:
//
//     pair_slot_[src * regions + dst]  ── dense O(1) pair-id lookup ──┐
//                                                                    v
//     path_begin_/path_count_[slot]  ── the pair's contiguous path range
//     link_off_[path]                ── each path's range in the flat array
//     links_[...]                    ── ONE flat LinkId array, all paths
//     cost_[path]                    ── SoA per-path metadata
//
// so the inner water-fill walks one contiguous LinkId sequence per path set
// with no tree nodes and no per-path allocations. Path sets are appended
// (lazily or via Router::warm()); link order inside each path and path order
// inside each set are preserved exactly, so every float-op sequence — and
// therefore every routing result — is bit-identical to the legacy layout
// (tests/test_path_store.cpp pins this across randomized topologies).
//
// Lifetime rules: a PathList holds indices plus a store pointer and stays
// valid across later insertions (the arrays are append-only). A PathView's
// spans point into the flat arrays and are invalidated by insertion — take
// views only while no insertion can happen (e.g. under Router::SweepGuard,
// or within one placement pass).
//
// Topology lifecycle: a store is never patched. After an add or a retire,
// Router::resync_topology compiles every pair into a fresh store and
// replaces the old one, which invalidates every outstanding PathList and
// PathView; no handles are live across a resync by contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "topology/paths.h"

namespace netent::topology {

class PathStore;

/// View of one stored path: a span over the store's flat link array plus the
/// SoA metadata. Mirrors the Path interface the water-fill template needs.
struct PathView {
  std::span<const LinkId> links;
  double cost = 0.0;

  [[nodiscard]] bool empty() const { return links.empty(); }
  [[nodiscard]] std::size_t hops() const { return links.size(); }
};

/// Random-access range of one (src, dst) pair's candidate paths. A default-
/// constructed PathList is invalid (the "pair never compiled" sentinel the
/// legacy nullptr expressed). Cheap to copy; stays valid across store
/// insertions, unlike the PathViews it yields.
class PathList {
 public:
  PathList() = default;

  [[nodiscard]] bool valid() const { return store_ != nullptr; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] inline PathView operator[](std::size_t p) const;

  class Iterator {
   public:
    Iterator(const PathList* list, std::size_t p) : list_(list), p_(p) {}
    PathView operator*() const { return (*list_)[p_]; }
    Iterator& operator++() {
      ++p_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return p_ != other.p_; }

   private:
    const PathList* list_;
    std::size_t p_;
  };
  [[nodiscard]] Iterator begin() const { return Iterator(this, 0); }
  [[nodiscard]] Iterator end() const { return Iterator(this, count_); }

 private:
  friend class PathStore;
  PathList(const PathStore* store, std::uint32_t first_path, std::uint32_t count)
      : store_(store), first_path_(first_path), count_(count) {}

  const PathStore* store_ = nullptr;
  std::uint32_t first_path_ = 0;  ///< global path index of the set's head
  std::uint32_t count_ = 0;
};

/// The CSR store itself. Path sets are compiled in once per (src, dst) pair
/// and read from then on.
class PathStore {
 public:
  /// One compiled pair, in slot order (see pairs()).
  struct PairKey {
    RegionId src;
    RegionId dst;
  };

  explicit PathStore(std::size_t region_count);

  [[nodiscard]] bool contains(RegionId src, RegionId dst) const {
    return pair_slot_[pair_id(src, dst)] != kNoSlot;
  }

  /// The pair's path list, or an invalid PathList when the pair was never
  /// compiled. O(1): one dense-table load.
  [[nodiscard]] PathList find(RegionId src, RegionId dst) const {
    const std::uint32_t slot = pair_slot_[pair_id(src, dst)];
    if (slot == kNoSlot) return PathList();
    return PathList(this, path_begin_[slot], path_count_[slot]);
  }

  /// Compiles `paths` (in order) as the pair's path set. The pair must not
  /// already be present.
  PathList insert(RegionId src, RegionId dst, std::span<const Path> paths);

  /// Every compiled pair, indexed by slot.
  [[nodiscard]] std::span<const PairKey> pairs() const { return pair_of_slot_; }

  [[nodiscard]] std::size_t pair_count() const { return path_begin_.size(); }
  /// Paths / flat link entries currently stored.
  [[nodiscard]] std::size_t path_count() const { return cost_.size(); }
  [[nodiscard]] std::size_t link_entry_count() const { return links_.size(); }

 private:
  friend class PathList;

  [[nodiscard]] std::size_t pair_id(RegionId src, RegionId dst) const {
    return static_cast<std::size_t>(src.value()) * region_count_ + dst.value();
  }

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  std::size_t region_count_;
  std::vector<std::uint32_t> pair_slot_;   ///< dense pair-id -> slot (kNoSlot = absent)
  std::vector<std::uint32_t> path_begin_;  ///< per slot: first global path index
  std::vector<std::uint32_t> path_count_;  ///< per slot: number of paths
  std::vector<PairKey> pair_of_slot_;      ///< per slot: the (src, dst) pair
  std::vector<std::uint32_t> link_off_;    ///< per global path: offset into links_ (+1 entry)
  std::vector<LinkId> links_;              ///< one flat link array for every path
  std::vector<double> cost_;               ///< per global path (SoA metadata)
};

inline PathView PathList::operator[](std::size_t p) const {
  const std::size_t path = first_path_ + p;
  const std::uint32_t begin = store_->link_off_[path];
  const std::uint32_t end = store_->link_off_[path + 1];
  return PathView{std::span<const LinkId>(store_->links_.data() + begin, end - begin),
                  store_->cost_[path]};
}

}  // namespace netent::topology
