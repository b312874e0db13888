// Arena-backed scratch for the placement hot path. Every admission decision
// bottoms out in water-filling demands over per-link residual vectors; before
// this arena each placement pass constructed (and freed) fresh
// std::vector<double> scratch — two heap round-trips per scenario per window.
// The arena keeps those buffers alive per thread and hands them back out
// capacity-intact, so steady-state placements perform zero heap allocations
// (tests/test_path_store.cpp pins that with a counting operator-new hook).
//
// Discipline:
//  * One arena per thread (thread_local), so borrowed buffers are
//    thread-confined by construction — every worker of a parallel sweep
//    reuses its own pool with no synchronization.
//  * Loans are RAII: a returned vector keeps its capacity, so after the
//    first placement at a given topology size every subsequent borrow is
//    allocation-free. Values are unspecified at loan time; borrowers always
//    assign() before reading, which is exactly what a freshly constructed
//    scratch vector forced anyway — results stay bit-identical.
//  * EpochWords gives O(1) logical clearing of word-packed bitmaps: each
//    word carries the epoch it was last written in, and a stale stamp reads
//    as zero. The incremental replay resets its per-demand affected bitmap
//    this way instead of memset-ing O(demands/64) words per scenario.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace netent::common {

/// Thread-local pools of placement scratch vectors. Access through
/// `PlacementArena::local()`; never share a loan across threads.
class PlacementArena {
 public:
  /// RAII loan of a `std::vector<double>` from the pool. The vector's size
  /// and contents are unspecified at loan time (assign before reading); its
  /// capacity is whatever previous borrowers grew it to, which is what makes
  /// steady-state reuse allocation-free.
  class DoubleLoan {
   public:
    DoubleLoan(DoubleLoan&& other) noexcept
        : arena_(other.arena_), vec_(other.vec_) {
      other.arena_ = nullptr;
      other.vec_ = nullptr;
    }
    DoubleLoan(const DoubleLoan&) = delete;
    DoubleLoan& operator=(const DoubleLoan&) = delete;
    DoubleLoan& operator=(DoubleLoan&&) = delete;
    ~DoubleLoan();

    [[nodiscard]] std::vector<double>& operator*() { return *vec_; }
    [[nodiscard]] std::vector<double>* operator->() { return vec_; }
    [[nodiscard]] const std::vector<double>& operator*() const { return *vec_; }

   private:
    friend class PlacementArena;
    DoubleLoan(PlacementArena* arena, std::vector<double>* vec) : arena_(arena), vec_(vec) {}

    PlacementArena* arena_;
    std::vector<double>* vec_;
  };

  /// The calling thread's arena.
  [[nodiscard]] static PlacementArena& local();

  /// Borrows a double vector (pool hit when one is free, fresh allocation
  /// otherwise — a pool miss, counted in stats()).
  [[nodiscard]] DoubleLoan doubles();

  /// Reuse accounting, exposed so tests can prove steady-state loans stop
  /// allocating.
  struct Stats {
    std::uint64_t loans = 0;        ///< total borrows on this thread
    std::uint64_t pool_misses = 0;  ///< borrows that had to allocate a vector
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  PlacementArena() = default;
  PlacementArena(const PlacementArena&) = delete;
  PlacementArena& operator=(const PlacementArena&) = delete;

 private:
  void give_back(std::vector<double>* vec);

  /// Free list. unique_ptr keeps vector addresses stable while the free
  /// list itself grows.
  std::vector<std::unique_ptr<std::vector<double>>> pool_;
  std::vector<std::vector<double>*> free_;
  Stats stats_;
};

/// Word-packed bitmap with epoch-stamped O(1) clear: a word whose stamp is
/// stale reads as zero, so reset() never touches the payload. Used for the
/// incremental replay's per-demand affected mask (one bit per demand,
/// cleared once per scenario).
class EpochWords {
 public:
  /// Logically zeroes all `words` words. O(1) except when the bitmap grows.
  void reset(std::size_t words) {
    if (words_.size() < words) {
      words_.resize(words, 0);
      stamp_.resize(words, 0);
    }
    ++epoch_;
  }

  [[nodiscard]] std::uint64_t read(std::size_t w) const {
    return stamp_[w] == epoch_ ? words_[w] : 0;
  }

  void set_bit(std::size_t index) {
    const std::size_t w = index >> 6;
    if (stamp_[w] != epoch_) {
      stamp_[w] = epoch_;
      words_[w] = 0;
    }
    words_[w] |= std::uint64_t{1} << (index & 63);
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

}  // namespace netent::common
