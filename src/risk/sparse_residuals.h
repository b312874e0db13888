// One realization's residual state for §4.3's risk assessment: per failure
// scenario, the per-link capacity the committed demands leave. On a loaded
// network nearly every scenario's residual on a link equals scenario 0's
// bit for bit, so scenario 0's residuals are dense and, per group of 64
// scenarios, each link holds one bitset word marking the scenarios whose
// residual there differs, with their residuals in scenario order. No entry
// equals scenario 0's residual bit for bit, so equal states have equal
// forms. service::ResidualHistory keeps the admission residuals in this form
// only; the exact tier, the fast tier's summaries and the audit read it in
// place, and dense() materializes it for the oracle comparisons alone.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace netent::risk {

struct SparseResiduals {
  static constexpr std::size_t kGroup = 64;  ///< scenarios per bitset word

  struct Group {
    std::vector<std::uint64_t> differs;       ///< [link]: bit b is scenario 64g + b
    std::vector<std::vector<double>> values;  ///< [link]: the set scenarios' residuals

    /// Sets bit b's residual on `link`: an entry unless it equals `base`,
    /// scenario 0's residual there.
    void set(std::size_t bit, std::size_t link, double residual, double base) {
      std::uint64_t& bits = differs[link];
      const std::uint64_t mask = std::uint64_t{1} << bit;
      std::vector<double>& row = values[link];
      const auto at = row.begin() + static_cast<std::ptrdiff_t>(rank(bits, bit));
      const bool differs_now = !same_bits(residual, base);
      if ((bits & mask) != 0 && differs_now) {
        *at = residual;
      } else if ((bits & mask) != 0) {
        row.erase(at);
        bits &= ~mask;
      } else if (differs_now) {
        row.insert(at, residual);
        bits |= mask;
      }
    }
  };

  /// Groups that hold `scenarios` scenarios.
  static constexpr std::size_t group_count(std::size_t scenarios) {
    return (scenarios + kGroup - 1) / kGroup;
  }
  static bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }
  /// The residual of the bit-th scenario set in a link's bitset is its
  /// rank(bits, bit)-th value. The count is written out: the baseline x86-64
  /// target lowers std::popcount to a library call, and this runs per cell.
  static std::size_t rank(std::uint64_t bits, std::size_t bit) {
    std::uint64_t x = bits & ((std::uint64_t{1} << bit) - 1);
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
  }

  /// Scenario s's residual on `link`.
  [[nodiscard]] double at(std::size_t s, std::size_t link) const {
    const std::uint64_t bits = groups[s / kGroup].differs[link];
    const std::size_t bit = s % kGroup;
    return ((bits >> bit) & 1U) != 0 ? groups[s / kGroup].values[link][rank(bits, bit)]
                                     : base[link];
  }
  /// Every cell of the first `scenarios` scenarios, [scenario][link].
  [[nodiscard]] std::vector<std::vector<double>> dense(std::size_t scenarios) const {
    std::vector<std::vector<double>> cells(scenarios, base);
    for (std::size_t s = 1; s < scenarios; ++s) {
      for (std::size_t link = 0; link < base.size(); ++link) cells[s][link] = at(s, link);
    }
    return cells;
  }

  std::vector<double> base;   ///< scenario 0's residuals, [link]
  std::vector<Group> groups;  ///< [scenario / kGroup]
};

}  // namespace netent::risk
