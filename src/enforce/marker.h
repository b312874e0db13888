// Remarking policy (§5.3): decides *what* to remark once the meter decided
// *how much*. Flows (or hosts) are hashed into a fixed number of groups
// (Figure 10); groups below NonConformRatio * groups are remarked. Marking a
// whole group keeps per-flow decisions stable across cycles and, in
// host-based mode, remarks all the matching traffic of a subset of hosts so
// applications can fail over away from them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace netent::enforce {

enum class MarkingMode : std::uint8_t {
  flow_based,  ///< remark a fraction of flows on every host
  host_based,  ///< remark all matching traffic of a fraction of hosts (default, §5.3)
};

[[nodiscard]] constexpr const char* to_string(MarkingMode m) {
  return m == MarkingMode::flow_based ? "flow-based" : "host-based";
}

class Marker {
 public:
  explicit Marker(MarkingMode mode, std::uint32_t group_count = 100);

  [[nodiscard]] MarkingMode mode() const { return mode_; }
  [[nodiscard]] std::uint32_t group_count() const { return group_count_; }

  /// Group identifier of a host / flow (stable hash).
  [[nodiscard]] std::uint32_t host_group(HostId host) const;
  [[nodiscard]] std::uint32_t flow_group(std::uint64_t flow_id) const;

  /// True if traffic of (host, flow) must be remarked non-conforming given
  /// the current NonConformRatio. In host-based mode the flow id is ignored.
  [[nodiscard]] bool non_conforming(HostId host, std::uint64_t flow_id,
                                    double non_conform_ratio) const;

  /// How many of `host`'s flows first_flow, ..., first_flow + flows - 1
  /// non_conforming() remarks: one group decision for the whole range in
  /// host-based mode, one per flow in flow-based mode.
  [[nodiscard]] std::size_t count_non_conforming(HostId host, std::uint64_t first_flow,
                                                 std::size_t flows,
                                                 double non_conform_ratio) const;

 private:
  [[nodiscard]] bool group_marked(std::uint32_t group, double non_conform_ratio) const;

  MarkingMode mode_;
  std::uint32_t group_count_;
};

}  // namespace netent::enforce
