// Simulated kernel component of the enforcement agent (Figure 9). The
// user-space agent programs per-(NPG, QoS) actions into "BPF maps"; the
// classifier consults them on every egress packet/flow and returns the DSCP
// to carry — either the class's conforming code point or the non-conforming
// value. Only the OS substrate is simulated; the decision logic is the
// production logic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "common/types.h"
#include "enforce/dscp.h"
#include "enforce/marker.h"

namespace netent::enforce {

/// Egress packet/flow metadata available to the kernel program.
struct EgressMeta {
  NpgId npg;
  QosClass qos = QosClass::c4_high;
  HostId host;
  std::uint64_t flow_id = 0;
};

class BpfClassifier {
 public:
  explicit BpfClassifier(Marker marker) : marker_(marker) {}

  /// User-space programs the map entry for one (NPG, QoS).
  void program(NpgId npg, QosClass qos, double non_conform_ratio);

  /// Removes an entry (contract expired).
  void unprogram(NpgId npg, QosClass qos);

  /// The egress hook: returns the DSCP for this packet/flow. Traffic with no
  /// programmed entry keeps its class's conforming DSCP (no contract => no
  /// remark).
  [[nodiscard]] std::uint8_t classify(const EgressMeta& meta) const;

  /// How many of `host`'s flows first_flow, ..., first_flow + flows - 1 in
  /// (npg, qos) classify() remarks to kNonConformingDscp, with one map
  /// lookup for the whole range.
  [[nodiscard]] std::size_t count_non_conforming(NpgId npg, QosClass qos, HostId host,
                                                 std::uint64_t first_flow,
                                                 std::size_t flows) const;

  [[nodiscard]] const Marker& marker() const { return marker_; }
  [[nodiscard]] std::size_t map_size() const { return ratios_.size(); }

 private:
  Marker marker_;
  std::map<std::pair<std::uint32_t, QosClass>, double> ratios_;
};

}  // namespace netent::enforce
