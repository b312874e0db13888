#include "enforce/bpf.h"

#include "common/check.h"

namespace netent::enforce {

// count_non_conforming() counts exactly the flows classify() remarks only
// because no class conforms on the non-conforming code point.
static_assert(!class_for(kNonConformingDscp).has_value());

void BpfClassifier::program(NpgId npg, QosClass qos, double non_conform_ratio) {
  NETENT_EXPECTS(non_conform_ratio >= 0.0 && non_conform_ratio <= 1.0);
  ratios_[{npg.value(), qos}] = non_conform_ratio;
}

void BpfClassifier::unprogram(NpgId npg, QosClass qos) { ratios_.erase({npg.value(), qos}); }

std::uint8_t BpfClassifier::classify(const EgressMeta& meta) const {
  const auto it = ratios_.find({meta.npg.value(), meta.qos});
  if (it == ratios_.end()) return dscp_for(meta.qos);
  if (marker_.non_conforming(meta.host, meta.flow_id, it->second)) return kNonConformingDscp;
  return dscp_for(meta.qos);
}

std::size_t BpfClassifier::count_non_conforming(NpgId npg, QosClass qos, HostId host,
                                                std::uint64_t first_flow,
                                                std::size_t flows) const {
  const auto it = ratios_.find({npg.value(), qos});
  if (it == ratios_.end()) return 0;
  return marker_.count_non_conforming(host, first_flow, flows, it->second);
}

}  // namespace netent::enforce
