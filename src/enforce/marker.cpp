#include "enforce/marker.h"

#include <cmath>

#include "common/check.h"

namespace netent::enforce {

namespace {

/// SplitMix64 finalizer: a fast, well-mixed stable hash.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Marker::Marker(MarkingMode mode, std::uint32_t group_count)
    : mode_(mode), group_count_(group_count) {
  NETENT_EXPECTS(group_count >= 2);
}

std::uint32_t Marker::host_group(HostId host) const {
  return static_cast<std::uint32_t>(mix(host.value()) % group_count_);
}

std::uint32_t Marker::flow_group(std::uint64_t flow_id) const {
  return static_cast<std::uint32_t>(mix(flow_id ^ 0xabcdef1234567890ULL) % group_count_);
}

bool Marker::group_marked(std::uint32_t group, double non_conform_ratio) const {
  NETENT_EXPECTS(non_conform_ratio >= 0.0 && non_conform_ratio <= 1.0);
  // Groups [0, ratio * group_count) are non-conforming: the set grows and
  // shrinks monotonically with the ratio, so flows/hosts do not churn
  // between groups as the meter adjusts.
  const double marked = non_conform_ratio * static_cast<double>(group_count_);
  return static_cast<double>(group) < marked - 1e-12 ||
         std::fabs(marked - static_cast<double>(group_count_)) < 1e-12;
}

bool Marker::non_conforming(HostId host, std::uint64_t flow_id, double non_conform_ratio) const {
  const std::uint32_t group =
      mode_ == MarkingMode::host_based ? host_group(host) : flow_group(flow_id);
  return group_marked(group, non_conform_ratio);
}

std::size_t Marker::count_non_conforming(HostId host, std::uint64_t first_flow,
                                         std::size_t flows, double non_conform_ratio) const {
  if (mode_ == MarkingMode::host_based) {
    return group_marked(host_group(host), non_conform_ratio) ? flows : 0;
  }
  std::size_t marked = 0;
  for (std::size_t f = 0; f < flows; ++f) {
    if (group_marked(flow_group(first_flow + f), non_conform_ratio)) ++marked;
  }
  return marked;
}

}  // namespace netent::enforce
