// Shared command-line plumbing for the two drill benches: the
// `--phase-jitter=SECONDS` desynchronization knob and the `--faults=SPEC`
// runtime fault-injection DSL, both mapping onto sim::DrillConfig.
//
// Fault spec grammar (comma-separated entries):
//   KIND@SECONDS[:HOST|:LO-HI]
// where KIND is one of crash, restart, partition, heal, down, up. The host
// part is required for host-scoped kinds (crash/restart/down/up) and may be
// a single index or an inclusive LO-HI range; partition/heal take no host.
//
// Example — half the fleet's agents die at t=40 min and return at t=60 min
// while the store is partitioned in between:
//   --faults=crash@2400:0-99,partition@2700,heal@3300,restart@3600:0-99
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/drill.h"

namespace netent::bench {

inline sim::DrillFault::Kind parse_fault_kind(const std::string& word) {
  using Kind = sim::DrillFault::Kind;
  if (word == "crash") return Kind::agent_crash;
  if (word == "restart") return Kind::agent_restart;
  if (word == "partition") return Kind::store_partition;
  if (word == "heal") return Kind::store_heal;
  if (word == "down") return Kind::host_down;
  if (word == "up") return Kind::host_up;
  throw std::invalid_argument("unknown fault kind: " + word);
}

inline bool fault_kind_is_host_scoped(sim::DrillFault::Kind kind) {
  using Kind = sim::DrillFault::Kind;
  return kind != Kind::store_partition && kind != Kind::store_heal;
}

/// Parses the `--faults` DSL into DrillConfig faults. Throws
/// std::invalid_argument on malformed specs (DrillEngine itself still validates
/// times and host bounds against the config).
inline std::vector<sim::DrillFault> parse_fault_spec(const std::string& spec) {
  std::vector<sim::DrillFault> faults;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t end = std::min(spec.find(',', begin), spec.size());
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;

    const std::size_t at = entry.find('@');
    if (at == std::string::npos) throw std::invalid_argument("fault entry missing '@': " + entry);
    const sim::DrillFault::Kind kind = parse_fault_kind(entry.substr(0, at));
    const std::size_t colon = entry.find(':', at + 1);
    const double at_seconds = std::stod(entry.substr(at + 1, colon - (at + 1)));

    if (!fault_kind_is_host_scoped(kind)) {
      if (colon != std::string::npos) {
        throw std::invalid_argument("store fault takes no host: " + entry);
      }
      faults.push_back({at_seconds, kind, 0});
      continue;
    }
    if (colon == std::string::npos) {
      throw std::invalid_argument("host-scoped fault needs ':HOST': " + entry);
    }
    const std::string hosts = entry.substr(colon + 1);
    const std::size_t dash = hosts.find('-');
    const std::size_t lo = static_cast<std::size_t>(std::stoul(hosts.substr(0, dash)));
    const std::size_t hi = dash == std::string::npos
                               ? lo
                               : static_cast<std::size_t>(std::stoul(hosts.substr(dash + 1)));
    if (hi < lo) throw std::invalid_argument("empty host range: " + entry);
    for (std::size_t host = lo; host <= hi; ++host) faults.push_back({at_seconds, kind, host});
  }
  return faults;
}

/// Applies `--phase-jitter=SECONDS` and `--faults=SPEC` to `config`.
inline void apply_drill_flags(int argc, char** argv, sim::DrillConfig& config) {
  const std::string jitter = flag_value(argc, argv, "phase-jitter", "");
  if (!jitter.empty()) config.phase_jitter_seconds = std::stod(jitter);
  const std::string faults = flag_value(argc, argv, "faults", "");
  if (!faults.empty()) config.faults = parse_fault_spec(faults);
}

}  // namespace netent::bench
