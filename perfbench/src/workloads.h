// The four workloads. Each builds its inputs from the seed, drives only the
// library's public API with the default common::ExecConfig, and checks its
// outputs (see perfbench/README.md for what each one stresses).
#pragma once

#include <cstdint>
#include <memory>

#include "harness.h"

namespace perfbench {

/// Order-sensitive hash of a stream of 64-bit words (FNV-1a style, a word
/// per step, so fingerprinting millions of curve points stays cheap): the
/// decision, curve and tick transcripts the output checks compare.
struct Fingerprint {
  std::uint64_t hash = 14695981039346656037ULL;
  void mix(std::uint64_t value) {
    hash = (hash ^ value) * 1099511628211ULL;
    hash ^= hash >> 29;
  }
};

[[nodiscard]] std::unique_ptr<Workload> make_admission_churn(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_tenant_fleet(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_risk_sweep(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_drill(std::uint64_t seed);

}  // namespace perfbench
