// Closed-loop synthetic tenant fleet (`netent::spec::TenantFleet`): the
// end-to-end driver of the declarative front-end. Thousands of tenants each
// hold an entitlement spec, and every round of the loop:
//
//   1. churns the admitted set — tenants with a live contract release or
//      resize with per-tenant probabilities, batched into one window (those
//      windows rebuild residual state, so the fleet bounds them to one per
//      round);
//   2. admits — every contract-less, non-dormant tenant whose backoff has
//      elapsed serializes its spec to JSON, re-parses and compiles it
//      (exercising the full spec pipeline on every request), and submits;
//      admissions run in windows of `admits_per_window`;
//   3. negotiates — rejections carry counter-proposals, which each tenant's
//      PolicyEngine strategy resolves into a follow-up spec (resubmitted
//      next round), a capped-backoff retry, or a give-up.
//
// All randomness comes from per-tenant forked Rng streams and every decision
// the service returns is bit-identical at any thread count, so the
// fleet's decision transcript (FNV-1a fingerprint) is too — the determinism
// property tests/test_tenant_fleet.cpp pins. Wall-clock decision latencies
// are collected separately (timing data, excluded from the transcript).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "service/admission.h"
#include "spec/policy.h"
#include "spec/spec.h"

namespace netent::spec {

struct FleetConfig {
  std::size_t tenants = 2000;
  std::size_t rounds = 6;
  /// Region count of the topology the controller serves (spec generation
  /// picks endpoints in [0, regions)).
  std::size_t regions = 8;
  /// Admissions per manual-mode window (pure-admit windows are the service's
  /// incremental hot path; batching amortizes the per-window sweep).
  std::size_t admits_per_window = 32;
  std::uint64_t seed = 42;
  /// Hose-pair volume range for ordinary tenants, [lo, hi) Gbps.
  double base_rate_lo_gbps = 0.5;
  double base_rate_hi_gbps = 2.0;
  /// Every `heavy_every`-th tenant requests `heavy_rate_gbps` at a premium
  /// class — the contention that forces rejections and exercises the
  /// negotiation strategies.
  std::size_t heavy_every = 41;
  double heavy_rate_gbps = 60.0;
  double resize_probability = 0.06;
  double release_probability = 0.03;
  double slo_availability = 0.999;  ///< written into every spec
};

/// Everything a fleet run decided. All fields except `decision_latency_us`
/// are derived from service decisions only, so they are bit-identical across
/// exec configs of the same seed.
struct FleetReport {
  std::size_t decisions = 0;  ///< outcomes received (admit/resize/release)
  /// FNV-1a over the decision + resolution stream (round, tenant, action,
  /// status, approved milli-Gbps, contract id; resolution kind + strategy).
  std::uint64_t transcript_fingerprint = 0;
  std::size_t admitted = 0;
  std::size_t resized = 0;
  std::size_t released = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  /// Negotiation resolutions by kind.
  std::size_t resubmits = 0;
  std::size_t waits = 0;
  std::size_t give_ups = 0;
  /// Resubmit/wait resolutions per strategy, indexed by Strategy value —
  /// the "all strategies exercised" gate reads these.
  std::array<std::size_t, kStrategyCount> strategy_resolutions{};
  /// End-to-end submit -> outcome latency per decision, microseconds
  /// (wall-clock; NOT part of the deterministic transcript).
  std::vector<double> decision_latency_us;
};

/// Drives a fleet against a manual-mode controller (config.background must
/// be false: the fleet owns window boundaries). The controller should be
/// configured with admit_min_fraction = 1.0 and attach_counter_proposals =
/// true so shortfalls become rejections with proposals to negotiate over.
class TenantFleet {
 public:
  TenantFleet(service::AdmissionController& controller, FleetConfig config);

  [[nodiscard]] FleetReport run();

 private:
  struct Tenant {
    std::uint64_t id = 0;
    Rng rng;
    EntitlementSpec spec;                  ///< current desired request
    service::ContractId contract = 0;      ///< live contract (0 = none)
    NegotiationState negotiation;
    std::size_t wait_until_round = 0;      ///< retry_later backoff gate
    bool dormant = false;                  ///< gave up; leaves the loop
  };

  [[nodiscard]] EntitlementSpec make_admit_spec(Tenant& tenant) const;

  service::AdmissionController& controller_;
  FleetConfig config_;
  PolicyEngine policy_engine_;
};

}  // namespace netent::spec
