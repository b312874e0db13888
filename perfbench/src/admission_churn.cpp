// admission-churn: one closed-loop client against a manual-mode
// AdmissionController on a 28-region reliable backbone, with the two-tier
// fast path on. Set-up prefills ~kPopulation contracts; the measured run is
// a birth-death request sequence at that population (Poisson arrivals,
// exponential holding times, as in Flex Net Sim's dynamic connection model)
// plus resizes, one request per window. Admits take the fast tier; releases
// and resizes rebuild the residuals from the commit history.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/admission.h"
#include "topology/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace netent;

constexpr std::size_t kPopulation = 2000;  ///< arrival rate / departure rate
/// Per-contract resize rate (departure rate 1): resizes are ~10% of requests
/// at the equilibrium population (0.1 * (2000 + 2000) = 0.9 * 2000 * 2/9).
constexpr double kResizeRate = 2.0 / 9.0;
constexpr std::size_t kWarmUpRequests = 50;
constexpr std::uint64_t kAuditEvery = 64;  ///< requests between audit drains

/// The reliable, demand-limited 28-region backbone of the admission bench's
/// fast-path section: clean admits clear the SLO on the analytical bound.
topology::Topology reliable_backbone() {
  Rng rng(20220823);
  topology::GeneratorConfig config;
  config.region_count = 28;
  config.base_capacity = Gbps(2000);
  config.capacity_sigma = 0.2;
  config.max_parallel_fibers = 2;
  config.mtbf_hours_min = 200000.0;
  config.mtbf_hours_max = 400000.0;
  config.mttr_hours_min = 4.0;
  config.mttr_hours_max = 12.0;
  return topology::generate_backbone(config, rng);
}

std::vector<hose::HoseRequest> contract_hoses(std::uint32_t npg, Rng& rng,
                                              std::size_t region_count) {
  const auto src = static_cast<std::uint32_t>(rng.uniform_int(region_count));
  const auto dst =
      (src + 1 + static_cast<std::uint32_t>(rng.uniform_int(region_count - 1))) %
      static_cast<std::uint32_t>(region_count);
  hose::HoseRequest egress;
  egress.npg = NpgId(npg);
  egress.qos = static_cast<QosClass>(rng.uniform_int(kQosClassCount));
  egress.region = RegionId(src);
  egress.direction = hose::Direction::egress;
  egress.rate = Gbps(rng.uniform(0.5, 4.0));
  hose::HoseRequest ingress = egress;
  ingress.region = RegionId(dst);
  ingress.direction = hose::Direction::ingress;
  return {egress, ingress};
}

class AdmissionChurn final : public Workload {
 public:
  explicit AdmissionChurn(std::uint64_t seed) : Workload(seed), topo_(reliable_backbone()) {}

  [[nodiscard]] std::string unit() const override { return "requests"; }
  [[nodiscard]] std::string headline() const override { return "admit"; }

  void setup(Tracer& /*tracer*/) override {
    service::AdmissionConfig config;
    config.approval.realizations = 3;
    config.approval.slo_availability = 0.999;
    config.approval.scenarios.max_simultaneous = 1;
    config.approval.fastpath.enabled = true;
    config.approval.fastpath.audit = true;
    config.seed = seed_;
    config.background = false;  // one request per window, windows owned here
    controller_ = std::make_unique<service::AdmissionController>(topo_, config);
    rng_ = Rng(seed_);
    live_.clear();
    fingerprint_ = {};
    next_npg_ = 1;
    issued_ = 0;
    for (std::size_t i = 0; i < kPopulation; ++i) (void)admit(false);
    (void)controller_->audit_fastpath();
  }

  void warm_up() override {
    Tracer off(false);
    for (std::size_t i = 0; i < kWarmUpRequests; ++i) request(off, i, false);
    // The prefill + warm-up transcript must not depend on which set-up ran.
    if (!warm_fingerprint_) warm_fingerprint_ = fingerprint_.hash;
    expect(*warm_fingerprint_ == fingerprint_.hash, "set-up transcript differs for one seed");
  }

  void teardown() override { controller_.reset(); }

  Step step(Tracer& tracer, std::uint64_t index) override {
    request(tracer, index, true);
    if ((index + 1) % kAuditEvery == 0) {
      const auto span = tracer.span(kAuditSpan, index);
      (void)controller_->audit_fastpath();
    }
    return {1.0};
  }

  void check() override {
    (void)controller_->audit_fastpath();
    expect(controller_->fastpath_stats().violations == 0, "fast-path audit found violations");
    expect(controller_->residual_snapshot() == controller_->rebuild_residuals_from_scratch(),
           "incremental residuals differ from a from-scratch rebuild");
    // Two phases of one traced run issue the same requests: same transcript.
    if (last_check_ && last_check_->first == issued_) {
      expect(last_check_->second == fingerprint_.hash, "request transcript differs for one seed");
    }
    last_check_ = {issued_, fingerprint_.hash};
  }

  void layer_metrics(const TracedPhase& phase, LayerReport& out) const override {
    const double hits = phase.counter("risk.fastpath.hits");
    const double fallbacks = phase.counter("risk.fastpath.fallbacks");
    auto& v = out.values;
    v["service.requests"] = phase.counter("service.admission.requests");
    v["service.admit_pct"] = phase.pct_of_wall(phase.span_ms(kAdmitSpan));
    v["service.release_pct"] = phase.pct_of_wall(phase.span_ms(kReleaseSpan));
    v["service.resize_pct"] = phase.pct_of_wall(phase.span_ms(kResizeSpan));
    v["service.audit_pct"] =
        phase.pct_of_wall(phase.span_ms(kAuditSpan));
    v["service.window_pct"] = phase.pct_of_wall(phase.timer_ms("service.admission.window_seconds"));
    v["service.windows"] = phase.counter("service.admission.windows");
    v["service.rebuilds"] = phase.counter("service.admission.rebuilds");
    v["service.shard_jobs"] = phase.counter("service.admission.shard.jobs");
    v["approval.assess_pct"] = phase.pct_of_wall(phase.timer_ms("approval.pipe.assess_seconds"));
    v["approval.counter_proposals"] = phase.counter("service.admission.counter_proposals");
    v["risk.fastpath.assessments"] = hits + fallbacks;
    v["risk.fastpath.hit_ratio"] = hits + fallbacks > 0 ? hits / (hits + fallbacks) : 0.0;
    v["risk.fastpath.audit_violations"] = phase.counter("risk.fastpath.audit_violations");

    MetricSet& d = out.detail;
    d.add("service.request_ms.admit", phase.span_p50_ms(kAdmitSpan), "ms");
    d.add("service.request_ms.release", phase.span_p50_ms(kReleaseSpan), "ms");
    d.add("service.request_ms.resize", phase.span_p50_ms(kResizeSpan), "ms");
    const double releases = phase.span_count(kReleaseSpan);
    d.add("service.rebuild_ms_per_release",
          releases > 0 ? phase.span_ms(kReleaseSpan) / releases : 0.0, "ms");
    d.add("service.audit_ms", phase.span_ms(kAuditSpan), "ms");
    d.add("service.window_ms",
          phase.timer_ms("service.admission.window_seconds") /
              std::max(1.0, phase.timer_count("service.admission.window_seconds")),
          "ms");
    d.add("approval.assess_ms", phase.timer_ms("approval.pipe.assess_seconds"), "ms");
    d.add("risk.fastpath.hits", hits, "count");
    d.add("risk.fastpath.fallbacks", fallbacks, "count");
    d.add("contracts_in_force", static_cast<double>(live_.size()), "count");
  }

  void report(MetricSet& out) const override {
    const auto samples = [&](const char* kind) {
      const auto it = latencies().find(kind);
      return it == latencies().end() ? 0.0 : static_cast<double>(it->second.size());
    };
    const double total = samples("admit") + samples("release") + samples("resize");
    report_latency(out, "admit", "admit");
    report_latency(out, "release", "release");
    report_latency(out, "resize", "resize");
    out.add("resize_share", total > 0 ? samples("resize") / total : 0.0, "ratio");
    out.add("contracts_in_force", static_cast<double>(live_.size()), "count");
    const auto stats = controller_->fastpath_stats();
    out.add("fastpath_hits", static_cast<double>(stats.hits), "count");
    out.add("fastpath_fallbacks", static_cast<double>(stats.fallbacks), "count");
    out.add("fastpath_audited", static_cast<double>(stats.audited), "count");
  }

 private:
  static constexpr const char* kAdmitSpan = "service.AdmissionController::admit";
  static constexpr const char* kReleaseSpan = "service.AdmissionController::release";
  static constexpr const char* kResizeSpan = "service.AdmissionController::resize";
  static constexpr const char* kAuditSpan = "service.AdmissionController::audit_fastpath";

  struct Live {
    service::ContractId id = 0;
    std::vector<hose::HoseRequest> hoses;
  };

  void note(service::RequestKind kind, const service::AdmissionOutcome& outcome) {
    fingerprint_.mix(static_cast<std::uint64_t>(kind));
    fingerprint_.mix(static_cast<std::uint64_t>(outcome.status));
    fingerprint_.mix(outcome.contract);
    for (const auto& approval : outcome.approvals) {
      fingerprint_.mix(static_cast<std::uint64_t>(std::llround(approval.approved.value() * 1e3)));
    }
  }

  /// Issues the next request of the birth-death sequence.
  void request(Tracer& tracer, std::uint64_t index, bool measured) {
    ++issued_;
    const double n = static_cast<double>(live_.size());
    const double arrival = static_cast<double>(kPopulation);
    const double draw = rng_.uniform() * (arrival + n * (1.0 + kResizeRate));
    if (live_.empty() || draw < arrival) {
      const auto span = tracer.span(kAdmitSpan, index);
      (void)admit(measured);
    } else if (draw < arrival + n) {
      const auto span = tracer.span(kReleaseSpan, index);
      release(measured);
    } else {
      const auto span = tracer.span(kResizeSpan, index);
      resize(measured);
    }
  }

  bool admit(bool measured) {
    const std::uint32_t npg = next_npg_++;
    auto hoses = contract_hoses(npg, rng_, topo_.region_count());
    const Stopwatch watch;
    const auto outcome = controller_->admit(NpgId(npg), "npg" + std::to_string(npg), hoses);
    if (measured) record("admit", watch);
    note(service::RequestKind::admit, outcome);
    const bool ok = outcome.status == service::AdmissionStatus::admitted ||
                    outcome.status == service::AdmissionStatus::rejected;
    attempt_if(measured, ok, "admit");
    if (outcome.status == service::AdmissionStatus::admitted) {
      live_.push_back({outcome.contract, std::move(hoses)});
    }
    return ok;
  }

  void release(bool measured) {
    const std::size_t pick = rng_.uniform_int(live_.size());
    const service::ContractId id = live_[pick].id;
    live_[pick] = std::move(live_.back());
    live_.pop_back();
    const Stopwatch watch;
    const auto outcome = controller_->release(id);
    if (measured) record("release", watch);
    note(service::RequestKind::release, outcome);
    attempt_if(measured, outcome.status == service::AdmissionStatus::released, "release");
  }

  void resize(bool measured) {
    Live& live = live_[rng_.uniform_int(live_.size())];
    std::vector<hose::HoseRequest> hoses = live.hoses;
    const double scale = rng_.uniform(0.6, 1.4);
    for (hose::HoseRequest& hose : hoses) hose.rate = Gbps(hose.rate.value() * scale);
    const Stopwatch watch;
    const auto outcome = controller_->resize(live.id, hoses);
    if (measured) record("resize", watch);
    note(service::RequestKind::resize, outcome);
    attempt_if(measured,
               outcome.status == service::AdmissionStatus::resized ||
                   outcome.status == service::AdmissionStatus::rejected,
               "resize");
    if (outcome.status == service::AdmissionStatus::resized) live.hoses = std::move(hoses);
  }

  /// Failed outcomes count in every phase; successes only when measured.
  void attempt_if(bool measured, bool ok, const char* what) {
    if (measured || !ok) attempt(ok, std::string(what) + " returned a failed outcome");
  }

  const topology::Topology topo_;
  std::unique_ptr<service::AdmissionController> controller_;
  Rng rng_;
  std::vector<Live> live_;
  Fingerprint fingerprint_;
  std::optional<std::uint64_t> warm_fingerprint_;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> last_check_;
  std::uint32_t next_npg_ = 1;
  std::uint64_t issued_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_admission_churn(std::uint64_t seed) {
  return std::make_unique<AdmissionChurn>(seed);
}

}  // namespace perfbench
