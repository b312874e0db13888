#include "enforce/bpf.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace netent::enforce {
namespace {

constexpr NpgId kSvc{3};
constexpr QosClass kQos = QosClass::c2_high;

TEST(Dscp, DistinctPerClassAndReversible) {
  for (const QosClass qos : qos_priority_order()) {
    const std::uint8_t dscp = dscp_for(qos);
    EXPECT_NE(dscp, kNonConformingDscp);
    ASSERT_TRUE(class_for(dscp).has_value());
    EXPECT_EQ(*class_for(dscp), qos);
  }
  EXPECT_EQ(class_for(kNonConformingDscp), std::nullopt);
}

TEST(Dscp, QueueMapping) {
  EXPECT_EQ(queue_for(dscp_for(QosClass::c1_low)), 0u);
  EXPECT_EQ(queue_for(dscp_for(QosClass::c4_high)), 7u);
  EXPECT_EQ(queue_for(kNonConformingDscp), kNonConformingQueue);
  EXPECT_EQ(kNonConformingQueue, kQueueCount - 1);
}

TEST(Dscp, PriorityOrderPreservedInCodePoints) {
  // More premium classes get numerically larger (AF-style) code points.
  const auto order = qos_priority_order();
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_GT(dscp_for(order[i]), dscp_for(order[i + 1]));
  }
}

TEST(BpfClassifier, UnprogrammedTrafficKeepsClassDscp) {
  const BpfClassifier classifier{Marker(MarkingMode::host_based)};
  const EgressMeta meta{kSvc, kQos, HostId(1), 0};
  EXPECT_EQ(classifier.classify(meta), dscp_for(kQos));
}

TEST(BpfClassifier, RatioOneRemarksEverything) {
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  classifier.program(kSvc, kQos, 1.0);
  for (std::uint32_t h = 0; h < 50; ++h) {
    const EgressMeta meta{kSvc, kQos, HostId(h), 0};
    EXPECT_EQ(classifier.classify(meta), kNonConformingDscp);
  }
}

TEST(BpfClassifier, RatioZeroRemarksNothing) {
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  classifier.program(kSvc, kQos, 0.0);
  for (std::uint32_t h = 0; h < 50; ++h) {
    const EgressMeta meta{kSvc, kQos, HostId(h), 0};
    EXPECT_EQ(classifier.classify(meta), dscp_for(kQos));
  }
}

TEST(BpfClassifier, ClassesEnforcedIndependently) {
  // §5.3 footnote: remarking is per QoS class.
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  classifier.program(kSvc, QosClass::c2_high, 1.0);
  const EgressMeta other_class{kSvc, QosClass::c1_low, HostId(1), 0};
  EXPECT_EQ(classifier.classify(other_class), dscp_for(QosClass::c1_low));
}

TEST(BpfClassifier, OtherServicesUnaffected) {
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  classifier.program(kSvc, kQos, 1.0);
  const EgressMeta other{NpgId(99), kQos, HostId(1), 0};
  EXPECT_EQ(classifier.classify(other), dscp_for(kQos));
}

TEST(BpfClassifier, UnprogramRemovesEntry) {
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  classifier.program(kSvc, kQos, 1.0);
  EXPECT_EQ(classifier.map_size(), 1u);
  classifier.unprogram(kSvc, kQos);
  EXPECT_EQ(classifier.map_size(), 0u);
  const EgressMeta meta{kSvc, kQos, HostId(1), 0};
  EXPECT_EQ(classifier.classify(meta), dscp_for(kQos));
}

TEST(BpfClassifier, ReprogramOverwrites) {
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  classifier.program(kSvc, kQos, 1.0);
  classifier.program(kSvc, kQos, 0.0);
  EXPECT_EQ(classifier.map_size(), 1u);
  const EgressMeta meta{kSvc, kQos, HostId(1), 0};
  EXPECT_EQ(classifier.classify(meta), dscp_for(kQos));
}

TEST(BpfClassifier, InvalidRatioRejected) {
  BpfClassifier classifier{Marker(MarkingMode::host_based)};
  EXPECT_THROW(classifier.program(kSvc, kQos, 1.5), ContractViolation);
}

TEST(BpfClassifier, FlowBasedMarkerRemarksFractionOfFlows) {
  BpfClassifier classifier{Marker(MarkingMode::flow_based)};
  classifier.program(kSvc, kQos, 0.5);
  int marked = 0;
  const int flows = 2000;
  for (std::uint64_t f = 0; f < flows; ++f) {
    const EgressMeta meta{kSvc, kQos, HostId(1), f};
    if (classifier.classify(meta) == kNonConformingDscp) ++marked;
  }
  EXPECT_NEAR(static_cast<double>(marked) / flows, 0.5, 0.05);
}

/// The per-flow reference: classify() every flow of the range.
std::size_t classify_count(const BpfClassifier& classifier, NpgId npg, QosClass qos, HostId host,
                           std::uint64_t first_flow, std::size_t flows) {
  std::size_t marked = 0;
  for (std::size_t f = 0; f < flows; ++f) {
    if (classifier.classify(EgressMeta{npg, qos, host, first_flow + f}) == kNonConformingDscp) {
      ++marked;
    }
  }
  return marked;
}

TEST(BpfClassifier, BatchedCountMatchesPerFlowClassify) {
  Rng rng(1022);
  for (const MarkingMode mode : {MarkingMode::host_based, MarkingMode::flow_based}) {
    for (const std::uint32_t groups : {2u, 7u, 100u}) {
      BpfClassifier classifier{Marker(mode, groups)};
      // kSvc/kQos programmed, (kSvc, c1_low) programmed and then removed,
      // another service never programmed.
      classifier.program(kSvc, QosClass::c1_low, 0.5);
      classifier.unprogram(kSvc, QosClass::c1_low);
      std::vector<double> ratios = {0.0, 1.0, 0.5, 1.0 / static_cast<double>(groups)};
      for (int i = 0; i < 40; ++i) ratios.push_back(rng.uniform());
      for (const double ratio : ratios) {
        classifier.program(kSvc, kQos, ratio);
        for (int trial = 0; trial < 25; ++trial) {
          const HostId host(static_cast<std::uint32_t>(rng.uniform_int(5000)));
          const std::uint64_t first_flow = rng();
          const std::size_t flows = rng.uniform_int(60);
          for (const auto& [npg, qos] : {std::pair{kSvc, kQos}, std::pair{kSvc, QosClass::c1_low},
                                         std::pair{NpgId(9), kQos}}) {
            EXPECT_EQ(classifier.count_non_conforming(npg, qos, host, first_flow, flows),
                      classify_count(classifier, npg, qos, host, first_flow, flows))
                << to_string(mode) << " groups " << groups << " ratio " << ratio;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace netent::enforce
