// `common::ExecConfig`: the one execution-resources knob shared by every
// parallel subsystem. Historically each subsystem grew its own thread count
// (`ApprovalConfig::risk_threads`, `DrillConfig::num_threads`, ad-hoc
// defaults in the lifecycle and the benches); those aliases are retired —
// every consumer resolves its effective count through this struct (with a
// per-consumer default) so one setting drives them all.
//
// Thread counts never change results anywhere in netent — sweeps merge
// deterministically — so this knob only trades wall-clock for cores. The
// admission and risk sweeps run on the shared pool (common/thread_pool.h
// fan_out), which caps a count above the core count at the core count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>

#include "common/thread_pool.h"

namespace netent::common {

struct ExecConfig {
  /// Worker threads for the consumer's parallel sections. Unset (the
  /// default) falls back to the consumer's documented default (serial for
  /// the drill's per-host loops, hardware concurrency for risk sweeps).
  std::optional<std::size_t> threads;

  /// Effective thread count given the consumer's default (clamped to >= 1).
  [[nodiscard]] std::size_t resolve(std::size_t consumer_default) const {
    return std::max<std::size_t>(1, threads.value_or(consumer_default));
  }

  /// Effective thread count for consumers whose default is the hardware
  /// concurrency.
  [[nodiscard]] std::size_t resolve() const {
    return resolve(ThreadPool::default_thread_count());
  }
};

}  // namespace netent::common
