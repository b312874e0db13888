// `common::ExecConfig`: the one execution-resources knob, carried by the two
// configs whose work fans out (`ApprovalConfig::exec` for the risk sweeps,
// `AdmissionConfig::exec` for the admission service, which pins its resolved
// count into `approval.exec`). Unset means the hardware concurrency.
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
  /// default) means the hardware concurrency.
  std::optional<std::size_t> threads;

  /// Effective thread count (clamped to >= 1).
  [[nodiscard]] std::size_t resolve() const {
    return std::max<std::size_t>(1, threads.value_or(ThreadPool::default_thread_count()));
  }
};

}  // namespace netent::common
