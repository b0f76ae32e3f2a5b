// Process-wide graceful-shutdown flag. SIGINT/SIGTERM handlers (installed by
// the sweep CLI / batch_runner via sim::install_interrupt_handlers) set it;
// the simulation loop polls it every few hundred cycles and unwinds with
// cmp::CancelledError instead of dying mid-cell, so the sweep can flush
// partial results and the checkpoint manifest before exiting. Lives in
// common/ so cmp can poll it without depending on the sim layer.
#pragma once

#include <atomic>

namespace disco {

inline std::atomic<bool>& interrupt_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

inline bool interrupt_requested() {
  return interrupt_flag().load(std::memory_order_relaxed);
}

}  // namespace disco
