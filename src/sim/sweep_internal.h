// Internals shared between the sweep engine (sweep.cpp) and the sweep
// driver (run_sweep in supervisor.cpp): the thread pool and the progress
// line. Not part of the public sweep API.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>

#include "sim/sweep.h"

namespace disco::sim::detail {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Serialized stderr progress line: cells done / total, elapsed, ETA.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total, const SweepOptions& opt)
      : total_(total), enabled_(opt.progress), label_(opt.progress_label),
        start_(Clock::now()) {}

  void cell_done() {
    if (!enabled_) return;
    const std::size_t done = ++done_;
    std::lock_guard<std::mutex> lock(mu_);
    const double elapsed_s = ms_since(start_) / 1000.0;
    const double eta_s =
        done > 0 ? elapsed_s * static_cast<double>(total_ - done) /
                       static_cast<double>(done)
                 : 0.0;
    std::fprintf(stderr, "\r%s: %zu/%zu cells (%3.0f%%)  elapsed %.1fs  eta %.1fs ",
                 label_.c_str(), done, total_,
                 100.0 * static_cast<double>(done) / static_cast<double>(total_),
                 elapsed_s, eta_s);
    if (done == total_) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  }

  void note(const std::string& line) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(stderr, "\n%s: %s\n", label_.c_str(), line.c_str());
  }

 private:
  const std::size_t total_;
  const bool enabled_;
  const std::string label_;
  const Clock::time_point start_;
  std::atomic<std::size_t> done_{0};
  std::mutex mu_;
};

/// Pull-based pool: workers claim task indices from a shared counter;
/// `threads` 0 means max(1, hardware_concurrency - 1). With one thread the
/// tasks run inline on the calling thread, so serial and parallel execution
/// share one code path. Workers stop claiming new tasks once the process
/// interrupt flag is raised.
void run_pool(std::size_t count, unsigned threads,
              const std::function<void(std::size_t)>& task);

}  // namespace disco::sim::detail
