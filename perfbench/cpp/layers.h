// Forwarding wrappers that time a simulator layer from outside. Each one
// implements the layer's public interface, forwards every call unchanged
// to the real object, and records a span around the calls worth timing.
// They never alter arguments or results, so a run with the wrappers
// installed simulates exactly what a run without them does (the benchmark
// checks this by comparing result digests).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compress/algorithm.h"
#include "noc/ni.h"
#include "noc/router.h"
#include "spans.h"

namespace perfbench {

/// compress::Algorithm that times compress() and decompress().
class TimedAlgorithm final : public disco::compress::Algorithm {
 public:
  TimedAlgorithm(const disco::compress::Algorithm& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  std::string_view name() const override { return inner_.name(); }
  disco::compress::LatencyModel latency() const override {
    return inner_.latency();
  }
  double hardware_overhead() const override {
    return inner_.hardware_overhead();
  }
  disco::compress::Encoded compress(
      const disco::BlockBytes& block) const override {
    Span s(&rec_, "compress.compress");
    return inner_.compress(block);
  }
  disco::BlockBytes decompress(
      std::span<const std::uint8_t> enc) const override {
    Span s(&rec_, "compress.decompress");
    return inner_.decompress(enc);
  }

 private:
  const disco::compress::Algorithm& inner_;
  SpanRecorder& rec_;
};

/// noc::RouterExtension around a DiscoUnit (or any extension) that times
/// the arbitrator (after_allocation), the engines (tick) and shadow aborts.
class TimedExtension final : public disco::noc::RouterExtension {
 public:
  TimedExtension(std::unique_ptr<disco::noc::RouterExtension> inner,
                 SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  void after_allocation(disco::Cycle now,
                        const std::vector<disco::noc::VcId>& losers) override {
    Span s(&rec_, "disco.after_allocation");
    inner_->after_allocation(now, losers);
  }
  void on_shadow_departed(disco::Cycle now,
                          const disco::noc::VcId& vc) override {
    Span s(&rec_, "disco.on_shadow_departed");
    inner_->on_shadow_departed(now, vc);
  }
  void tick(disco::Cycle now) override {
    Span s(&rec_, "disco.tick");
    inner_->tick(now);
  }
  void on_hard_fault(disco::Cycle now) override { inner_->on_hard_fault(now); }
  bool idle() const override { return inner_->idle(); }
  void save_state(disco::snap::Writer& w,
                  disco::noc::PacketTable& t) const override {
    inner_->save_state(w, t);
  }
  void restore_state(disco::snap::Reader& r,
                     const disco::noc::PacketTable& t) override {
    inner_->restore_state(r, t);
  }

 private:
  std::unique_ptr<disco::noc::RouterExtension> inner_;
  SpanRecorder& rec_;
};

/// noc::PacketSink re-registered over an L1Cache / L2Bank / MemCtrl; times
/// each delivery under `name`.
class TimedSink final : public disco::noc::PacketSink {
 public:
  TimedSink(disco::noc::PacketSink& inner, SpanRecorder& rec,
            const char* name)
      : inner_(inner), rec_(rec), name_(name) {}

  void deliver(disco::noc::PacketPtr pkt, disco::Cycle now) override {
    Span s(&rec_, name_);
    inner_.deliver(std::move(pkt), now);
  }

 private:
  disco::noc::PacketSink& inner_;
  SpanRecorder& rec_;
  const char* name_;
};

/// Per-algorithm codec figures over one block set.
struct CodecFigures {
  std::string algorithm;
  double comp_ns_per_block = 0;
  double decomp_ns_per_block = 0;
  double ratio = 0;       ///< original bytes / encoded bytes
  std::size_t blocks = 0;
  std::size_t roundtrip_failures = 0;  ///< decompress(compress(b)) != b
};

/// Time compress() and decompress() of `algorithm` over `blocks`, repeating
/// the block set `reps` times, and check every block's round trip. SC2 is
/// first retrained on `training` (the workload's own values, as CmpSystem
/// does during construction).
CodecFigures measure_codec(const std::string& algorithm,
                           const std::vector<disco::BlockBytes>& blocks,
                           const std::vector<disco::BlockBytes>& training,
                           int reps);

}  // namespace perfbench
