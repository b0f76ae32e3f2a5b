#include "noc/router.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "noc/snapshot.h"

namespace disco::noc {
namespace {

/// Effectively infinite credit pool for the ejection (Local) output: the NI
/// reassembly buffer always sinks flits, which protocol-level deadlock
/// freedom relies on.
constexpr std::uint32_t kEjectionCredits = 1u << 30;

}  // namespace

Router::Router(NodeId id, const MeshShape& mesh, const NocConfig& cfg, NocStats& stats)
    : id_(id), mesh_(mesh), cfg_(cfg), stats_(stats) {
  const std::uint32_t vcs = cfg_.num_vcs();
  assert(vcs <= kVcBits && "SystemConfig::validate() caps num_vcs at 8");
  num_vcs_ = vcs;
  for (std::size_t p = 0; p < kNumPorts; ++p)
    all_vcs_ |= ((std::uint64_t{1} << vcs) - 1) << (p * kVcBits);
  input_.resize(static_cast<std::size_t>(kNumPorts) * vcs);
  out_vc_taken_.assign(static_cast<std::size_t>(kNumPorts) * vcs, 0);
  credits_.resize(static_cast<std::size_t>(kNumPorts) * vcs);
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    const bool ejection = static_cast<Port>(p) == Port::Local;
    for (std::uint32_t v = 0; v < vcs; ++v)
      credit(p, v) = ejection ? kEjectionCredits : cfg_.vc_depth_flits;
  }
}

void Router::tick(Cycle now) {
  did_work_ = false;
  receive_credits(now);
  receive_flits(now);
  route_compute(now);
  vc_allocate(now);

  losers_scratch_.clear();
  switch_allocate_and_traverse(now, losers_scratch_);

  if (ext_ != nullptr) {
    ext_->after_allocation(now, losers_scratch_);
    ext_->tick(now);
  }
}

void Router::receive_credits(Cycle now) {
  for (std::uint32_t m = (inbox_ >> kCreditInbox) & kPortBits; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    CreditLink* link = in_credit_[p];
    if (link != nullptr) {
      Credit c;
      while (link->try_pop(now, c)) {
        assert(c.vc < num_vcs_);
        did_work_ = true;
        ++credit(p, c.vc);
        if (tracer_ != nullptr)
          tracer_->emit(now, id_, trace::Event::CreditRecv,
                        static_cast<std::uint8_t>(p), c.vc, 0, 0);
      }
      if (!link->empty()) continue;  // pushed this cycle: visible next tick
    }
    inbox_ &= ~(1u << (kCreditInbox + p));
  }
}

void Router::receive_flits(Cycle now) {
  for (std::uint32_t m = inbox_ & kPortBits; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    FlitLink* link = in_flit_[p];
    if (link != nullptr) {
      Flit f;
      while (link->try_pop(now, f)) {
        assert(f.vc_tag < num_vcs_);
        if (degraded_ && filter_dead_flit(f, p, now)) continue;
        f.arrival = now;
        if (tracer_ != nullptr)
          tracer_->emit(now, id_, trace::Event::BufferWrite,
                        static_cast<std::uint8_t>(p), f.vc_tag, f.pkt->id,
                        static_cast<std::int64_t>(f.seq));
        did_work_ = true;
        const std::uint64_t b = vc_bit(p, f.vc_tag);
        busy_ |= b;
        rc_ |= b;
        in_vc(p, f.vc_tag).buffer.push_back(std::move(f));
        ++stats_.buffer_writes;
      }
      if (!link->empty()) continue;
    }
    inbox_ &= ~(1u << p);
  }
}

void Router::route_compute(Cycle now) {
  for (std::uint64_t mask = rc_; mask != 0; mask &= mask - 1) {
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(mask));
    const std::size_t p = bit / kVcBits;
    const std::uint32_t v = bit % kVcBits;
    const std::uint64_t b = std::uint64_t{1} << bit;
    auto& ch = in_vc(p, v);
    // Re-file VCs already past RC (set by vc() or a body-flit write).
    if (ch.stage == VcStage::VcAlloc) {
      va_ |= b;
      continue;
    }
    if (ch.stage == VcStage::Active) {
      sa_ |= b;
      continue;
    }
    if (ch.buffer.empty()) {
      // Self-clean: the occupancy bit was a false positive (or the VC just
      // drained); drop it once the VC is fully back to reset state.
      if (ch.sent_flits == 0 && !ch.engine_busy && !ch.sa_inhibit &&
          ch.credit_debt == 0 && ch.active_pkt == nullptr)
        busy_ &= ~b;
      continue;
    }
    const Flit& head = ch.buffer.front();
    assert(head.is_head() && "mid-packet flit at VC head in Idle stage");
    if (topo_ == nullptr || topo_->routing_healthy()) {
      ch.out_port = xy_route(mesh_, id_, head.pkt->dst);
    } else {
      Packet& pkt = *head.pkt;
      if (pkt.route_epoch != topo_->epoch()) {
        pkt.route_epoch = topo_->epoch();
        pkt.route_phase = 0;
      }
      ch.out_port = topo_->route(id_, pkt.dst, pkt.route_phase);
      if (ch.out_port != xy_route(mesh_, id_, pkt.dst)) {
        ++stats_.reroutes;
        if (tracer_ != nullptr)
          tracer_->emit(now, id_, trace::Event::TopoReroute,
                        static_cast<std::uint8_t>(p),
                        static_cast<std::uint8_t>(v), pkt.id,
                        static_cast<std::int64_t>(idx(ch.out_port)));
      }
    }
    ch.head_arrival = head.arrival;
    ch.stage = VcStage::VcAlloc;
    va_ |= b;
    if (tracer_ != nullptr)
      tracer_->emit(now, id_, trace::Event::RouteCompute,
                    static_cast<std::uint8_t>(p),
                    static_cast<std::uint8_t>(v), head.pkt->id,
                    static_cast<std::int64_t>(idx(ch.out_port)));
  }
  rc_ = 0;
}

void Router::vc_allocate(Cycle now) {
  // Collect requests per output port, with the sort keys (priority class,
  // round-robin distance) computed once here rather than inside comparator
  // calls. va_rr_ is only advanced after the grant loops, so reading it at
  // collection time sees the same value the old in-sort read did.
  auto& requests = va_requests_;
  std::uint32_t outs = 0;  // output ports with at least one request
  for (std::uint64_t mask = va_; mask != 0; mask &= mask - 1) {
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(mask));
    const std::size_t p = bit / kVcBits;
    const std::uint32_t v = bit % kVcBits;
    VirtualChannel& ch = in_vc(p, v);
    if (ch.stage != VcStage::VcAlloc) {
      va_ &= ~(std::uint64_t{1} << bit);
      continue;
    }
    if (now <= ch.head_arrival) continue;  // stage-2 pipeline constraint
    const std::size_t out = idx(ch.out_port);
    const int prio = priority_class(*ch.head_raw(), cfg_.deprioritize_compressible);
    const std::uint32_t rr = (bit + 64u - va_rr_[out]) % 64u;
    requests[out].push_back(
        {{static_cast<Port>(p), static_cast<std::uint8_t>(v)}, prio, rr});
    outs |= 1u << out;
  }

  for (; outs != 0; outs &= outs - 1) {
    const auto out = static_cast<std::size_t>(std::countr_zero(outs));
    auto& reqs = requests[out];
    stats_.alloc_ops += reqs.size();
    // Priority class first, then round-robin position. Stable insertion
    // sort: request lists are tiny (a handful of VCs) and std::stable_sort's
    // heap-buffered merge showed up in profiles. Same order as stable_sort
    // for any keys (and rr = p * 8 + v - va_rr_ mod 64 is unique per
    // (port, vc) with at most 8 VCs, so no ties exist).
    for (std::size_t i = 1; i < reqs.size(); ++i) {
      const VaReq key = reqs[i];
      std::size_t j = i;
      while (j > 0 && (key.prio < reqs[j - 1].prio ||
                       (key.prio == reqs[j - 1].prio && key.rr < reqs[j - 1].rr))) {
        reqs[j] = reqs[j - 1];
        --j;
      }
      reqs[j] = key;
    }
    bool granted_any = false;
    for (const VaReq& r : reqs) {
      VirtualChannel& ch = in_vc(idx(r.id.port), r.id.vc);
      const auto vnet = static_cast<std::uint32_t>(ch.head_raw()->vnet);
      const std::uint32_t lo = vnet * cfg_.vcs_per_vnet;
      const std::uint32_t hi = lo + cfg_.vcs_per_vnet;
      for (std::uint32_t ov = lo; ov < hi; ++ov) {
        if (taken(out, ov) != 0) continue;
        taken(out, ov) = 1;
        ch.out_vc = static_cast<std::uint8_t>(ov);
        ch.stage = VcStage::Active;
        const std::uint64_t b = vc_bit(idx(r.id.port), r.id.vc);
        va_ &= ~b;
        sa_ |= b;
        granted_any = true;
        if (tracer_ != nullptr)
          tracer_->emit(now, id_, trace::Event::VcAllocGrant,
                        static_cast<std::uint8_t>(r.id.port), r.id.vc,
                        ch.head_raw()->id,
                        static_cast<std::int64_t>((out << 8) | ov));
        break;
      }
    }
    if (granted_any) va_rr_[out] = (va_rr_[out] + 1) % 64u;
    reqs.clear();
  }
}

bool Router::sa_eligible(const VirtualChannel& ch, Cycle now) const {
  if (ch.stage != VcStage::Active || ch.buffer.empty()) return false;
  if (ch.sa_inhibit) return false;  // blocking-mode engine lock
  // Output link severed by a hard fault mid-allocation; the kill scrub
  // resets or condemns this VC before forwarding could resume, so this
  // only guards the same-cycle window. Never fires on a healthy mesh (XY
  // stays on-mesh).
  if (out_flit_[idx(ch.out_port)] == nullptr && ch.out_port != Port::Local)
    return false;
  return ch.buffer.front().arrival + 2 <= now;
}

void Router::switch_allocate_and_traverse(Cycle now, std::vector<VcId>& losers) {
  // Stage 1 (input arbitration): one candidate VC per input port, visiting
  // only VCs that may be Active (candidates) or VcAlloc (stall reports),
  // port by port in VC order.
  std::array<int, kNumPorts> chosen_vc{};
  std::array<int, kNumPorts> chosen_prio{};  // winner's priority, for stage 2
  std::array<std::uint32_t, kNumPorts> requesters{};  // per output: input ports
  std::uint32_t outs = 0;  // outputs some input port chose
  auto& stalled = sa_stalled_;  // eligible work that cannot move this cycle
  stalled.clear();

  for (std::uint64_t work = va_ | sa_; work != 0;) {
    const std::size_t p = static_cast<std::size_t>(std::countr_zero(work)) / kVcBits;
    const std::uint64_t port_bits = std::uint64_t{0xFF} << (p * kVcBits);
    std::uint64_t mask = work & port_bits;
    work &= ~port_bits;
    int best = -1;
    int best_prio = 0;
    std::uint32_t best_rr = 0;
    const std::uint32_t vcs = num_vcs_;
    for (; mask != 0; mask &= mask - 1) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(mask));
      const std::uint32_t v = bit % kVcBits;
      VirtualChannel& ch = in_vc(p, v);
      if (ch.stage != VcStage::Active) sa_ &= ~(std::uint64_t{1} << bit);
      if (!sa_eligible(ch, now)) {
        // VA-blocked packets are also idling candidates for DISCO.
        if (ch.stage == VcStage::VcAlloc && !ch.buffer.empty() &&
            now > ch.head_arrival)
          stalled.push_back({static_cast<Port>(p), static_cast<std::uint8_t>(v)});
        continue;
      }
      // Wormhole forwards flit by flit; virtual cut-through (section 3.3A)
      // only starts a packet when the downstream VC can hold all of it, so
      // packets always sit whole in one node.
      std::uint32_t needed_credits = 1;
      if (cfg_.flow_control == FlowControl::VirtualCutThrough &&
          ch.sent_flits == 0) {
        needed_credits = ch.head_raw()->flit_count();
      }
      if (credit(idx(ch.out_port), ch.out_vc) < needed_credits) {
        stalled.push_back({static_cast<Port>(p), static_cast<std::uint8_t>(v)});
        continue;
      }
      const int prio = priority_class(*ch.head_raw(), cfg_.deprioritize_compressible);
      const std::uint32_t rr_pos = (v + vcs - sa_in_rr_[p]) % vcs;
      if (best < 0 || prio < best_prio || (prio == best_prio && rr_pos < best_rr)) {
        if (best >= 0)
          stalled.push_back({static_cast<Port>(p), static_cast<std::uint8_t>(best)});
        best = static_cast<int>(v);
        best_prio = prio;
        best_rr = rr_pos;
      } else {
        stalled.push_back({static_cast<Port>(p), static_cast<std::uint8_t>(v)});
      }
    }
    if (best < 0) continue;
    chosen_vc[p] = best;
    chosen_prio[p] = best_prio;
    const std::size_t out = idx(in_vc(p, static_cast<std::uint32_t>(best)).out_port);
    requesters[out] |= 1u << p;
    outs |= 1u << out;
    stats_.alloc_ops += 1;
  }

  // Stage 2 (output arbitration): one input per requested output port, in
  // output order, over the input ports that chose a VC routed there.
  std::array<int, kNumPorts> winner_input{};
  for (std::uint32_t o = outs; o != 0; o &= o - 1) {
    const auto out = static_cast<std::size_t>(std::countr_zero(o));
    int best_in = -1;
    int best_prio = 0;
    std::uint32_t best_rr = 0;
    for (std::uint32_t in = requesters[out]; in != 0; in &= in - 1) {
      const auto p = static_cast<std::size_t>(std::countr_zero(in));
      const int prio = chosen_prio[p];  // computed on the same head in stage 1
      const std::uint32_t rr_pos =
          (static_cast<std::uint32_t>(p) + kNumPorts - sa_out_rr_[out]) % kNumPorts;
      if (best_in < 0 || prio < best_prio || (prio == best_prio && rr_pos < best_rr)) {
        if (best_in >= 0)
          stalled.push_back({static_cast<Port>(best_in),
                             static_cast<std::uint8_t>(chosen_vc[best_in])});
        best_in = static_cast<int>(p);
        best_prio = prio;
        best_rr = rr_pos;
      } else {
        stalled.push_back(
            {static_cast<Port>(p), static_cast<std::uint8_t>(chosen_vc[p])});
      }
    }
    winner_input[out] = best_in;
    sa_out_rr_[out] = (static_cast<std::uint32_t>(best_in) + 1) % kNumPorts;
  }

  // Stage 3: switch traversal for winners.
  for (; outs != 0; outs &= outs - 1) {
    const auto out = static_cast<std::size_t>(std::countr_zero(outs));
    const int p = winner_input[out];
    const VcId vid{static_cast<Port>(p), static_cast<std::uint8_t>(chosen_vc[p])};
    did_work_ = true;
    VirtualChannel& ch = in_vc(static_cast<std::size_t>(p), vid.vc);
    sa_in_rr_[p] = (static_cast<std::uint32_t>(chosen_vc[p]) + 1) % num_vcs_;

    Flit f = std::move(ch.buffer.front());
    ch.buffer.pop_front();
    const bool tail = f.is_tail();
    if (ch.sent_flits == 0) ch.active_pkt = f.pkt;
    f.vc_tag = ch.out_vc;

    bool dropped = false;
    if (injector_ != nullptr && injector_->enabled()) {
      // One bit-flip coin per packet per link hop, tossed at the head flit.
      if (f.seq == 0 && f.pkt->has_data && f.pkt->compressed())
        injector_->corrupt_link_payload(f.pkt->encoded->bytes);
      // Only body non-tail flits may be lost: the head keeps routing/VA
      // state sane downstream and the tail keeps wormhole framing intact.
      if (f.seq > 0 && !tail && f.pkt->has_data &&
          injector_->should_drop_flit())
        dropped = true;
    }

    ++stats_.buffer_reads;
    if (!dropped) {
      assert(out_flit_[out] != nullptr && "ST to unconnected port");
      if (tracer_ != nullptr)
        tracer_->emit(now, id_, trace::Event::SwitchTraversal,
                      static_cast<std::uint8_t>(p),
                      static_cast<std::uint8_t>(chosen_vc[p]), f.pkt->id,
                      trace::st_arg(tail, static_cast<std::uint8_t>(out),
                                    ch.out_vc, f.seq));
      out_flit_[out]->push(now, std::move(f));
      ++stats_.crossbar_traversals;
      ++stats_.link_flits;
      assert(credit(out, ch.out_vc) > 0);
      --credit(out, ch.out_vc);
    }
    // A dropped flit still frees its input buffer slot, so the upstream
    // credit must be returned either way (credit conservation).
    send_credit_for_pop(vid, now);

    ++ch.sent_flits;
    if (ch.engine_busy && ch.sent_flits == 1 && ext_ != nullptr) {
      ext_->on_shadow_departed(now, vid);
    }
    if (tail) {
      taken(out, ch.out_vc) = 0;
      ch.stage = VcStage::Idle;
      ch.sent_flits = 0;
      ch.active_pkt.reset();
      // The next packet (or the drained VC's self-clean) is RC's now.
      const std::uint64_t b = vc_bit(static_cast<std::size_t>(p), vid.vc);
      sa_ &= ~b;
      rc_ |= b;
    }
  }

  // Report stalls: eligible-but-not-moved VCs idle this cycle.
  for (const VcId& v : stalled) {
    VirtualChannel& ch = in_vc(idx(v.port), v.vc);
    if (ch.buffer.empty()) continue;
    ++ch.head_raw()->idle_cycles;
    ++stats_.sa_idle_losses;
    losers.push_back(v);
  }
}

void Router::send_credit_for_pop(const VcId& v, Cycle now) {
  VirtualChannel& ch = in_vc(idx(v.port), v.vc);
  if (ch.credit_debt > 0) {
    --ch.credit_debt;  // absorb the slot consumed by an earlier expansion
    return;
  }
  if (out_credit_[idx(v.port)] == nullptr) return;
  out_credit_[idx(v.port)]->push(now, Credit{v.vc});
  ++stats_.credits_sent;
  if (tracer_ != nullptr)
    tracer_->emit(now, id_, trace::Event::CreditSend,
                  static_cast<std::uint8_t>(v.port), v.vc, 0, 0);
}

std::uint32_t Router::downstream_occupancy(Port out) const {
  if (out == Port::Local) return 0;
  std::uint32_t occupied = 0;
  for (std::uint32_t v = 0; v < num_vcs_; ++v) {
    const std::uint32_t c = credit(idx(out), v);
    occupied += cfg_.vc_depth_flits - std::min(c, cfg_.vc_depth_flits);
  }
  return occupied;
}

std::uint32_t Router::competing_vcs(Port out, const VcId& self) const {
  std::uint32_t n = 0;
  for (std::uint64_t mask = busy_; mask != 0; mask &= mask - 1) {
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(mask));
    const std::size_t p = bit / kVcBits;
    const std::uint32_t v = bit % kVcBits;
    const VirtualChannel& ch = in_vc(p, v);
    if (ch.stage == VcStage::Idle || ch.buffer.empty()) continue;
    if (ch.out_port != out) continue;
    if (static_cast<Port>(p) == self.port && v == self.vc) continue;
    ++n;
  }
  return n;
}

bool Router::rebuild_head_packet(const VcId& v, std::uint32_t old_flit_count, Cycle now) {
  VirtualChannel& ch = vc(v);
  const PacketPtr pkt = ch.head_packet();
  if (!pkt || ch.sent_flits != 0) return false;
  if (ch.buffered_flits_of_head() != old_flit_count) return false;

  ch.buffer.erase(ch.buffer.begin(), ch.buffer.begin() + old_flit_count);
  const std::uint32_t new_count = pkt->flit_count();
  for (std::uint32_t i = new_count; i-- > 0;) {
    Flit f;
    f.pkt = pkt;
    f.seq = i;
    f.vc_tag = v.vc;
    f.arrival = now;
    ch.buffer.push_front(std::move(f));
  }

  if (tracer_ != nullptr)
    tracer_->emit(now, id_, trace::Event::Rebuild,
                  static_cast<std::uint8_t>(v.port), v.vc, pkt->id,
                  static_cast<std::int64_t>(new_count) -
                      static_cast<std::int64_t>(old_flit_count));
  if (new_count < old_flit_count) {
    // Compression shrank the packet: retrieve the saved buffer space by
    // sending bonus credits upstream (paper section 3.2 step 3).
    for (std::uint32_t i = 0; i < old_flit_count - new_count; ++i)
      send_credit_for_pop(v, now);
  } else {
    // Decompression grew the packet: swallow future credits until the
    // engine-staging overflow is paid back.
    ch.credit_debt += new_count - old_flit_count;
  }
  return true;
}

std::uint64_t Router::total_buffered_flits() const {
  std::uint64_t n = 0;
  for (const auto& ch : input_) n += ch.buffer.size();
  return n;
}

void Router::stall_census(StallCensus& c) const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const VirtualChannel& ch = in_vc(p, v);
      c.buffered_flits += ch.buffer.size();
      if (ch.stage == VcStage::VcAlloc) {
        ++c.waiting_alloc_vcs;
      } else if (ch.stage == VcStage::Active) {
        ++c.active_vcs;
        if (credit(idx(ch.out_port), ch.out_vc) == 0) ++c.blocked_vcs;
      }
    }
  }
}

bool Router::quiescent() const { return total_buffered_flits() == 0; }

bool Router::can_sleep() const {
  // Fast path: a tick that received or forwarded anything left state behind
  // that the scan below would find anyway (non-empty buffers, active VCs).
  // Saying "no" without scanning is always safe — the only cost is at most
  // one extra awake no-op tick, which touches no stats, traces or snapshot
  // state (elision telemetry is deliberately excluded from all three).
  if (did_work_) return false;
  // Anything still in flight on an input wire needs a tick to be received,
  // even though the push already raised the pending-wake flag (restored
  // snapshots carry link contents without wake state). Non-empty wires all
  // have their inbox bit set, so only set bits need inspecting.
  for (std::uint32_t m = inbox_; m != 0; m &= m - 1) {
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(m));
    const bool nonempty = bit < kCreditInbox
                              ? in_flit_[bit] != nullptr && !in_flit_[bit]->empty()
                              : in_credit_[bit - kCreditInbox] != nullptr &&
                                    !in_credit_[bit - kCreditInbox]->empty();
    if (nonempty) return false;
  }
  // Occupied VCs all have their busy bit set (conservative superset), so
  // only set bits need inspecting. no_pending_work() below deliberately
  // keeps the full scan so traced runs cross-check this shortcut.
  for (std::uint64_t mask = busy_; mask != 0; mask &= mask - 1) {
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(mask));
    const VirtualChannel& ch = in_vc(bit / kVcBits, bit % kVcBits);
    if (ch.stage != VcStage::Idle || !ch.buffer.empty() ||
        ch.sent_flits != 0 || ch.engine_busy)
      return false;
  }
  // credit_debt with an empty buffer is safe to sleep on: the debt is only
  // ever settled against credits arriving on a wire, which wakes us.
  return ext_ == nullptr || ext_->idle();
}

bool Router::no_pending_work(Cycle now) const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    if (in_flit_[p] != nullptr && !in_flit_[p]->empty() &&
        in_flit_[p]->front_ready() <= now)
      return false;
    if (in_credit_[p] != nullptr && !in_credit_[p]->empty() &&
        in_credit_[p]->front_ready() <= now)
      return false;
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const VirtualChannel& ch = in_vc(p, v);
      if (ch.stage != VcStage::Idle || !ch.buffer.empty() ||
          ch.sent_flits != 0 || ch.engine_busy)
        return false;
    }
  }
  return ext_ == nullptr || ext_->idle();
}

bool Router::work_masks_cover_state() const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const VirtualChannel& ch = in_vc(p, v);
      const std::uint64_t b = vc_bit(p, v);
      const bool reset = ch.buffer.empty() && ch.stage == VcStage::Idle &&
                         ch.sent_flits == 0 && !ch.engine_busy &&
                         !ch.sa_inhibit && ch.credit_debt == 0 &&
                         ch.active_pkt == nullptr;
      if (!reset && (busy_ & b) == 0) return false;
      switch (ch.stage) {
        case VcStage::Idle:
          if (!ch.buffer.empty() && (rc_ & b) == 0) return false;
          break;
        case VcStage::VcAlloc:
          if (((rc_ | va_) & b) == 0) return false;
          break;
        case VcStage::Active:
          if (((rc_ | sa_) & b) == 0) return false;
          break;
      }
    }
    if (in_flit_[p] != nullptr && !in_flit_[p]->empty() &&
        (inbox_ & (1u << p)) == 0)
      return false;
    if (in_credit_[p] != nullptr && !in_credit_[p]->empty() &&
        (inbox_ & (1u << (kCreditInbox + p))) == 0)
      return false;
  }
  return true;
}

void Router::mark_all() {
  busy_ = rc_ = va_ = sa_ = all_vcs_;
  inbox_ = kPortBits | (kPortBits << kCreditInbox);
}

bool Router::filter_dead_flit(const Flit& f, std::size_t p, Cycle now) {
  const PacketPtr& pkt = f.pkt;
  bool drop = condemned_ != nullptr && condemned_->count(pkt->id) > 0;
  if (!drop && topo_ != nullptr &&
      (!topo_->unit_alive(pkt->dst, pkt->dst_unit) ||
       !topo_->reachable(id_, pkt->dst))) {
    drop = true;
    if (doomed_cb_) doomed_cb_(pkt, now);
  }
  if (!drop) return false;
  ++stats_.dead_component_drops;
  // The flit never occupies a buffer slot, so the upstream sender's credit
  // comes straight back (conservation holds through the destruction).
  if (out_credit_[p] != nullptr) {
    out_credit_[p]->push(now, Credit{f.vc_tag});
    ++stats_.credits_sent;
    if (tracer_ != nullptr)
      tracer_->emit(now, id_, trace::Event::CreditSend,
                    static_cast<std::uint8_t>(p), f.vc_tag, 0, 0);
  }
  if (tracer_ != nullptr)
    tracer_->emit(now, id_, trace::Event::TopoFlitsKilled,
                  static_cast<std::uint8_t>(p), f.vc_tag, pkt->id, 1);
  return true;
}

void Router::disconnect_port(Port p) {
  in_flit_[idx(p)] = nullptr;
  out_flit_[idx(p)] = nullptr;
  in_credit_[idx(p)] = nullptr;
  out_credit_[idx(p)] = nullptr;
}

void Router::collect_severed(std::vector<PacketPtr>& out) const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const VirtualChannel& ch = in_vc(p, v);
      if (ch.sent_flits == 0 || ch.active_pkt == nullptr) continue;
      if (ch.out_port == Port::Local) continue;  // ejection never dies alone
      if (out_flit_[idx(ch.out_port)] != nullptr) continue;
      out.push_back(ch.active_pkt);
    }
  }
}

void Router::collect_buffered_packets(std::vector<PacketPtr>& out) const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const VirtualChannel& ch = in_vc(p, v);
      if (ch.sent_flits > 0 && ch.active_pkt != nullptr)
        out.push_back(ch.active_pkt);
      const Packet* last = nullptr;
      for (const Flit& f : ch.buffer) {
        if (f.pkt.get() == last) continue;  // runs are contiguous
        last = f.pkt.get();
        out.push_back(f.pkt);
      }
    }
  }
}

std::uint64_t Router::scrub_condemned(Cycle now) {
  if (condemned_ == nullptr || condemned_->empty()) return 0;
  mark_all();
  std::uint64_t killed = 0;
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      VirtualChannel& ch = in_vc(p, v);
      const VcId vid{static_cast<Port>(p), static_cast<std::uint8_t>(v)};
      // Reset the pipeline state if the packet owning it is condemned.
      const PacketPtr owner =
          ch.sent_flits > 0 ? ch.active_pkt : ch.head_packet();
      if (ch.stage != VcStage::Idle && owner != nullptr &&
          condemned_->count(owner->id) > 0) {
        if (ch.engine_busy && ext_ != nullptr)
          ext_->on_shadow_departed(now, vid);  // abort the engine's copy
        if (ch.stage == VcStage::Active)
          taken(idx(ch.out_port), ch.out_vc) = 0;
        ch.stage = VcStage::Idle;
        ch.sent_flits = 0;
        ch.active_pkt.reset();
        ch.sa_inhibit = false;
        if (tracer_ != nullptr)
          tracer_->emit(now, id_, trace::Event::TopoVcReset,
                        static_cast<std::uint8_t>(p),
                        static_cast<std::uint8_t>(v), owner->id, 0);
      }
      // Destroy every buffered flit of any condemned packet (head or a
      // queued run behind it). Per-flit credit returns keep conservation:
      // expansion debt is absorbed first, exactly as normal pops would.
      for (auto it = ch.buffer.begin(); it != ch.buffer.end();) {
        if (condemned_->count(it->pkt->id) > 0) {
          it = ch.buffer.erase(it);
          ++killed;
          send_credit_for_pop(vid, now);
        } else {
          ++it;
        }
      }
    }
  }
  if (killed > 0) {
    stats_.flits_destroyed += killed;
    if (tracer_ != nullptr)
      tracer_->emit(now, id_, trace::Event::TopoFlitsKilled, 0, 0, 0,
                    static_cast<std::int64_t>(killed));
  }
  return killed;
}

void Router::reset_unsent_vcs(Cycle now) {
  mark_all();
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      VirtualChannel& ch = in_vc(p, v);
      if (ch.stage == VcStage::Idle || ch.sent_flits > 0) continue;
      if (ch.stage == VcStage::Active)
        taken(idx(ch.out_port), ch.out_vc) = 0;
      ch.stage = VcStage::Idle;
      ch.active_pkt.reset();
      // engine_busy survives: the compression still targets the head
      // packet, which re-routes in place under the new tables.
      if (tracer_ != nullptr)
        tracer_->emit(now, id_, trace::Event::TopoVcReset,
                      static_cast<std::uint8_t>(p),
                      static_cast<std::uint8_t>(v),
                      ch.head_packet() ? ch.head_packet()->id : 0, 0);
    }
  }
}

std::uint64_t Router::drain_dead(std::vector<PacketPtr>& inflight, Cycle now) {
  mark_all();
  std::uint64_t killed = 0;
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      VirtualChannel& ch = in_vc(p, v);
      if (ch.sent_flits > 0 && ch.active_pkt != nullptr)
        inflight.push_back(ch.active_pkt);
      const Packet* last = nullptr;
      for (const Flit& f : ch.buffer) {
        if (f.pkt.get() == last) continue;
        last = f.pkt.get();
        inflight.push_back(f.pkt);
      }
      killed += ch.buffer.size();
      ch.buffer.clear();
      ch.stage = VcStage::Idle;
      ch.sent_flits = 0;
      ch.credit_debt = 0;
      ch.engine_busy = false;
      ch.sa_inhibit = false;
      ch.active_pkt.reset();
    }
  }
  stats_.flits_destroyed += killed;
  if (killed > 0 && tracer_ != nullptr)
    tracer_->emit(now, id_, trace::Event::TopoFlitsKilled, 0, 0, 0,
                  static_cast<std::int64_t>(killed));
  return killed;
}

bool Router::credits_quiescent() const {
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    if (static_cast<Port>(p) == Port::Local) continue;
    if (out_flit_[p] == nullptr) continue;  // mesh edge
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      if (credit(p, v) != cfg_.vc_depth_flits) return false;
    }
  }
  for (const VirtualChannel& ch : input_) {
    if (ch.credit_debt != 0) return false;
  }
  return true;
}

template <class Self, class Ar, class Tab>
void Router::io(Self& s, Ar& ar, Tab& t) {
  const std::uint32_t vcs = s.num_vcs_;
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    for (std::uint32_t v = 0; v < vcs; ++v)
      noc::serialize(ar, t, s.in_vc(p, v), vcs);
    for (std::uint32_t v = 0; v < vcs; ++v) ar.u32(s.credit(p, v));
    for (std::uint32_t v = 0; v < vcs; ++v) ar.b(s.taken(p, v));
  }
  for (auto& v : s.va_rr_) ar.u32(v);
  for (auto& v : s.sa_in_rr_) ar.u32(v);
  for (auto& v : s.sa_out_rr_) ar.u32(v);
  ar.b(s.degraded_);
}

void Router::serialize(snap::Writer& w, PacketTable& t) const {
  io(*this, w, t);
}

void Router::serialize(snap::Reader& r, const PacketTable& t) {
  io(*this, r, t);
  // Restored VCs and wires may hold arbitrary state (the owning Network
  // restores the wires after this); the stages re-derive exact masks.
  mark_all();
}

}  // namespace disco::noc
