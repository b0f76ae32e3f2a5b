#include "cache/mem_ctrl.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "noc/snapshot.h"

namespace disco::cache {

MemCtrl::MemCtrl(NodeId node, const MemConfig& cfg, noc::NetworkInterface& ni,
                 ValueSynthFn synth, CacheStats& stats)
    : node_(node), cfg_(cfg), synth_(std::move(synth)), stats_(stats), out_(ni) {
  bank_free_at_.assign(cfg_.banks, 0);
}

const BlockBytes& MemCtrl::read_block(Addr addr) {
  const Addr a = block_align(addr);
  auto it = store_.find(a);
  if (it == store_.end()) it = store_.emplace(a, synth_(a)).first;
  return it->second;
}

void MemCtrl::write_block(Addr addr, const BlockBytes& data) {
  store_[block_align(addr)] = data;
}

void MemCtrl::deliver(noc::PacketPtr pkt, Cycle now) {
  switch (msg_of(*pkt)) {
    case Msg::MemRead: {
      ++stats_.dram_reads;
      const std::size_t bank = bank_of(pkt->addr);
      const Cycle start = std::max(now, bank_free_at_[bank]);
      const Cycle ready = start + cfg_.access_latency;
      bank_free_at_[bank] = start + cfg_.bank_busy_cycles;

      noc::PacketPtr resp =
          make_packet(out_.ni().mint_protocol_id(), Msg::MemData, pkt->addr,
                      node_, UnitKind::MemCtrl, pkt->src, UnitKind::L2Bank,
                      now);
      resp->data = read_block(pkt->addr);
      out_.schedule(std::move(resp), ready);
      break;
    }
    case Msg::MemWB: {
      ++stats_.dram_writes;
      const std::size_t bank = bank_of(pkt->addr);
      bank_free_at_[bank] =
          std::max(now, bank_free_at_[bank]) + cfg_.bank_busy_cycles;
      // DRAM cannot hold compressed lines (alignment/mapping, paper sec. 1):
      // the NI already decompressed the payload before delivery.
      assert(!pkt->compressed() && "compressed block reached DRAM");
      write_block(pkt->addr, pkt->data);
      break;
    }
    default:
      assert(false && "unexpected message at memory controller");
  }
}

void MemCtrl::tick(Cycle now) { out_.tick(now); }

template <class Self, class Ar, class Tab>
void MemCtrl::io(Self& s, Ar& ar, Tab& t) {
  s.out_.serialize(ar, t);
  ar.count(s.bank_free_at_.size(), "snapshot: DRAM bank-count mismatch");
  for (auto& c : s.bank_free_at_) ar.u64(c);
  ar.map(s.store_, [&](auto& blk) { ar.raw(blk); });
}

void MemCtrl::serialize(snap::Writer& w, noc::PacketTable& t) const {
  io(*this, w, t);
}
void MemCtrl::serialize(snap::Reader& r, const noc::PacketTable& t) {
  io(*this, r, t);
}

}  // namespace disco::cache
