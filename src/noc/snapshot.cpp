#include "noc/snapshot.h"

#include "noc/packet_pool.h"

namespace disco::noc {

namespace {

template <class Ar, class Tab>
void serialize(Ar& ar, Tab& t, snap::Ref<Ar, Packet> p) {
  ar.u64(p.id);
  ar.index(p.src, t.nodes(), "snapshot: packet source node out of range");
  ar.index(p.dst, t.nodes(), "snapshot: packet destination node out of range");
  ar.en(p.src_unit, UnitKind::MemCtrl);
  ar.en(p.dst_unit, UnitKind::MemCtrl);
  ar.en(p.vnet, VNet::Coherence);
  ar.u8(p.proto_msg);
  ar.u64(p.addr);
  ar.b(p.has_data);
  ar.b(p.compressible);
  ar.b(p.critical);
  ar.b(p.comp_failed);
  ar.b(p.was_compressed);
  ar.b(p.from_dram);
  ar.b(p.decompressed_in_network);
  ar.raw(p.data);
  noc::serialize(ar, p.encoded);
  ar.u32(p.payload_crc);
  ar.b(p.crc_valid);
  ar.u32(p.retry);
  ar.u64(p.retransmit_of);
  ar.u64(p.nack_for);
  // nack_ref is a non-owning handle: it travels as a real reference (null
  // if stale), so a live target round-trips as an interned table id and a
  // stale handle as id 0.
  PacketPtr nack;
  if constexpr (!Ar::kLoading) nack = packet_pool().resolve(p.nack_ref);
  t.ref(ar, nack);
  if constexpr (Ar::kLoading)
    p.nack_ref = nack != nullptr ? packet_pool().handle_of(nack.get())
                                 : PacketHandle{};
  ar.u8(p.route_phase);
  ar.u32(p.route_epoch);
  ar.u64(p.created);
  ar.u64(p.injected);
  ar.u64(p.ejected);
  ar.u32(p.hops);
  ar.u64(p.idle_cycles);
}

}  // namespace

std::uint32_t PacketTable::intern(const PacketPtr& p) {
  if (p == nullptr) return 0;
  const auto it = index_.find(p.get());
  if (it != index_.end()) return it->second;
  pkts_.push_back(p);
  const auto idx = static_cast<std::uint32_t>(pkts_.size());  // 1-based
  index_.emplace(p.get(), idx);
  return idx;
}

void PacketTable::save_table(snap::Writer& w) {
  // A packet's body interns its nack_ref target, which may grow the
  // worklist. Close the table first, in the same order the bodies would
  // intern, so the count is known before the bodies are written.
  for (std::size_t i = 0; i < pkts_.size(); ++i)
    intern(packet_pool().resolve(pkts_[i]->nack_ref));
  w.u32(static_cast<std::uint32_t>(pkts_.size()));
  for (std::size_t i = 0; i < pkts_.size(); ++i)
    serialize<snap::Writer>(w, *this, *pkts_[i]);
}

void PacketTable::load_table(snap::Reader& r) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining())
    throw snap::SnapshotError("snapshot: packet count past end of payload");
  pkts_.clear();
  pkts_.reserve(n);
  // Allocate first so forward/recursive references resolve while filling.
  for (std::uint32_t i = 0; i < n; ++i) pkts_.push_back(make_packet());
  for (const PacketPtr& p : pkts_) serialize<snap::Reader>(r, *this, *p);
}

void PacketTable::ref(snap::Reader& r, PacketPtr& p) const {
  const std::uint32_t idx = r.u32();
  if (idx > pkts_.size())
    throw snap::SnapshotError("snapshot: packet reference out of range");
  p = idx == 0 ? nullptr : pkts_[idx - 1];
}

}  // namespace disco::noc
