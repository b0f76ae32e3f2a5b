// NoC-layer snapshot helpers: packet-graph interning plus the field lists of
// the value types (Encoded, Flit, VirtualChannel) shared by every component
// that buffers packets. Like every component body, each is one function
// template run by both archives (snap::Writer saves, snap::Reader loads).
//
// Packets are a shared object graph: one PacketPtr may be referenced from a
// VC buffer, a link, a DISCO engine and an NI recovery table at once, and a
// NACK packet holds a recursive nack_ref to the packet it covers. The
// PacketTable interns each distinct Packet* once; references serialize as a
// u32 index (0 = null). On restore the table allocates every packet first
// and then fills fields, so recursive references resolve in one pass and
// shared ownership is reconstructed exactly. The table also carries the
// mesh node count, the bound on the node ids of loaded packets and L2
// directory entries.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/snapshot.h"
#include "noc/packet.h"
#include "noc/vc.h"

namespace disco::noc {

class PacketTable {
 public:
  explicit PacketTable(std::uint32_t nodes) : nodes_(nodes) {}

  /// Node count of the mesh the snapshot belongs to.
  std::uint32_t nodes() const { return nodes_; }

  /// Saving: intern `p` (registering it for the table) and write its u32
  /// reference.
  void ref(snap::Writer& w, const PacketPtr& p) { w.u32(intern(p)); }
  /// Loading: read a u32 reference and resolve it against the loaded table.
  void ref(snap::Reader& r, PacketPtr& p) const;

  /// Serialize the table itself. Call after every component body has been
  /// written (interning is closed under nack_ref via a worklist).
  void save_table(snap::Writer& w);
  /// Deserialize the table: allocate-then-fill, so recursive references
  /// resolve. Call before restoring any component body.
  void load_table(snap::Reader& r);

 private:
  std::uint32_t intern(const PacketPtr& p);
  std::uint32_t nodes_;
  std::unordered_map<const Packet*, std::uint32_t> index_;
  std::vector<PacketPtr> pkts_;
};

// Value-type field lists (all fields, declaration order, lossless). `Tab` is
// PacketTable when saving and const PacketTable when loading; `vcs` bounds
// the VC indices a loaded value may carry.

template <class Ar>
void serialize(Ar& ar, snap::Ref<Ar, compress::Encoded> e) {
  ar.bytes(e.bytes);
  ar.u64(e.overhead_bytes);
}

template <class Ar>
void serialize(Ar& ar, snap::Ref<Ar, std::optional<compress::Encoded>> e) {
  ar.opt(e, [&](auto& v) { serialize<Ar>(ar, v); });
}

template <class Ar, class Tab>
void serialize(Ar& ar, Tab& t, snap::Ref<Ar, Flit> f, std::uint32_t vcs) {
  t.ref(ar, f.pkt);
  ar.u32(f.seq);
  ar.index(f.vc_tag, vcs, "snapshot: flit VC tag out of range");
  ar.u64(f.arrival);
}

template <class Ar, class Tab>
void serialize(Ar& ar, Tab& t, snap::Ref<Ar, VirtualChannel> vc,
               std::uint32_t vcs) {
  ar.seq(vc.buffer, [&](auto& f) { serialize<Ar>(ar, t, f, vcs); });
  ar.en(vc.stage, VcStage::Active);
  ar.en(vc.out_port, Port::Local);
  ar.index(vc.out_vc, vcs, "snapshot: VC out_vc out of range");
  ar.u32(vc.sent_flits);
  ar.u64(vc.head_arrival);
  ar.u32(vc.credit_debt);
  t.ref(ar, vc.active_pkt);
  ar.b(vc.engine_busy);
  ar.b(vc.sa_inhibit);
}

}  // namespace disco::noc
