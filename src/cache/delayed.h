// Helper used by every controller to model fixed processing latencies:
// packets scheduled for injection at a future cycle, drained into the NI by
// the controller's tick.
//
// Implemented as an explicit binary heap (vector + std::push_heap/pop_heap)
// rather than std::priority_queue so checkpointing can walk the entries: the
// snapshot serializes a (when, seq)-sorted copy — a canonical form that is
// byte-identical regardless of the heap's internal layout — and restore
// rebuilds the heap from it. Pop order depends only on the (when, seq) total
// order, so the restored queue drains exactly like the original.
#pragma once

#include <algorithm>
#include <vector>

#include "noc/ni.h"
#include "noc/snapshot.h"

namespace disco::cache {

class DelayedInjector {
 public:
  explicit DelayedInjector(noc::NetworkInterface& ni) : ni_(ni) {}

  noc::NetworkInterface& ni() { return ni_; }

  void schedule(noc::PacketPtr pkt, Cycle when) {
    queue_.push_back(Entry{when, seq_++, std::move(pkt)});
    std::push_heap(queue_.begin(), queue_.end(), Entry::later);
  }

  void tick(Cycle now) {
    while (!queue_.empty() && queue_.front().when <= now) {
      std::pop_heap(queue_.begin(), queue_.end(), Entry::later);
      noc::PacketPtr pkt = std::move(queue_.back().pkt);
      queue_.pop_back();
      ni_.inject(std::move(pkt), now);
    }
  }

  bool idle() const { return queue_.empty(); }

  /// Hard-fault drain: move every pending packet out (FIFO order) and clear
  /// the queue. The system resolves the orphans against the live topology.
  void take_all(std::vector<noc::PacketPtr>& out) {
    while (!queue_.empty()) {
      std::pop_heap(queue_.begin(), queue_.end(), Entry::later);
      out.push_back(std::move(queue_.back().pkt));
      queue_.pop_back();
    }
  }

  void serialize(snap::Writer& w, noc::PacketTable& t) const { io(*this, w, t); }
  void serialize(snap::Reader& r, const noc::PacketTable& t) { io(*this, r, t); }

 private:
  template <class Self, class Ar, class Tab>
  static void io(Self& s, Ar& ar, Tab& t) {
    std::vector<Entry> entries;  // the canonical (when, seq) order
    if constexpr (!Ar::kLoading) {
      entries = s.queue_;
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return Entry::later(b, a); });
    }
    ar.seq(entries, [&](auto& e) {
      ar.u64(e.when);
      ar.u64(e.seq);
      t.ref(ar, e.pkt);
    });
    ar.u64(s.seq_);
    if constexpr (Ar::kLoading) {
      s.queue_ = std::move(entries);
      std::make_heap(s.queue_.begin(), s.queue_.end(), Entry::later);
    }
  }

  struct Entry {
    Cycle when;
    std::uint64_t seq;  ///< FIFO tie-break for same-cycle entries
    noc::PacketPtr pkt;

    /// Heap comparator: "a fires later than b" — keeps the earliest entry
    /// at the front of the max-heap the std heap algorithms maintain.
    static bool later(const Entry& a, const Entry& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  noc::NetworkInterface& ni_;
  std::vector<Entry> queue_;
  std::uint64_t seq_ = 0;
};

}  // namespace disco::cache
