// Versioned, checksummed binary snapshot archives for full-system
// checkpoint/restore. The byte-level idiom matches src/sim/wire.{h,cpp}:
// every value is serialized as a lossless bit pattern (doubles travel as
// their IEEE-754 bit images, never as decimal text), so save -> restore ->
// save reproduces identical bytes and a resumed simulation replays
// bit-exactly.
//
// One field list per component. Writer (saving) and Reader (loading) are
// two archives with the same calls: `ar.u16(p.src)` writes the field on
// save and assigns it on load, at the same width. Each stateful component
// has a single body run by both archives, so save and restore cannot drift
// apart:
//
//   void serialize(snap::Writer& w) const { io(*this, w); }
//   void serialize(snap::Reader& r) { io(*this, r); }
//   template <class Self, class Ar>  // Self is const when saving
//   static void io(Self& s, Ar& ar) { ar.u64(s.count_); ar.f64(s.sum_); }
//
// Beyond the fixed-width primitives both archives share a few shapes:
// geometry-checked counts, range-checked enums and indices, sequences,
// sorted-key maps and sets, and optionals. Work that only happens on load
// (rebuilding derived indexes, re-wiring) follows the body as a load-only
// tail, under `if constexpr (Ar::kLoading)` or in the Reader entry point.
//
// File envelope (little-endian):
//   magic   "DSNP"  (4 bytes)
//   version u32     (kSnapshotVersion; mismatches are rejected)
//   length  u64     (payload byte count)
//   crc     u32     (IEEE CRC-32 of the payload)
//   payload ...
//
// Writes are atomic: payload goes to <path>.tmp, is fsync'ed, then renamed
// over <path>, so a crash or SIGINT mid-write leaves only the previous good
// snapshot visible. Every malformed input (truncated file, bit flip, bad
// magic/version/length) is reported as a structured SnapshotError — never
// undefined behaviour. The CRC detects corruption but does not authenticate
// a file, so the Reader also rejects counts past the end of the payload and
// every enum or index a restored component would later dereference.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace disco::snap {

inline constexpr std::uint32_t kSnapshotVersion = 1;

// Fixed-width fields are copied to and from the payload in host byte order.
static_assert(std::endian::native == std::endian::little,
              "snapshot archives assume a little-endian host");

/// Structured snapshot failure: corrupt/truncated/mismatched input or an
/// I/O error. Callers fall back to a from-zero run on catch, on a freshly
/// constructed system: a load that throws midway leaves the target partly
/// overwritten.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `T` as archive `Ar` sees it: const while saving, mutable while loading.
/// Lets one free function template serve both archives for a value type.
template <class Ar, class T>
using Ref = std::conditional_t<Ar::kLoading, T, const T>&;

/// Saving archive: an append-only byte sink with fixed-width little-endian
/// primitives. Every call has a Reader twin with the same arguments.
class Writer {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le<2>(v); }
  void u32(std::uint32_t v) { le<4>(v); }
  void u64(std::uint64_t v) { le<8>(v); }
  void i64(std::int64_t v) { le<8>(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  /// Lossless bit-pattern double (the wire.cpp idiom).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Length-prefixed raw bytes.
  void bytes(std::span<const std::uint8_t> v) {
    u64(v.size());
    raw(v);
  }
  void str(const std::string& s) {
    bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  /// Fixed-size raw bytes (no length prefix; reader knows the size).
  void raw(std::span<const std::uint8_t> v) {
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  /// Capacity hint: a repeated save reserves the previous one's size.
  void reserve(std::size_t n) { buf_.reserve(n); }

  // --- shapes shared with Reader ---
  /// A value the loading side already knows (a geometry count, a digest),
  /// stored at its own width; the loader rejects any other value.
  template <std::integral T>
  void count(T n, const char* /*what*/) {
    le<sizeof(T)>(static_cast<std::uint64_t>(n));
  }
  /// Presence flag of an optional component; returns `has`.
  bool present(bool has, const char* /*what*/) {
    b(has);
    return has;
  }
  /// Enum stored as a u8; `last` is its highest enumerator.
  template <class E>
  void en(E e, E /*last*/) {
    u8(static_cast<std::uint8_t>(e));
  }
  /// Index stored at its own width; the loader rejects v >= bound.
  template <std::integral T>
  void index(T v, std::uint64_t /*bound*/, const char* /*what*/) {
    le<sizeof(T)>(static_cast<std::uint64_t>(v));
  }
  /// Element count, then each element through `f`.
  template <class C, class F>
  void seq(const C& c, F&& f) {
    u64(c.size());
    for (const auto& e : c) f(e);
  }
  /// Fixed-length flag vector, no count.
  void flags(const std::vector<bool>& v) {
    for (const bool f : v) b(f);
  }
  /// Unordered map in sorted key order: count, then u64 key + value each,
  /// so a save -> restore -> save round trip is byte-identical.
  template <class M, class F>
  void map(const M& m, F&& f) {
    // Sort (key, value pointer) pairs, so no value is looked up again.
    std::vector<std::pair<typename M::key_type, const typename M::mapped_type*>>
        entries;
    entries.reserve(m.size());
    for (const auto& [k, v] : m) entries.emplace_back(k, &v);
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    u64(entries.size());
    for (const auto& [k, v] : entries) {
      u64(k);
      f(*v);
    }
  }
  /// Unordered set in sorted order: count, then the u64 keys.
  template <class S>
  void set(const S& s) {
    std::vector<typename S::key_type> keys(s.begin(), s.end());
    std::sort(keys.begin(), keys.end());
    u64(keys.size());
    for (const auto& k : keys) u64(k);
  }
  /// Presence bool, then the value through `f` if present.
  template <class T, class F>
  void opt(const std::optional<T>& o, F&& f) {
    b(o.has_value());
    if (o.has_value()) f(*o);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  /// The low N bytes of `v`, little-endian, appended in one copy.
  template <std::size_t N>
  void le(std::uint64_t v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + N);
    std::memcpy(buf_.data() + at, &v, N);
  }
  std::vector<std::uint8_t> buf_;
};

/// Loading archive: a bounds-checked reader over a snapshot payload. Every
/// read that would run past the end throws SnapshotError, and so does every
/// value a loaded component would later use as an index, so truncated or
/// bit-flipped payloads can never index out of bounds.
class Reader {
 public:
  static constexpr bool kLoading = true;

  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le<2>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le<4>()); }
  std::uint64_t u64() { return le<8>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(le<8>()); }
  bool b() {
    const std::uint8_t v = u8();
    if (v > 1) fail("snapshot: bool byte out of range");
    return v != 0;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::vector<std::uint8_t> bytes();
  std::string str();
  /// Fixed-size raw bytes into `out`.
  void raw(std::span<std::uint8_t> out) {
    std::memcpy(out.data(), take(out.size()).data(), out.size());
  }

  // --- the Writer's calls: read into the field passed by reference ---
  template <std::integral T>
  void u8(T& v) { v = static_cast<T>(u8()); }
  template <std::integral T>
  void u16(T& v) { v = static_cast<T>(u16()); }
  template <std::integral T>
  void u32(T& v) { v = static_cast<T>(u32()); }
  template <std::integral T>
  void u64(T& v) { v = static_cast<T>(u64()); }
  template <std::integral T>
  void i64(T& v) { v = static_cast<T>(i64()); }
  template <std::integral T>
  void b(T& v) { v = b(); }
  void f64(double& v) { v = f64(); }
  void bytes(std::vector<std::uint8_t>& v) { v = bytes(); }
  void str(std::string& s) { s = str(); }

  template <std::integral T>
  void count(T n, const char* what) {
    if (le<sizeof(T)>() != static_cast<std::uint64_t>(n)) fail(what);
  }
  bool present(bool has, const char* what) {
    if (b() != has) fail(what);
    return has;
  }
  template <class E>
  void en(E& e, E last) {
    const std::uint8_t v = u8();
    if (v > static_cast<std::uint8_t>(last)) fail("snapshot: enum value out of range");
    e = static_cast<E>(v);
  }
  template <std::integral T>
  void index(T& v, std::uint64_t bound, const char* what) {
    const std::uint64_t x = le<sizeof(T)>();
    if (x >= bound) fail(what);
    v = static_cast<T>(x);
  }
  template <class C, class F>
  void seq(C& c, F&& f) {
    c.clear();
    for (std::uint64_t n = length(); n > 0; --n) {
      c.push_back(typename C::value_type{});
      f(c.back());
    }
  }
  void flags(std::vector<bool>& v) {
    for (auto&& f : v) f = b();
  }
  /// No simulated behaviour depends on the iteration order of a map a
  /// snapshot holds (walks that feed the simulation sort their keys), so
  /// its bucket count is not simulated state: reserve it.
  template <class M, class F>
  void map(M& m, F&& f) {
    m.clear();
    const std::uint64_t n = length();
    m.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
      f(m[static_cast<typename M::key_type>(u64())]);
  }
  template <class S>
  void set(S& s) {
    s.clear();
    for (std::uint64_t n = length(); n > 0; --n)
      s.insert(static_cast<typename S::key_type>(u64()));
  }
  template <class T, class F>
  void opt(std::optional<T>& o, F&& f) {
    o.reset();
    if (b()) f(o.emplace());
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Assert the payload was consumed exactly (trailing garbage => corrupt).
  void expect_end() const;

 private:
  [[noreturn]] static void fail(const char* what);
  /// An element count; every element takes at least one byte, so a count
  /// past the end of the payload is corrupt before any element is read.
  std::uint64_t length();
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > remaining()) fail("snapshot: truncated payload");
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  /// N little-endian bytes, read in one copy.
  template <std::size_t N>
  std::uint64_t le() {
    std::uint64_t v = 0;
    std::memcpy(&v, take(N).data(), N);
    return v;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Atomically write the concatenated `parts` to `path` as one payload inside
/// the versioned, checksummed envelope: <path>.tmp + fsync + rename. Throws
/// SnapshotError on I/O error (the previous snapshot at `path`, if any, is
/// left untouched).
void write_snapshot_file(const std::string& path,
                         std::span<const std::span<const std::uint8_t>> parts);
inline void write_snapshot_file(const std::string& path,
                                std::span<const std::uint8_t> payload) {
  write_snapshot_file(path, std::span(&payload, 1));
}

/// Read and validate a snapshot file: magic, version, length (against the
/// file size, before the payload is read) and CRC must all match or
/// SnapshotError is thrown. Returns the payload bytes.
std::vector<std::uint8_t> read_snapshot_file(const std::string& path);

}  // namespace disco::snap
