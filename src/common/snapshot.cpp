#include "common/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"

namespace disco::snap {

namespace {

constexpr std::array<char, 4> kMagic = {'D', 'S', 'N', 'P'};
constexpr std::size_t kHeaderBytes = 20;  // magic, version, length, crc

[[noreturn]] void fail(const std::string& what) { throw SnapshotError(what); }

}  // namespace

std::vector<std::uint8_t> Reader::bytes() {
  const std::uint64_t n = u64();
  if (n > remaining()) fail("snapshot: byte-array length past end of payload");
  const auto s = take(static_cast<std::size_t>(n));
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string Reader::str() {
  const std::uint64_t n = u64();
  if (n > remaining()) fail("snapshot: string length past end of payload");
  const auto s = take(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

void Reader::fail(const char* what) { throw SnapshotError(what); }

std::uint64_t Reader::length() {
  const std::uint64_t n = u64();
  if (n > remaining()) fail("snapshot: element count past end of payload");
  return n;
}

void Reader::expect_end() const {
  if (pos_ != data_.size()) fail("snapshot: trailing bytes after payload");
}

void write_snapshot_file(const std::string& path,
                         std::span<const std::span<const std::uint8_t>> parts) {
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  for (const auto& part : parts) {
    len += part.size();
    crc = crc32(part, crc);
  }
  Writer head;
  head.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic.data()), kMagic.size()));
  head.u32(kSnapshotVersion);
  head.u64(len);
  head.u32(crc);

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("snapshot: cannot open " + tmp + ": " + std::strerror(errno));
  auto write_all = [&](std::span<const std::uint8_t> bytes) {
    const std::uint8_t* p = bytes.data();
    std::size_t n = bytes.size();
    while (n > 0) {
      const ssize_t w = ::write(fd, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        const int e = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        fail("snapshot: write to " + tmp + " failed: " + std::strerror(e));
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  };
  write_all(head.data());
  for (const auto& part : parts) write_all(part);
  if (::fsync(fd) != 0) {
    const int e = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("snapshot: fsync of " + tmp + " failed: " + std::strerror(e));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int e = errno;
    ::unlink(tmp.c_str());
    fail("snapshot: rename to " + path + " failed: " + std::strerror(e));
  }
}

std::vector<std::uint8_t> read_snapshot_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("snapshot: cannot open " + path + ": " + std::strerror(errno));
  const struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  auto read_all = [&](std::span<std::uint8_t> out) {
    while (!out.empty()) {
      const ssize_t r = ::read(fd, out.data(), out.size());
      if (r < 0) {
        if (errno == EINTR) continue;
        fail("snapshot: read of " + path + " failed: " + std::strerror(errno));
      }
      if (r == 0) fail("snapshot: " + path + " ended before its stated size");
      out = out.subspan(static_cast<std::size_t>(r));
    }
  };
  struct stat st {};
  if (::fstat(fd, &st) != 0)
    fail("snapshot: cannot stat " + path + ": " + std::strerror(errno));
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);

  // The envelope is checked against the file size before the payload is
  // read, so the payload lands in one buffer of exactly its size.
  std::array<std::uint8_t, kHeaderBytes> head{};
  if (file_bytes < head.size()) fail("snapshot: file too short for envelope");
  read_all(head);
  Reader r(head);
  std::array<std::uint8_t, 4> magic{};
  r.raw(magic);
  if (std::memcmp(magic.data(), kMagic.data(), 4) != 0)
    fail("snapshot: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion)
    fail("snapshot: version mismatch (file " + std::to_string(version) +
         ", expected " + std::to_string(kSnapshotVersion) + ")");
  const std::uint64_t len = r.u64();
  const std::uint32_t crc = r.u32();
  if (len != file_bytes - head.size()) fail("snapshot: payload length mismatch");
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(len));
  read_all(payload);
  if (crc32(payload) != crc) fail("snapshot: payload checksum mismatch");
  return payload;
}

}  // namespace disco::snap
