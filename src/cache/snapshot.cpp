#include "cache/snapshot.h"

#include <array>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace merlin {

namespace {

// Section vocabulary of the container (snapshot.h has the framing).
constexpr std::uint32_t kSectionMeta = 1;
constexpr std::uint32_t kSectionShard = 2;
constexpr std::uint32_t kSectionEnd = 3;

// -- CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) -----------------

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data)
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// -- little-endian field codec ----------------------------------------------
// Same byte discipline as the wire protocol, but local: the cache layer
// cannot depend on serve/, and a file format should not borrow another
// format's framing anyway.

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Bounds-latching reader: any underrun flips ok() and every later read
/// returns zero, so parsing code can run to the end and check once.  No
/// read ever touches bytes past the buffer — a hostile length cannot make
/// the loader crash or balloon an allocation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(
               data_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
               data_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// -- entry codec ------------------------------------------------------------

void encode_entry(std::string& out, const CacheEntry& e) {
  put_u64(out, e.key.hi);
  put_u64(out, e.key.lo);
  put_u32(out, static_cast<std::uint32_t>(e.curves.size()));
  for (const std::vector<Solution>& curve : e.curves) {
    put_u32(out, static_cast<std::uint32_t>(curve.size()));
    for (const Solution& s : curve) {
      put_f64(out, s.req_time);
      put_f64(out, s.load);
      put_f64(out, s.area);
      put_f64(out, s.wirelen);
      put_u32(out, s.node);
    }
  }
  put_u32(out, static_cast<std::uint32_t>(e.nodes.size()));
  for (const SolNode& n : e.nodes) {
    put_u8(out, static_cast<std::uint8_t>(n.kind));
    put_i32(out, n.idx);
    put_i32(out, n.at.x);
    put_i32(out, n.at.y);
    put_f64(out, n.wire_width);
    put_u32(out, n.a);
    put_u32(out, n.b);
  }
}

/// Decodes one entry and validates its internal invariants: node links are
/// child-before-parent (each link addresses an earlier node or kNullSol),
/// solution provenance stays inside the entry, step kinds are known.  A
/// violation means corruption the CRC happened to pass through — refuse it.
bool decode_entry(ByteReader& r, CacheEntry& e) {
  e.key.hi = r.u64();
  e.key.lo = r.u64();
  const std::uint32_t ncurves = r.u32();
  e.curves.clear();
  // Every curve costs at least 4 bytes of payload; a count beyond that is a
  // hostile length — reject before reserving anything.
  if (!r.ok() || ncurves > r.remaining() / 4) return false;
  e.curves.reserve(ncurves);
  std::vector<Solution> pending;  // sanity-checked against nnodes below
  for (std::uint32_t c = 0; c < ncurves && r.ok(); ++c) {
    const std::uint32_t npoints = r.u32();
    if (!r.ok() || npoints > r.remaining() / 36) return false;
    std::vector<Solution> curve;
    curve.reserve(npoints);
    for (std::uint32_t p = 0; p < npoints && r.ok(); ++p) {
      Solution s;
      s.req_time = r.f64();
      s.load = r.f64();
      s.area = r.f64();
      s.wirelen = r.f64();
      s.node = r.u32();
      curve.push_back(s);
    }
    e.curves.push_back(std::move(curve));
  }
  const std::uint32_t nnodes = r.u32();
  if (!r.ok() || nnodes > r.remaining() / 29) return false;
  e.nodes.clear();
  e.nodes.reserve(nnodes);
  for (std::uint32_t i = 0; i < nnodes && r.ok(); ++i) {
    SolNode n;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(StepKind::kBuffer)) return false;
    n.kind = static_cast<StepKind>(kind);
    n.idx = r.i32();
    n.at.x = r.i32();
    n.at.y = r.i32();
    n.wire_width = r.f64();
    n.a = r.u32();
    n.b = r.u32();
    if (n.a != kNullSol && n.a >= i) return false;
    if (n.b != kNullSol && n.b >= i) return false;
    e.nodes.push_back(n);
  }
  if (!r.ok()) return false;
  for (const std::vector<Solution>& curve : e.curves)
    for (const Solution& s : curve)
      if (s.node != kNullSol && s.node >= nnodes) return false;
  return true;
}

void append_section(std::string& out, std::uint32_t tag,
                    std::string_view payload) {
  put_u32(out, tag);
  put_u64(out, payload.size());
  put_u32(out, crc32(payload));
  out.append(payload.data(), payload.size());
}

SnapshotLoadResult fail_cold(SubproblemCache& cache, SnapshotLoadStatus status,
                             std::string detail) {
  // Every non-loaded outcome leaves the cache COLD, never half-warm: a
  // partially-restored working set would make warm results depend on where
  // the corruption fell.
  cache.clear();
  SnapshotLoadResult r;
  r.status = status;
  r.detail = std::move(detail);
  return r;
}

}  // namespace

bool save_cache_snapshot(const SubproblemCache& cache, const std::string& path,
                         SnapshotStats* stats, std::string* error) {
  const auto set_error = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };

  std::string entries;
  SnapshotStats st;
  cache.for_each_entry_oldest_first([&](const CacheEntry& e) {
    encode_entry(entries, e);
    ++st.entries;
    st.nodes += e.nodes.size();
  });

  std::string meta;
  put_u64(meta, cache.config().capacity_nodes);
  put_u64(meta, 1);  // entry sections that follow
  put_u64(meta, st.entries);
  put_u64(meta, st.nodes);

  std::string payload;
  put_u64(payload, st.entries);
  payload += entries;

  std::string file;
  put_u32(file, kSnapshotMagic);
  put_u32(file, kSnapshotVersion);
  append_section(file, kSectionMeta, meta);
  append_section(file, kSectionShard, payload);
  append_section(file, kSectionEnd, {});
  st.bytes = file.size();

  // Atomic replace: temp + fsync + rename, then fsync the directory so the
  // rename itself is durable.  A crash at any point leaves either the old
  // snapshot or the new one under `path` — never a torn mixture.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return set_error("open(" + tmp + ")");
  std::size_t off = 0;
  while (off < file.size()) {
    const ssize_t n = ::write(fd, file.data() + off, file.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return set_error("write(" + tmp + ")");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return set_error("fsync(" + tmp + ")");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return set_error("rename(" + tmp + " -> " + path + ")");
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort; the data fsync above is the hard floor
    ::close(dfd);
  }
  if (stats != nullptr) *stats = st;
  return true;
}

SnapshotLoadResult load_cache_snapshot(SubproblemCache& cache,
                                       const std::string& path) {
  // A save that died mid-write leaves `path + ".tmp"`; it is garbage by
  // definition (the rename never happened) and must not accumulate.
  ::unlink((path + ".tmp").c_str());

  if (!cache.enabled())
    return fail_cold(cache, SnapshotLoadStatus::kDisabled,
                     "cache has no capacity; snapshot not restored");

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SnapshotLoadResult r;
    r.status = errno == ENOENT ? SnapshotLoadStatus::kMissing
                               : SnapshotLoadStatus::kCorrupt;
    r.detail = "open(" + path + "): " + std::strerror(errno);
    cache.clear();
    return r;
  }
  std::string file;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "read(" + path + "): " + std::strerror(errno));
    }
    if (n == 0) break;
    file.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  ByteReader header(file);
  if (header.u32() != kSnapshotMagic)
    return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                     "bad snapshot magic");
  const std::uint32_t version = header.u32();
  if (!header.ok())
    return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                     "truncated snapshot header");
  if (version != kSnapshotVersion)
    return fail_cold(cache, SnapshotLoadStatus::kVersionMismatch,
                     "snapshot version " + std::to_string(version) +
                         " (expected " + std::to_string(kSnapshotVersion) +
                         ")");

  // Walk the sections: framing first (tag/length in bounds), then the CRC,
  // and only then the payload parse — hostile bytes are rejected before
  // they can direct any allocation.
  std::size_t pos = 8;
  bool saw_meta = false;
  bool saw_end = false;
  std::uint64_t declared_entries = 0;
  FlushBatch batch;
  SnapshotStats st;
  st.bytes = file.size();
  while (pos < file.size()) {
    if (saw_end)
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "bytes after end sentinel");
    ByteReader sh(std::string_view(file).substr(pos));
    const std::uint32_t tag = sh.u32();
    const std::uint64_t len = sh.u64();
    const std::uint32_t crc = sh.u32();
    if (!sh.ok())
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "truncated section header");
    if (len > sh.remaining())
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "section length exceeds file");
    const std::string_view payload =
        std::string_view(file).substr(pos + 16, len);
    if (crc32(payload) != crc)
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "section CRC mismatch");
    pos += 16 + len;

    if (tag == kSectionMeta) {
      if (saw_meta)
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "duplicate meta section");
      ByteReader r(payload);
      (void)r.u64();  // saved capacity — informational; ours governs
      (void)r.u64();  // saved entry-section count (older files: one per shard)
      declared_entries = r.u64();
      (void)r.u64();  // saved node total
      if (!r.exhausted())
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "malformed meta section");
      saw_meta = true;
    } else if (tag == kSectionShard) {
      if (!saw_meta)
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "shard section before meta");
      ByteReader r(payload);
      const std::uint64_t n = r.u64();
      for (std::uint64_t i = 0; i < n; ++i) {
        CacheEntry e;
        if (!decode_entry(r, e))
          return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                           "malformed cache entry");
        st.nodes += e.nodes.size();
        ++st.entries;
        batch.staged.push_back(std::move(e));
      }
      if (!r.exhausted())
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "trailing bytes in shard section");
    } else if (tag == kSectionEnd) {
      if (len != 0)
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "non-empty end sentinel");
      saw_end = true;
    } else {
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "unknown section tag");
    }
  }
  if (!saw_meta || !saw_end)
    return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                     "snapshot truncated (missing end sentinel)");
  if (st.entries != declared_entries)
    return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                     "entry count disagrees with meta");

  // Verified.  Restore through the ordinary publish path: entries were
  // saved oldest-first, so sequential inserts (each pushing to the LRU
  // front) reproduce the exact recency order, and the cache's own budget
  // evicts from the oldest end if this configuration is smaller than the
  // one that saved.
  cache.clear();
  const CacheApplyOutcome oc = cache.apply(std::move(batch));
  SnapshotLoadResult r;
  r.status = SnapshotLoadStatus::kLoaded;
  r.stats = st;
  r.detail = "restored " + std::to_string(oc.inserted) + "/" +
             std::to_string(st.entries) + " entries (" +
             std::to_string(cache.node_cost()) + " nodes)";
  return r;
}

}  // namespace merlin
