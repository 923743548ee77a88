// On-disk, memory-mapped, versioned bytes-to-bytes container: the
// persistent half of the femtod plan store (service/server.hpp).
//
// Each entry maps a canonical compile request (the coalesce_key bytes of
// service/protocol.hpp) to the canonical response bytes a DONE run of that
// request served. db/ knows nothing about either encoding: it stores,
// checksums and looks up opaque byte strings. The file is opened read-only
// and shared across threads and processes via mmap; lookups are a binary
// search over a sorted (hash, key) index followed by a full key compare (a
// hash collision must compare unequal rather than silently serve another
// request's response).
//
// File layout (all integers little-endian):
//
//   [0,  8)  magic "FMDB01\0\0"
//   [8, 12)  format version   (kFormatVersion; bump on any layout change)
//   [12,16)  compile contract (kCompileContract; bump whenever any served
//            byte can change -- a compile result, the request encoding or
//            the response encoding -- so stale responses are rejected
//            instead of breaking byte-identity)
//   [16,20)  endianness tag 0x01020304
//   [20,24)  section count
//   [24,32)  entry count
//   [32,40)  total file size (truncation check)
//   [40,44)  CRC-32 of the header bytes (this field zeroed)
//   [44,48)  reserved (0)
//   then `section count` descriptors of 24 bytes each:
//            {id u32, crc32 u32, offset u64, size u64}
//
// Sections (checksummed individually; verified eagerly on open):
//   kIndex   sorted entries of 32 bytes:
//            {key_hash u64, key_off u64, key_len u32, value_len u32,
//             value_off u64}, ordered by (key_hash, key bytes)
//   kKeys    key blob (offsets relative to section start)
//   kValues  value blob (offsets relative to section start)
//
// Every open failure is a *specific* diagnostic (zero-length file, truncated
// header/file, bad magic, version mismatch, checksum mismatch, bounds
// violation) -- never a crash and never a silently empty database.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/failpoint.hpp"
#include "obs/metrics.hpp"

namespace femto::db {

inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kCompileContract = 1;
inline constexpr std::uint32_t kEndianTag = 0x01020304;
inline constexpr char kMagic[8] = {'F', 'M', 'D', 'B', '0', '1', '\0', '\0'};

/// Id 4 is retired (format v1's relabeling statistics): do not reuse it.
/// Unknown section ids are ignored on open.
enum class SectionId : std::uint32_t {
  kIndex = 1,
  kKeys = 2,
  kValues = 3,
};

/// FNV-1a 64-bit hash (index hashing; full keys are always compared).
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace detail {

/// CRC-32 (IEEE 802.3, poly 0xEDB88320), table-driven.
[[nodiscard]] inline std::uint32_t crc32(const unsigned char* data,
                                         std::size_t size,
                                         std::uint32_t seed = 0) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  return ~crc;
}

/// Read-only mmap of the file bytes (shared across processes, pages
/// faulted on demand).
struct Mapping {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  void* mapped = nullptr;

  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() {
    if (mapped != nullptr) ::munmap(mapped, size);
  }
};

[[nodiscard]] inline std::shared_ptr<Mapping> map_file(
    const std::string& path, std::string* error) {
  auto m = std::make_shared<Mapping>();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *error = "cannot open '" + path + "': " + std::strerror(errno);
    return nullptr;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    *error = "cannot stat '" + path + "': " + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  m->size = static_cast<std::size_t>(st.st_size);
  if (m->size == 0) {
    *error = "zero-length file (not a femto-db database): '" + path + "'";
    ::close(fd);
    return nullptr;
  }
  void* p = ::mmap(nullptr, m->size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the pages alive
  if (p == MAP_FAILED) {
    *error = "mmap failed for '" + path + "': " + std::strerror(errno);
    return nullptr;
  }
  m->mapped = p;
  m->data = static_cast<const unsigned char*>(p);
  return m;
}

struct Section {
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

inline constexpr std::size_t kFixedHeaderBytes = 48;
inline constexpr std::size_t kSectionDescBytes = 24;
inline constexpr std::size_t kIndexEntryBytes = 32;

}  // namespace detail

/// One parsed index entry (offsets validated against their sections).
struct IndexEntry {
  std::uint64_t key_hash = 0;
  std::uint64_t key_off = 0;
  std::uint32_t key_len = 0;
  std::uint32_t value_len = 0;
  std::uint64_t value_off = 0;
};

/// Read-only, mmap-shared compilation database. Thread-safe: all state is
/// immutable after open(), so any number of threads (and processes mapping
/// the same file) may look up concurrently.
class Database {
 public:
  /// Opens and fully validates a database file. Returns nullopt and a
  /// specific diagnostic in *error on any defect; never aborts.
  [[nodiscard]] static std::optional<Database> open(const std::string& path,
                                                    std::string* error) {
    std::string local_error;
    std::string& err = error != nullptr ? *error : local_error;
    const std::shared_ptr<detail::Mapping> map = detail::map_file(path, &err);
    if (map == nullptr) return std::nullopt;
    Database out;
    out.map_ = map;
    out.path_ = path;
    if (!out.parse(&err)) return std::nullopt;
    return out;
  }

  /// Binary search by key hash, then a full-key compare. The returned view
  /// points into the mapping and lives as long as this Database.
  [[nodiscard]] std::optional<std::string_view> lookup(
      std::string_view key) const {
    static obs::Counter& lookups = obs::registry().counter("db.lookups");
    static obs::Counter& db_hits = obs::registry().counter("db.hits");
    static obs::Counter& db_misses = obs::registry().counter("db.misses");
    lookups.inc();
    const std::uint64_t hash = fnv1a(key);
    std::size_t lo = 0, hi = entries_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entries_[mid].key_hash < hash)
        lo = mid + 1;
      else
        hi = mid;
    }
    for (; lo < entries_.size() && entries_[lo].key_hash == hash; ++lo) {
      if (this->key(lo) != key) continue;
      db_hits.inc();
      return value(lo);
    }
    db_misses.inc();
    return std::nullopt;
  }

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  [[nodiscard]] std::string_view key(std::size_t i) const {
    const IndexEntry& e = entries_[i];
    return {reinterpret_cast<const char*>(map_->data + keys_.offset +
                                          e.key_off),
            e.key_len};
  }

  [[nodiscard]] std::string_view value(std::size_t i) const {
    const IndexEntry& e = entries_[i];
    return {reinterpret_cast<const char*>(map_->data + values_.offset +
                                          e.value_off),
            e.value_len};
  }

  [[nodiscard]] std::uint32_t format_version() const { return format_version_; }
  [[nodiscard]] std::uint32_t compile_contract() const {
    return compile_contract_;
  }
  [[nodiscard]] std::size_t file_bytes() const { return map_->size; }

 private:
  Database() = default;

  [[nodiscard]] bool parse(std::string* error) {
    const unsigned char* p = map_->data;
    const std::size_t size = map_->size;
    if (size < detail::kFixedHeaderBytes) {
      *error = "truncated header: '" + path_ + "' has " +
               std::to_string(size) + " bytes, a database header needs " +
               std::to_string(detail::kFixedHeaderBytes);
      return false;
    }
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
      *error = "bad magic: '" + path_ + "' is not a femto-db database";
      return false;
    }
    format_version_ = read_le(p + 8, 4);
    if (format_version_ != kFormatVersion) {
      *error = "format version mismatch: '" + path_ + "' is v" +
               std::to_string(format_version_) + ", this reader expects v" +
               std::to_string(kFormatVersion) + " (rebuild with femto-db)";
      return false;
    }
    compile_contract_ = read_le(p + 12, 4);
    if (compile_contract_ != kCompileContract) {
      *error = "compile contract mismatch: '" + path_ +
               "' holds responses of compile contract v" +
               std::to_string(compile_contract_) + ", this build serves v" +
               std::to_string(kCompileContract) +
               " -- serving them would break byte-identity (rebuild with "
               "femto-db)";
      return false;
    }
    if (read_le(p + 16, 4) != kEndianTag) {
      *error = "endianness tag mismatch in '" + path_ +
               "' (file written on an incompatible platform)";
      return false;
    }
    const std::uint32_t section_count = read_le(p + 20, 4);
    const std::uint64_t entry_count = read_le(p + 24, 8);
    const std::uint64_t recorded_size = read_le(p + 32, 8);
    const std::uint32_t header_crc = read_le(p + 40, 4);
    if (section_count > 64) {
      *error = "implausible section count " + std::to_string(section_count) +
               " in '" + path_ + "' (corrupted header)";
      return false;
    }
    const std::size_t header_end =
        detail::kFixedHeaderBytes + section_count * detail::kSectionDescBytes;
    if (size < header_end) {
      *error = "truncated section table: '" + path_ + "' has " +
               std::to_string(size) + " bytes, the header declares " +
               std::to_string(header_end);
      return false;
    }
    if (recorded_size != size) {
      *error = "truncated file: header of '" + path_ + "' records " +
               std::to_string(recorded_size) + " bytes but the file has " +
               std::to_string(size);
      return false;
    }
    {
      std::vector<unsigned char> header(p, p + header_end);
      header[40] = header[41] = header[42] = header[43] = 0;
      const std::uint32_t crc = detail::crc32(header.data(), header.size());
      if (crc != header_crc) {
        *error = "header checksum mismatch in '" + path_ +
                 "' (corrupted header)";
        return false;
      }
    }
    bool have_index = false, have_keys = false, have_values = false;
    for (std::uint32_t s = 0; s < section_count; ++s) {
      const unsigned char* d =
          p + detail::kFixedHeaderBytes + s * detail::kSectionDescBytes;
      const std::uint32_t id = read_le(d, 4);
      detail::Section sec;
      sec.crc = read_le(d + 4, 4);
      sec.offset = read_le(d + 8, 8);
      sec.size = read_le(d + 16, 8);
      if (sec.offset > size || sec.size > size - sec.offset) {
        *error = "section " + std::to_string(id) + " of '" + path_ +
                 "' extends past the end of the file (corrupted header)";
        return false;
      }
      const std::uint32_t crc = detail::crc32(p + sec.offset,
                                              static_cast<std::size_t>(sec.size));
      if (crc != sec.crc) {
        *error = "section " + std::to_string(id) + " checksum mismatch in '" +
                 path_ + "' (corrupted data)";
        return false;
      }
      switch (static_cast<SectionId>(id)) {
        case SectionId::kIndex: index_ = sec; have_index = true; break;
        case SectionId::kKeys: keys_ = sec; have_keys = true; break;
        case SectionId::kValues: values_ = sec; have_values = true; break;
        default: break;  // unknown sections are ignored (forward compat)
      }
    }
    if (!have_index || !have_keys || !have_values) {
      *error = "missing required section(s) in '" + path_ +
               "' (index/keys/values)";
      return false;
    }
    if (index_.size != entry_count * detail::kIndexEntryBytes) {
      *error = "index size inconsistent with entry count in '" + path_ + "'";
      return false;
    }
    entries_.reserve(static_cast<std::size_t>(entry_count));
    std::uint64_t prev_hash = 0;
    for (std::uint64_t i = 0; i < entry_count; ++i) {
      const unsigned char* d =
          p + index_.offset + i * detail::kIndexEntryBytes;
      IndexEntry e;
      e.key_hash = read_le(d, 8);
      e.key_off = read_le(d + 8, 8);
      e.key_len = read_le(d + 16, 4);
      e.value_len = read_le(d + 20, 4);
      e.value_off = read_le(d + 24, 8);
      if (e.key_off > keys_.size || e.key_len > keys_.size - e.key_off ||
          e.value_off > values_.size ||
          e.value_len > values_.size - e.value_off) {
        *error = "index entry " + std::to_string(i) + " of '" + path_ +
                 "' points outside its section (corrupted index)";
        return false;
      }
      if (i > 0 && e.key_hash < prev_hash) {
        *error = "index of '" + path_ + "' is not sorted (corrupted index)";
        return false;
      }
      prev_hash = e.key_hash;
      entries_.push_back(e);
    }
    return true;
  }

  std::shared_ptr<detail::Mapping> map_;
  std::string path_;
  std::uint32_t format_version_ = 0;
  std::uint32_t compile_contract_ = 0;
  detail::Section index_, keys_, values_;
  std::vector<IndexEntry> entries_;
};

/// Accumulates (key -> value) entries -- fresh ones via insert(), old ones
/// from an existing database (append workflow) -- and writes the versioned,
/// checksummed file format. Not thread-safe: fill it from one thread.
class DatabaseBuilder {
 public:
  /// First insert per key wins (a later value for the same request is
  /// byte-identical by the compile contract, so first-wins loses nothing).
  void insert(std::string key, std::string value) {
    entries_.emplace(std::move(key), std::move(value));
  }

  /// Copies every entry of an open database (append workflow: merge the old
  /// file, add new entries, write). Existing keys keep their values.
  void merge_from(const Database& db) {
    for (std::size_t i = 0; i < db.entry_count(); ++i)
      insert(std::string(db.key(i)), std::string(db.value(i)));
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Writes the database file; returns "" on success, else a diagnostic.
  [[nodiscard]] std::string write(const std::string& path) const {
    // Sorted (hash, key) index; std::map already orders keys, so a stable
    // sort by hash preserves key order inside equal-hash runs.
    std::vector<const std::pair<const std::string, std::string>*> order;
    order.reserve(entries_.size());
    for (const auto& kv : entries_) order.push_back(&kv);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto* a, const auto* b) {
                       return fnv1a(a->first) < fnv1a(b->first);
                     });

    std::string index, keys, values;
    for (const auto* kv : order) {
      const std::string& key = kv->first;
      const std::string& value = kv->second;
      append_le(index, fnv1a(key), 8);
      append_le(index, keys.size(), 8);
      append_le(index, key.size(), 4);
      append_le(index, value.size(), 4);
      append_le(index, values.size(), 8);
      keys += key;
      values += value;
    }

    const std::pair<SectionId, const std::string*> sections[] = {
        {SectionId::kIndex, &index},
        {SectionId::kKeys, &keys},
        {SectionId::kValues, &values},
    };
    const std::size_t header_end =
        detail::kFixedHeaderBytes +
        std::size(sections) * detail::kSectionDescBytes;

    std::string header;
    header.append(kMagic, sizeof(kMagic));
    append_le(header, kFormatVersion, 4);
    append_le(header, kCompileContract, 4);
    append_le(header, kEndianTag, 4);
    append_le(header, std::size(sections), 4);
    append_le(header, entries_.size(), 8);
    std::uint64_t file_size = header_end;
    for (const auto& [id, body] : sections) file_size += body->size();
    append_le(header, file_size, 8);
    append_le(header, 0, 4);  // header crc, patched below
    append_le(header, 0, 4);  // reserved
    std::uint64_t offset = header_end;
    for (const auto& [id, body] : sections) {
      append_le(header, static_cast<std::uint32_t>(id), 4);
      append_le(header,
                detail::crc32(
                    reinterpret_cast<const unsigned char*>(body->data()),
                    body->size()),
                4);
      append_le(header, offset, 8);
      append_le(header, body->size(), 8);
      offset += body->size();
    }
    const std::uint32_t header_crc = detail::crc32(
        reinterpret_cast<const unsigned char*>(header.data()), header.size());
    for (int byte = 0; byte < 4; ++byte)
      header[40 + byte] = static_cast<char>((header_crc >> (8 * byte)) & 0xff);

    // Crash-safe replacement: build the file as <path>.tmp.<pid>, fsync it,
    // atomically rename over the final path, then fsync the directory. A
    // crash, power cut, or injected fault (db.write.short / db.write.kill /
    // db.fsync) at ANY point leaves the previous database byte-identical --
    // readers only ever see the old complete file or the new complete file.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) return "cannot write '" + tmp + "'";
    // Chunked writes give the kill/short failpoints mid-file granularity
    // (a torn tmp really is torn, not empty).
    const auto put = [&f](const std::string& body) -> bool {
      constexpr std::size_t kChunk = std::size_t{64} * 1024;
      for (std::size_t pos = 0; pos < body.size(); pos += kChunk) {
        const std::size_t n = std::min(kChunk, body.size() - pos);
        if (FEMTO_FAILPOINT("db.write.kill")) {
          std::fflush(f);
          std::_Exit(137);  // simulated crash mid-write; tmp is torn
        }
        if (FEMTO_FAILPOINT("db.write.short")) {
          (void)!std::fwrite(body.data() + pos, 1, n / 2, f);
          return false;
        }
        if (std::fwrite(body.data() + pos, 1, n, f) != n) return false;
      }
      return true;
    };
    bool ok = put(header);
    for (const auto& [id, body] : sections) ok = ok && put(*body);
    ok = ok && std::fflush(f) == 0;
    if (ok && (FEMTO_FAILPOINT("db.fsync") || ::fsync(::fileno(f)) != 0))
      ok = false;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
      std::remove(tmp.c_str());
      return "short write on '" + tmp + "' (previous '" + path +
             "' left intact)";
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return "cannot rename '" + tmp + "' over '" + path + "'";
    }
    // Durability of the rename itself: fsync the containing directory.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY);
    if (dfd >= 0) {
      (void)::fsync(dfd);
      ::close(dfd);
    }
    return "";
  }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace femto::db
