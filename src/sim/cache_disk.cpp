#include "sim/cache_disk.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "ir/serialize.hpp"
#include "obs/metrics.hpp"
#include "persist/codec.hpp"
#include "persist/quarantine.hpp"

namespace citroen::sim {

namespace {

constexpr char kMagic[8] = {'C', 'T', 'R', 'N', 'P', 'F', 'X', '1'};
constexpr std::size_t kHeaderBytes = 8 + 8 + 8 + 4;
/// An entry bigger than this is not a finalized build; reject it
/// before allocating a payload buffer from a corrupt length field.
constexpr std::uint64_t kMaxEntryBytes = std::uint64_t{1} << 30;

/// mkdir -p. Returns true if the full path exists as a directory after.
bool make_dirs(const std::string& dir) {
  std::string partial;
  partial.reserve(dir.size());
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      partial.push_back(dir[i]);
      continue;
    }
    if (i < dir.size()) partial.push_back('/');
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) return false;
  }
  struct stat st{};
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Distinct tmp names across processes (pid) and threads (counter):
/// concurrent writers of one key must never share a tmp file.
std::string tmp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  char buf[64];
  std::snprintf(buf, sizeof(buf), ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

}  // namespace

std::string encode_module_build(const ModuleBuild& build) {
  persist::Writer w;
  w.b(build.ok);
  w.b(build.crashed);
  w.str(build.error);
  ir::put(w, build.module);
  // Counters travel by name: StatKeys are interned per-process, so a
  // cross-process (or cross-machine) load must re-intern via set().
  persist::put(w, build.stats.counters());
  w.u64(build.print_hash);
  w.u64(static_cast<std::uint64_t>(build.code_size));
  return w.take();
}

ModuleBuild decode_module_build(const std::string& payload) {
  persist::Reader r(payload);
  ModuleBuild b;
  b.ok = r.b();
  b.crashed = r.b();
  b.error = r.str();
  ir::get(r, b.module);
  std::map<std::string, std::int64_t> counters;
  persist::get(r, counters);
  for (const auto& [k, v] : counters) b.stats.set(k, v);
  b.print_hash = r.u64();
  b.code_size = static_cast<std::size_t>(r.u64());
  if (!r.at_end())
    throw std::runtime_error("disk-tier: trailing bytes after entry");
  return b;
}

DiskCacheTier::DiskCacheTier(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  enabled_ = make_dirs(dir_);
}

std::string DiskCacheTier::entry_path(std::uint64_t key) const {
  char name[40];
  std::snprintf(name, sizeof(name), "pfx_%016llx.bin",
                static_cast<unsigned long long>(key));
  return dir_ + "/" + name;
}

void DiskCacheTier::bump(std::uint64_t DiskTierStats::* field) const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  ++(stats_.*field);
}

DiskTierStats DiskCacheTier::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void DiskCacheTier::store(std::uint64_t key, const ModuleBuild& build) const {
  if (!enabled_) return;
  const std::string path = entry_path(key);
  if (::access(path.c_str(), F_OK) == 0) return;  // same key => same bytes

  const std::string payload = encode_module_build(build);
  persist::Writer header;
  header.bytes(kMagic, sizeof(kMagic));
  header.u64(key);
  header.u64(payload.size());
  header.u32(persist::crc32(payload));

  const std::string tmp = path + tmp_suffix();
  const int fd = ::open(tmp.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    bump(&DiskTierStats::store_errors);
    return;
  }
  const bool ok = write_all(fd, header.data().data(), header.size()) &&
                  write_all(fd, payload.data(), payload.size()) &&
                  ::fsync(fd) == 0;
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    bump(&DiskTierStats::store_errors);
    return;
  }
  bump(&DiskTierStats::stores);
  OBS_COUNTER_INC("citroen_prefix_disk_stores_total");
}

std::shared_ptr<const ModuleBuild> DiskCacheTier::load(
    std::uint64_t key) const {
  if (!enabled_) return nullptr;
  const std::string path = entry_path(key);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    bump(&DiskTierStats::misses);
    OBS_COUNTER_INC("citroen_prefix_disk_misses_total");
    return nullptr;
  }

  std::string raw;
  char buf[1 << 16];
  bool read_ok = true;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      read_ok = false;
      break;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
    if (raw.size() > kMaxEntryBytes + kHeaderBytes) {
      read_ok = false;  // corrupt length can't excuse an unbounded read
      break;
    }
  }
  ::close(fd);

  // Every failure from here on is corruption, not absence: quarantine the
  // file so the next load is a clean miss, and report a miss now.
  try {
    if (!read_ok || raw.size() < kHeaderBytes)
      throw std::runtime_error("short entry");
    persist::Reader r(raw);
    char magic[8];
    for (char& c : magic) c = static_cast<char>(r.u8());
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
      throw std::runtime_error("bad magic");
    if (r.u64() != key) throw std::runtime_error("key mismatch");
    const std::uint64_t len = r.u64();
    const std::uint32_t crc = r.u32();
    if (len > kMaxEntryBytes || len != r.remaining())
      throw std::runtime_error("bad length");
    const std::string payload = raw.substr(kHeaderBytes);
    if (persist::crc32(payload) != crc)
      throw std::runtime_error("crc mismatch");
    auto build = std::make_shared<ModuleBuild>(decode_module_build(payload));
    bump(&DiskTierStats::hits);
    OBS_COUNTER_INC("citroen_prefix_disk_hits_total");
    return build;
  } catch (const std::exception&) {
    quarantine(path);
    bump(&DiskTierStats::misses);
    OBS_COUNTER_INC("citroen_prefix_disk_misses_total");
    return nullptr;
  }
}

void DiskCacheTier::quarantine(const std::string& path) const {
  persist::quarantine_file(path);
  bump(&DiskTierStats::quarantined);
  OBS_COUNTER_INC("citroen_prefix_disk_quarantined_total");
}

}  // namespace citroen::sim
