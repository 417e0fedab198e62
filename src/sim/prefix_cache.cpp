#include "sim/prefix_cache.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include <cstdlib>

#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/passman.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/cache_disk.hpp"

namespace citroen::sim {

namespace {

/// See set_pass_progress_hook. Relaxed is enough: the only writer is a
/// single-threaded worker process installing the hook before any build.
std::atomic<PassProgressHook> g_pass_progress_hook{nullptr};

}  // namespace

void set_pass_progress_hook(PassProgressHook hook) {
  g_pass_progress_hook.store(hook, std::memory_order_relaxed);
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Cache key of one build: FNV-1a over (module name, salt, pass ids).
/// The salt disambiguates same-named modules when the cache is shared
/// across evaluators; the disk tier names its files by this key.
std::uint64_t build_key(const std::string& name,
                        const std::vector<passes::PassId>& ids,
                        std::uint64_t salt) {
  std::uint64_t h = fnv_bytes(kFnvOffset, name.data(), name.size());
  h ^= 0xff;
  h *= kFnvPrime;
  if (salt != 0) h = fnv_bytes(h, &salt, sizeof(salt));
  for (const std::uint16_t id : ids) h = fnv_bytes(h, &id, sizeof(id));
  return h;
}

/// Rough resident-size estimate for the LRU byte budget. Counts the large
/// dynamic parts (instruction arenas, block lists, globals, stats keys);
/// container bookkeeping is approximated per node.
std::size_t estimate_bytes(const ModuleBuild& b) {
  std::size_t total = sizeof(ModuleBuild) + b.error.size();
  for (const auto& f : b.module.functions) {
    total += sizeof(ir::Function) + f.name.size();
    total += f.arg_types.size() * sizeof(ir::Type);
    for (const auto& in : f.instrs) {
      total += sizeof(ir::Instr) + in.callee.size();
      total += in.ops.size() * sizeof(ir::ValueId);
      total += (in.phi_blocks.size() + in.succs.size()) * sizeof(ir::BlockId);
    }
    for (const auto& bb : f.blocks) {
      total += sizeof(ir::BasicBlock) + bb.name.size();
      total += bb.insts.size() * sizeof(ir::ValueId);
    }
  }
  for (const auto& g : b.module.globals)
    total += sizeof(ir::GlobalVar) + g.name.size() + g.init.size();
  for (const auto& [k, v] : b.stats.counters())
    total += k.size() + sizeof(v) + 48;  // map node overhead
  return total;
}

/// Fixed cost a resident entry pays beyond its payload: the 8-byte key
/// stored twice (hash-map node and LRU list node), the Entry struct
/// (shared_ptr control, iterator, size), plus per-node allocator
/// and bucket bookkeeping. Without this the budget was only counting
/// payloads, so many short sequences (tiny payload, full-price
/// bookkeeping) could overshoot the configured cap several-fold.
constexpr std::size_t kEntryOverheadBytes =
    2 * sizeof(std::uint64_t) +                 // key in map node + lru node
    sizeof(void*) * 6 +                         // list/bucket/node pointers
    64;                                         // Entry struct + allocator pad

std::string resolve_disk_dir(const std::string& configured) {
  if (!configured.empty()) return configured;
  const char* env = std::getenv("CITROEN_CACHE_DIR");
  return env ? env : "";
}

}  // namespace

PrefixCache::PrefixCache(PrefixCacheConfig config) : config_(config) {
  const int n = std::max(1, config_.shards);
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  const std::string dir = resolve_disk_dir(config_.disk_dir);
  if (!dir.empty() && enabled()) {
    auto tier = std::make_shared<DiskCacheTier>(dir);
    if (tier->enabled()) disk_ = std::move(tier);
  }
}

void PrefixCache::configure(const PrefixCacheConfig& config) {
  PrefixCache fresh(config);
  config_ = fresh.config_;
  shards_ = std::move(fresh.shards_);
  disk_ = std::move(fresh.disk_);
  const std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = PrefixCacheStats{};
}

void PrefixCache::clear() const {
  for (const auto& s : shards_) {
    const std::lock_guard<std::mutex> lock(s->mu);
    s->map.clear();
    s->lru.clear();
    s->bytes = 0;
  }
  const std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = PrefixCacheStats{};
}

PrefixCacheStats PrefixCache::stats() const {
  PrefixCacheStats out;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.bytes = 0;
  for (const auto& s : shards_) {
    const std::lock_guard<std::mutex> lock(s->mu);
    out.bytes += s->bytes;
  }
  if (disk_) {
    const DiskTierStats d = disk_->stats();
    out.disk_hits = d.hits;
    out.disk_misses = d.misses;
    out.disk_stores = d.stores;
    out.disk_quarantined = d.quarantined;
  }
  return out;
}

PrefixCache::Shard& PrefixCache::shard_for(std::uint64_t key) const {
  return *shards_[key % shards_.size()];
}

void PrefixCache::bump(std::uint64_t n,
                       std::uint64_t PrefixCacheStats::* field) const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.*field += n;
}

std::shared_ptr<const ModuleBuild> PrefixCache::lookup(
    std::uint64_t key) const {
  Shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) return nullptr;
  s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
  return it->second.value;
}

void PrefixCache::insert(
    std::uint64_t key, const std::shared_ptr<const ModuleBuild>& value) const {
  const std::size_t bytes = estimate_bytes(*value) + kEntryOverheadBytes;
  const std::size_t budget = config_.byte_budget / shards_.size();
  if (bytes > budget) return;  // would evict the whole shard for one entry

  std::uint64_t evicted = 0;
  Shard& s = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    // Another thread built the same sequence first; its build is
    // bit-identical, so keep it, unless it is a summary and this build
    // carries the IR.
    if (const auto it = s.map.find(key); it != s.map.end()) {
      if (!it->second.value->summary || value->summary) return;
      s.bytes -= it->second.bytes;
      s.lru.erase(it->second.lru_it);
      s.map.erase(it);
    }
    s.lru.push_front(key);
    s.map.emplace(key, Entry{value, s.lru.begin(), bytes});
    s.bytes += bytes;
    while (s.bytes > budget && s.lru.size() > 1) {
      const std::uint64_t victim = s.lru.back();
      s.lru.pop_back();
      const auto vit = s.map.find(victim);
      s.bytes -= vit->second.bytes;
      s.map.erase(vit);
      ++evicted;
    }
  }
  const std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.insertions;
  stats_.evictions += evicted;
}

std::shared_ptr<const ModuleBuild> PrefixCache::finalize(
    std::uint64_t key, std::shared_ptr<const ModuleBuild> value) const {
  if (enabled()) {
    insert(key, value);
    if (disk_) disk_->store(key, *value);
  }
  return value;
}

void PrefixCache::install(const std::string& module,
                          const std::vector<passes::PassId>& ids,
                          std::uint64_t salt,
                          std::shared_ptr<const ModuleBuild> summary) const {
  if (enabled() && summary) insert(build_key(module, ids, salt), summary);
}

std::shared_ptr<const ModuleBuild> PrefixCache::build(
    const ir::Module& base, const std::vector<passes::PassId>& ids,
    std::uint64_t salt, bool need_ir) const {
  const std::size_t n = ids.size();
  bump(1, &PrefixCacheStats::builds);
  OBS_COUNTER_INC("citroen_prefix_cache_builds_total");
  const std::uint64_t key = build_key(base.name, ids, salt);

  if (enabled()) {
    // A RAM miss probes the persistent tier. A disk hit promotes into RAM
    // (so subsequent builds are O(1) again) and counts like a full hit —
    // the stored build is bit-identical to what running the sequence
    // would produce, so consumers cannot tell which path served them. A
    // summary lacks the IR a `need_ir` caller wants, so it misses here.
    auto hit = lookup(key);
    if (hit && need_ir && hit->ok && hit->summary) hit = nullptr;
    if (hit) {
      OBS_INSTANT("prefix_full_hit", "cache");
    } else if (disk_ && (hit = disk_->load(key))) {
      insert(key, hit);
      OBS_INSTANT("prefix_disk_hit", "cache");
    }
    if (hit) {
      bump(n, &PrefixCacheStats::passes_saved);
      bump(1, &PrefixCacheStats::full_hits);
      OBS_COUNTER_INC("citroen_prefix_cache_full_hits_total");
      OBS_COUNTER_ADD("citroen_prefix_cache_passes_saved_total", n);
      return hit;
    }
  }
  OBS_INSTANT("prefix_miss", "cache");
  OBS_COUNTER_INC("citroen_prefix_cache_misses_total");

  auto out = std::make_shared<ModuleBuild>();
  out->module = base;
  const auto& reg = passes::PassRegistry::instance();
  const PassProgressHook hook =
      g_pass_progress_hook.load(std::memory_order_relaxed);
  // One analysis cache for the whole pipeline: analyses preserved by one
  // pass are served from cache to the next, exactly as run_sequence does.
  passes::PassManager pm{passes::PassManagerOptions::from_env()};
  for (std::size_t i = 0; i < n; ++i) {
    try {
      if (hook) hook(ids[i]);
      passes::StatsRegistry pass_stats;
      pm.run_pass(*reg.create(ids[i]), out->module, pass_stats);
      out->stats.merge(pass_stats);
    } catch (const std::exception& e) {
      bump(i + 1, &PrefixCacheStats::passes_run);
      OBS_COUNTER_ADD("citroen_prefix_cache_passes_run_total", i + 1);
      auto failed = std::make_shared<ModuleBuild>();
      failed->crashed = true;
      failed->error = e.what();
      return finalize(key, std::move(failed));
    }
  }
  bump(n, &PrefixCacheStats::passes_run);
  OBS_COUNTER_ADD("citroen_prefix_cache_passes_run_total", n);

  const auto verrs = ir::verify_module(out->module);
  if (!verrs.empty()) {
    auto failed = std::make_shared<ModuleBuild>();
    failed->error = verrs.front();
    return finalize(key, std::move(failed));
  }

  out->ok = true;
  out->print_hash = ir::print_hash(out->module);
  out->code_size = out->module.code_size();
  return finalize(key, std::move(out));
}

}  // namespace citroen::sim
