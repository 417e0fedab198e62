#pragma once
// Whole-pipeline memoization for module builds.
//
// Pass names are interned to dense ids, and each finalized build (the
// module after its whole sequence, verified and hashed, or the error
// that stopped it) is keyed by a hash of (salt, module name, pass ids).
// Exact re-builds (retries, duplicate candidates, replayed batches) are
// then O(1); any other build runs its whole sequence from the base
// module.
//
// Intermediate states are not kept: a snapshot every few passes would
// let a candidate resume below a shared prefix, but each costs a deep
// module copy plus LRU churn under a shard lock, and on the tuning
// workloads that costs more CPU than the pass runs it saves (DESIGN.md,
// "Performance architecture").
//
// Determinism: passes are pure functions of the module, so a cached
// build is bit-identical to one run from scratch. All mutation is
// guarded by mutex-striped shards with an LRU byte budget; results are
// returned as shared_ptr so eviction never invalidates a consumer.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.hpp"
#include "passes/pass.hpp"

namespace citroen::sim {

struct PrefixCacheConfig {
  /// Total byte budget across all shards. 0 disables storage entirely
  /// (every build then runs from scratch, still correctly).
  std::size_t byte_budget = std::size_t{64} << 20;
  /// Mutex striping width.
  int shards = 8;
  /// Directory for the persistent disk tier (sim/cache_disk.hpp). Empty
  /// falls back to $CITROEN_CACHE_DIR; still empty disables the tier.
  /// Every entry is a finalized build and spills; any torn/corrupt
  /// entry on disk loads as a miss, never an error.
  std::string disk_dir;
};

struct PrefixCacheStats {
  std::uint64_t builds = 0;        ///< build() calls
  std::uint64_t full_hits = 0;     ///< whole sequence already finalized
  /// Always 0: builds no longer resume from intermediate states. Kept
  /// because the perf ledger and the Inspect wire (cache_prefix_hits)
  /// still read it.
  std::uint64_t prefix_hits = 0;
  std::uint64_t passes_run = 0;    ///< pass executions actually paid for
  std::uint64_t passes_saved = 0;  ///< pass executions avoided
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t bytes = 0;           ///< currently resident
  // Disk-tier traffic (all zero when the tier is disabled).
  std::uint64_t disk_hits = 0;         ///< finalized builds served from disk
  std::uint64_t disk_misses = 0;       ///< absent or quarantined entries
  std::uint64_t disk_stores = 0;       ///< entries durably written
  std::uint64_t disk_quarantined = 0;  ///< corrupt entries renamed aside
};

/// Result of building one module under one pass-id sequence. Failures
/// carry the raw detail; the evaluator formats user-facing messages so
/// cached and uncached failures read identically.
struct ModuleBuild {
  bool ok = false;
  bool crashed = false;          ///< a pass threw (vs verifier rejection)
  std::string error;             ///< exception text or first verifier error
  ir::Module module;             ///< post-sequence state (when ok)
  passes::StatsRegistry stats;   ///< accumulated -stats counters
  std::uint64_t print_hash = 0;  ///< ir::print_hash(module)
  std::size_t code_size = 0;     ///< live instructions after the sequence
};

/// Process-global per-pass progress hook, invoked immediately before each
/// pass execution inside PrefixCache::build. Sandbox worker processes
/// install one after fork so the supervisor can name the pass that was
/// active at the moment of a crash (crash-signature capture); everywhere
/// else it stays null and costs a single relaxed atomic load per pass.
/// Install only while no builds are in flight — workers do it once at
/// startup, before serving any job.
using PassProgressHook = void (*)(passes::PassId);
void set_pass_progress_hook(PassProgressHook hook);

class DiskCacheTier;

class PrefixCache {
 public:
  explicit PrefixCache(PrefixCacheConfig config = {});

  /// Build `base` under `ids`, or return the cached finalized build.
  /// Thread-safe; never throws (pass exceptions become failed results).
  /// `salt` is mixed into every cache key; a cache shared across
  /// evaluators passes a content hash of the module here so two modules
  /// that merely share a name can never alias.
  std::shared_ptr<const ModuleBuild> build(const ir::Module& base,
                                           const std::vector<passes::PassId>& ids,
                                           std::uint64_t salt = 0) const;

  bool enabled() const { return config_.byte_budget > 0; }

  /// Replace the configuration; drops all cached RAM state (the disk
  /// tier persists — that is its purpose — but is re-resolved from the
  /// new config's disk_dir).
  void configure(const PrefixCacheConfig& config);

  /// Drops RAM entries only; disk entries survive (restart semantics).
  void clear() const;

  /// Aggregated counters (approximate while builders are in flight).
  PrefixCacheStats stats() const;

  /// Persistent tier, or nullptr when disabled. Exposed for tests that
  /// corrupt entries on purpose.
  const DiskCacheTier* disk_tier() const { return disk_.get(); }

 private:
  struct Entry {
    std::shared_ptr<const ModuleBuild> value;
    std::list<std::uint64_t>::iterator lru_it;
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> map;
    std::list<std::uint64_t> lru;  ///< front = most recently used
    std::size_t bytes = 0;
  };

  Shard& shard_for(std::uint64_t key) const;
  std::shared_ptr<const ModuleBuild> lookup(std::uint64_t key) const;
  void insert(std::uint64_t key,
              const std::shared_ptr<const ModuleBuild>& value) const;
  /// Cache a finished build in RAM and on disk; returns it.
  std::shared_ptr<const ModuleBuild> finalize(
      std::uint64_t key, std::shared_ptr<const ModuleBuild> value) const;
  void bump(std::uint64_t n, std::uint64_t PrefixCacheStats::* field) const;

  PrefixCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<DiskCacheTier> disk_;  ///< null when tier disabled
  mutable std::mutex stats_mu_;
  mutable PrefixCacheStats stats_;
};

}  // namespace citroen::sim
