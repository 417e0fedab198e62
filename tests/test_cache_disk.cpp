// Tests for the prefix cache's persistent disk tier (sim/cache_disk.hpp),
// the MiniIR codec beneath it (ir/serialize.hpp), and the evaluator's
// by-reference assembly of binaries from cached (RAM or disk) builds.
//
// The property half is the contract the tier advertises: ANY torn,
// bit-flipped, zeroed or truncated entry on disk must load as a miss
// with the file quarantined — never a crash, never a wrong value.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_suite/suite.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/serialize.hpp"
#include "passes/pass.hpp"
#include "sim/cache_disk.hpp"
#include "sim/evaluator.hpp"
#include "sim/machine.hpp"
#include "sim/prefix_cache.hpp"
#include "support/rng.hpp"

#include "scratch_dir.hpp"

using namespace citroen;
namespace fs = std::filesystem;

namespace {

/// Fresh scratch directory per test, removed when the test ends.
std::string scratch_dir(const char* tag) {
  return test_support::scratch_dir(std::string("citroen_disk_test_") + tag);
}

/// A real module to round-trip: security_sha's, after a few passes so it
/// exercises most instruction kinds, phis and globals.
ir::Module sample_module() {
  auto program = bench_suite::make_program("security_sha");
  ir::Module m = program.modules.front();
  passes::run_sequence(m, {"mem2reg", "instcombine", "simplifycfg"});
  return m;
}

sim::ModuleBuild sample_build() {
  sim::ModuleBuild b;
  b.ok = true;
  b.module = sample_module();
  b.print_hash = 0x1234abcd5678ef01ull;
  b.code_size = 321;
  b.stats.add(passes::intern_stat_key("instcombine.folded"), 7);
  return b;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

// ---- ir/serialize ----------------------------------------------------------

TEST(IrSerialize, ModuleRoundTripsBitExactly) {
  const ir::Module m = sample_module();
  const std::string bytes = ir::encode_module(m);
  const ir::Module back = ir::decode_module(bytes);
  // print_module is a complete rendering of the module; byte equality of
  // the text plus re-encode equality of the bytes is bit-exactness.
  EXPECT_EQ(ir::print_module(m), ir::print_module(back));
  EXPECT_EQ(bytes, ir::encode_module(back));
}

TEST(IrSerialize, TruncationThrowsInsteadOfCrashing) {
  const std::string bytes = ir::encode_module(sample_module());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(ir::decode_module(bytes.substr(0, keep)), std::exception)
        << "kept " << keep << " of " << bytes.size();
  }
}

TEST(IrSerialize, ModuleBuildRoundTrips) {
  const sim::ModuleBuild b = sample_build();
  const sim::ModuleBuild back =
      sim::decode_module_build(sim::encode_module_build(b));
  EXPECT_EQ(back.ok, b.ok);
  EXPECT_EQ(back.crashed, b.crashed);
  EXPECT_EQ(back.error, b.error);
  EXPECT_EQ(back.print_hash, b.print_hash);
  EXPECT_EQ(back.code_size, b.code_size);
  EXPECT_EQ(ir::print_module(back.module), ir::print_module(b.module));
  EXPECT_EQ(back.stats.counters(), b.stats.counters());
}

// ---- DiskCacheTier happy path ----------------------------------------------

TEST(DiskCacheTier, StoreThenLoadHits) {
  sim::DiskCacheTier tier(scratch_dir("roundtrip"));
  ASSERT_TRUE(tier.enabled());
  const sim::ModuleBuild b = sample_build();
  tier.store(0xfeedf00d, b);
  const auto hit = tier.load(0xfeedf00d);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->print_hash, b.print_hash);
  EXPECT_EQ(ir::print_module(hit->module), ir::print_module(b.module));
  EXPECT_EQ(tier.stats().hits, 1u);
  EXPECT_EQ(tier.stats().stores, 1u);
}

TEST(DiskCacheTier, AbsentKeyIsCleanMiss) {
  sim::DiskCacheTier tier(scratch_dir("miss"));
  EXPECT_EQ(tier.load(0xdeadbeef), nullptr);
  EXPECT_EQ(tier.stats().misses, 1u);
  EXPECT_EQ(tier.stats().quarantined, 0u);
}

TEST(DiskCacheTier, UncreatableDirDisablesTier) {
  sim::DiskCacheTier tier("/proc/definitely/not/writable");
  EXPECT_FALSE(tier.enabled());
}

TEST(DiskCacheTier, FailedBuildsRoundTripToo) {
  sim::DiskCacheTier tier(scratch_dir("failed"));
  sim::ModuleBuild b;
  b.ok = false;
  b.crashed = true;
  b.error = "pass crashed: instcombine: boom";
  tier.store(5, b);
  const auto hit = tier.load(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->ok);
  EXPECT_TRUE(hit->crashed);
  EXPECT_EQ(hit->error, b.error);
}

// ---- corruption properties -------------------------------------------------

namespace {

/// Corrupt the stored entry with `mutate`, then assert the contract:
/// load is a miss, the file is quarantined, nothing throws.
void expect_corruption_contained(const std::string& dir,
                                 const std::function<void(std::string&)>& mutate,
                                 const char* what) {
  sim::DiskCacheTier tier(dir);
  ASSERT_TRUE(tier.enabled());
  constexpr std::uint64_t kKey = 0xabcdef12;
  tier.store(kKey, sample_build());
  const std::string path = tier.entry_path(kKey);
  std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  mutate(bytes);
  write_file(path, bytes);

  const auto before = tier.stats().quarantined;
  std::shared_ptr<const sim::ModuleBuild> got;
  EXPECT_NO_THROW(got = tier.load(kKey)) << what;
  EXPECT_EQ(got, nullptr) << what;
  EXPECT_EQ(tier.stats().quarantined, before + 1) << what;
  EXPECT_FALSE(fs::exists(path)) << what << ": file must be renamed aside";
  EXPECT_TRUE(fs::exists(path + ".bad")) << what;

  // And the tier keeps serving: a re-store over the quarantined key
  // works and loads cleanly.
  tier.store(kKey, sample_build());
  EXPECT_NE(tier.load(kKey), nullptr) << what;
}

}  // namespace

TEST(DiskCacheTierCorruption, RandomBitFlips) {
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    expect_corruption_contained(
        scratch_dir(("flip" + std::to_string(trial)).c_str()),
        [&rng](std::string& bytes) {
          const auto off = rng.next_u64() % bytes.size();
          bytes[off] = static_cast<char>(
              bytes[off] ^ static_cast<char>(1u << (rng.next_u64() % 8)));
        },
        "bit flip");
  }
}

TEST(DiskCacheTierCorruption, RandomTruncation) {
  Rng rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    expect_corruption_contained(
        scratch_dir(("trunc" + std::to_string(trial)).c_str()),
        [&rng](std::string& bytes) {
          bytes.resize(rng.next_u64() % bytes.size());
        },
        "truncation");
  }
}

TEST(DiskCacheTierCorruption, ZeroedRanges) {
  Rng rng(31337);
  for (int trial = 0; trial < 12; ++trial) {
    expect_corruption_contained(
        scratch_dir(("zero" + std::to_string(trial)).c_str()),
        [&rng](std::string& bytes) {
          const auto start = rng.next_u64() % bytes.size();
          const auto len = 1 + rng.next_u64() % (bytes.size() - start);
          for (std::size_t i = start; i < start + len; ++i) bytes[i] = 0;
        },
        "zeroed range");
  }
}

TEST(DiskCacheTierCorruption, WrongKeyEchoQuarantines) {
  expect_corruption_contained(
      scratch_dir("keyecho"),
      [](std::string& bytes) { bytes[8] = static_cast<char>(bytes[8] + 1); },
      "key echo");
}

TEST(DiskCacheTierCorruption, GarbageFileQuarantines) {
  expect_corruption_contained(
      scratch_dir("garbage"),
      [](std::string& bytes) { bytes.assign(64, '\xa5'); }, "garbage file");
}

// ---- PrefixCache integration -----------------------------------------------

TEST(PrefixCacheDiskTier, WarmStartServesFromDisk) {
  const std::string dir = scratch_dir("warm");
  const auto program = bench_suite::make_program("security_sha");
  const std::vector<std::string> seq = {"mem2reg", "instcombine", "gvn",
                                        "simplifycfg", "dce"};

  std::uint64_t cold_hash = 0;
  {
    sim::PrefixCacheConfig cfg;
    cfg.disk_dir = dir;
    sim::PrefixCache cache(cfg);
    const auto b = cache.build(program.modules.front(),
                               passes::intern_sequence(seq), /*salt=*/9);
    ASSERT_TRUE(b->ok);
    cold_hash = b->print_hash;
    EXPECT_GE(cache.stats().disk_stores, 1u);
  }
  {
    // A brand-new cache (fresh RAM, same dir) must serve the identical
    // finalized build from disk without running a single pass.
    sim::PrefixCacheConfig cfg;
    cfg.disk_dir = dir;
    sim::PrefixCache cache(cfg);
    const auto b = cache.build(program.modules.front(),
                               passes::intern_sequence(seq), /*salt=*/9);
    ASSERT_TRUE(b->ok);
    EXPECT_EQ(b->print_hash, cold_hash);
    EXPECT_GE(cache.stats().disk_hits, 1u);
    EXPECT_EQ(cache.stats().passes_run, 0u);
  }
}

TEST(PrefixCacheDiskTier, ClearKeepsDiskEntries) {
  const std::string dir = scratch_dir("clear");
  const auto program = bench_suite::make_program("security_sha");
  const auto ids = passes::intern_sequence({"mem2reg", "dce"});
  sim::PrefixCacheConfig cfg;
  cfg.disk_dir = dir;
  sim::PrefixCache cache(cfg);
  ASSERT_TRUE(cache.build(program.modules.front(), ids, 1)->ok);
  cache.clear();
  const auto again = cache.build(program.modules.front(), ids, 1);
  ASSERT_TRUE(again->ok);
  EXPECT_GE(cache.stats().disk_hits, 1u);
}

TEST(BuildSummary, NeverReachesTheDiskTier) {
  // A summary has no IR, so a disk file made from it would read back as
  // an empty module. Installing one stores nothing; the full build that
  // later replaces it stores as usual and reads back whole.
  const std::string dir = scratch_dir("summary");
  const auto program = bench_suite::make_program("security_sha");
  const ir::Module& m = program.modules.front();
  const auto ids = passes::intern_sequence({"mem2reg", "gvn", "dce"});
  const auto full = sim::PrefixCache().build(m, ids, /*salt=*/5);
  ASSERT_TRUE(full->ok);
  auto summary = std::make_shared<sim::ModuleBuild>(*full);
  summary->summary = true;
  summary->module = ir::Module{};

  sim::PrefixCacheConfig cfg;
  cfg.disk_dir = dir;
  {
    sim::PrefixCache cache(cfg);
    cache.install(m.name, ids, 5, summary);
    EXPECT_EQ(cache.build(m, ids, 5).get(), summary.get());
    EXPECT_EQ(cache.stats().disk_stores, 0u);
    EXPECT_EQ(cache.stats().passes_run, 0u);
    const auto rebuilt = cache.build(m, ids, 5, /*need_ir=*/true);
    EXPECT_FALSE(rebuilt->summary);
    EXPECT_EQ(rebuilt->print_hash, full->print_hash);
    EXPECT_EQ(cache.stats().passes_run, ids.size());
    EXPECT_EQ(cache.stats().disk_stores, 1u);
    // The full build replaced the summary in RAM.
    EXPECT_EQ(cache.build(m, ids, 5, /*need_ir=*/true).get(), rebuilt.get());
  }
  sim::PrefixCache restarted(cfg);
  const auto back = restarted.build(m, ids, 5, /*need_ir=*/true);
  EXPECT_EQ(restarted.stats().disk_hits, 1u);
  EXPECT_EQ(ir::print_hash(back->module), full->print_hash);
}

// ---- byte-budget regression (satellite fix) --------------------------------

namespace {

/// The smallest interesting module: `i64 main() { ret <k> }`. Its
/// build payload is a rounding error next to the fixed per-entry
/// bookkeeping (map node, LRU node, twice the 8-byte key), which is
/// exactly the regime the pre-fix accounting got wrong.
ir::Module tiny_module() {
  ir::Module m;
  m.name = "tiny";
  ir::create_function(m, "main", ir::kI64, {}, false);
  ir::IRBuilder b(m.functions[0]);
  b.set_insert(0);
  b.ret(b.const_i64(7));
  return m;
}

}  // namespace

TEST(PrefixCacheBudget, AccountsKeyAndNodeOverheadPerEntry) {
  // Payload-only accounting (the pre-fix behaviour) would fit hundreds
  // of tiny entries in 8 KiB; overhead-aware accounting must start
  // evicting well before 64 distinct salts are resident — and stay
  // within the configured budget either way.
  const ir::Module m = tiny_module();
  const auto ids = passes::intern_sequence({"mem2reg", "dce"});
  sim::PrefixCacheConfig cfg;
  cfg.byte_budget = 8 << 10;
  cfg.shards = 1;
  sim::PrefixCache cache(cfg);

  for (std::size_t i = 0; i < 64; ++i)
    cache.build(m, ids, /*salt=*/i + 1);
  const auto st = cache.stats();
  EXPECT_LE(st.bytes, std::size_t{8} << 10);
  EXPECT_GT(st.evictions, 0u)
      << "64 distinct entries must overflow an 8 KiB budget once the "
         "per-entry key/node overhead is counted";
}

// ---- evaluator assembly over cached builds ----------------------------------

TEST(EvaluatorAssembly, HashAndSizeMatchTheMaterializedProgram) {
  // The evaluator composes a binary's hash and size from cached per-module
  // builds without copying IR; both must equal what the program itself
  // yields, for builds run in RAM and for builds decoded from disk.
  const auto base = bench_suite::make_program("security_sha");
  ASSERT_GE(base.modules.size(), 2u);
  const std::vector<std::string> seq = {"mem2reg", "instcombine", "gvn",
                                        "simplifycfg", "dce"};
  // No tuned module, one tuned module, every module tuned.
  std::vector<sim::SequenceAssignment> cases(3);
  cases[1][base.modules.front().name] = seq;
  for (const auto& m : base.modules) cases[2][m.name] = seq;

  sim::PrefixCacheConfig cfg;
  cfg.disk_dir = scratch_dir("assembly");
  std::vector<std::uint64_t> hashes;
  const auto check = [&](sim::ProgramEvaluator& ev) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE("case " + std::to_string(i));
      const auto co = ev.compile(cases[i], /*keep_program=*/true);
      ASSERT_TRUE(co.valid) << co.why_invalid;
      ASSERT_TRUE(co.program);
      std::size_t size = 0;
      for (const auto& m : co.program->modules) size += m.code_size();
      EXPECT_EQ(co.binary_hash, sim::program_hash(*co.program));
      EXPECT_EQ(co.code_size, size);
      const auto eo = ev.evaluate(cases[i]);
      EXPECT_TRUE(eo.valid) << eo.why_invalid;  // the materialized run
      EXPECT_EQ(eo.binary_hash, co.binary_hash);
      EXPECT_EQ(eo.code_size, co.code_size);
      if (hashes.size() < cases.size()) hashes.push_back(co.binary_hash);
      EXPECT_EQ(co.binary_hash, hashes[i]);
    }
  };
  {
    sim::ProgramEvaluator cold(base, sim::arm_a57_model());
    cold.set_prefix_cache_config(cfg);
    check(cold);
    EXPECT_GE(cold.prefix_cache_stats().disk_stores, base.modules.size());
  }
  sim::ProgramEvaluator warm(base, sim::arm_a57_model());
  warm.set_prefix_cache_config(cfg);
  check(warm);
  EXPECT_EQ(warm.prefix_cache_stats().passes_run, 0u);
  EXPECT_GE(warm.prefix_cache_stats().disk_hits, base.modules.size());
  fs::remove_all(cfg.disk_dir);
}
