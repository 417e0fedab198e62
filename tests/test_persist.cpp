// Tests for the crash-safety layer (src/persist): codec round trips,
// journal recovery under every corruption mode the design promises to
// survive (torn tail, bit flip, zero-length, garbage header), atomic
// checkpoints, RunSession verify/diverge semantics, and bit-exact
// serialization of the stateful components (RNG, GP, evaluator caches,
// fault-injector attempts).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_suite/suite.hpp"
#include "gp/gp.hpp"
#include "persist/checkpoint.hpp"
#include "persist/codec.hpp"
#include "persist/journal.hpp"
#include "persist/quarantine.hpp"
#include "persist/journaled_evaluator.hpp"
#include "persist/run_session.hpp"
#include "sim/evaluator.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/robust_evaluator.hpp"
#include "support/matrix.hpp"
#include "support/rng.hpp"

using namespace citroen;

namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "citroen_persist_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

std::string journal_with_records(const std::string& path,
                                 const std::vector<std::string>& payloads) {
  std::remove(path.c_str());
  persist::JournalWriter w(path, persist::JournalConfig{}, 0);
  for (const auto& p : payloads) w.append(p);
  w.flush();
  return path;
}

}  // namespace

// ---- codec ----------------------------------------------------------------

TEST(PersistCodec, Crc32KnownValue) {
  // The CRC-32/ISO-HDLC check value from the catalogue of CRC algorithms.
  EXPECT_EQ(persist::crc32(std::string("123456789")), 0xCBF43926u);
}

TEST(PersistCodec, PrimitivesRoundTrip) {
  persist::Writer w;
  w.u8(7);
  w.b(true);
  w.b(false);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.str("hello\0world");
  const std::string blob = w.take();

  persist::Reader r(blob);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.str(), "hello");  // literal truncates at NUL when built
  EXPECT_TRUE(r.at_end());
}

TEST(PersistCodec, TruncatedPayloadThrows) {
  persist::Writer w;
  w.u64(1);
  w.u64(2);
  const std::string blob = w.take();
  const std::string torn = blob.substr(0, blob.size() - 3);
  persist::Reader r(torn);
  EXPECT_EQ(r.u64(), 1u);
  EXPECT_THROW(r.u64(), std::runtime_error);
}

TEST(PersistCodec, ContainersAndMatrixRoundTrip) {
  persist::Writer w;
  const Vec v = {1.5, -2.25, 1e-300};
  Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = -7.5;
  const std::vector<std::string> names = {"a", "", "long name with spaces"};
  const std::map<std::string, int> counts = {{"x", 1}, {"y", -2}};
  persist::put(w, v);
  persist::put(w, m);
  persist::put(w, names);
  persist::put(w, counts);

  const std::string blob = w.take();
  persist::Reader r(blob);
  Vec v2;
  Matrix m2;
  std::vector<std::string> names2;
  std::map<std::string, int> counts2;
  persist::get(r, v2);
  persist::get(r, m2);
  persist::get(r, names2);
  persist::get(r, counts2);
  EXPECT_EQ(v2, v);
  EXPECT_EQ(m2.rows(), 2u);
  EXPECT_EQ(m2.cols(), 3u);
  EXPECT_EQ(m2(0, 0), 1.0);
  EXPECT_EQ(m2(1, 2), -7.5);
  EXPECT_EQ(names2, names);
  EXPECT_EQ(counts2, counts);
  EXPECT_TRUE(r.at_end());
}

TEST(PersistCodec, CompactAssignmentRoundTrip) {
  const auto& names = passes::PassRegistry::instance().pass_names();
  sim::SequenceAssignment a;
  a["mod_a"] = {names.front(), names.back(), names[names.size() / 2]};
  a["mod_b"] = {};
  a["mod_c"] = {names.front(), "not-a-registered-pass", names[1]};

  persist::Writer w;
  persist::put_compact_assignment(w, a);
  const std::string blob = w.take();
  // The dictionary encoding is the point: registered names cost two bytes,
  // not a length-prefixed string.
  persist::Writer plain;
  sim::put(plain, a);
  EXPECT_LT(blob.size(), plain.size());

  persist::Reader r(blob);
  sim::SequenceAssignment b;
  persist::get_compact_assignment(r, b);
  EXPECT_TRUE(r.at_end());
  ASSERT_EQ(b.size(), a.size());
  for (const auto& [module, seq] : a) EXPECT_EQ(b[module], seq);
}

TEST(PersistCodec, CompactAssignmentRejectsBadPassId) {
  persist::Writer w;
  w.u64(1);
  w.str("m");
  w.u32(1);
  w.u8(0xFE);  // id 0xFFFE: in-range frame, out-of-range registry id
  w.u8(0xFF);
  const std::string blob = w.take();
  persist::Reader r(blob);
  sim::SequenceAssignment a;
  EXPECT_THROW(persist::get_compact_assignment(r, a), std::runtime_error);
}

TEST(PersistCodec, RngRoundTripIncludesSpareDeviate) {
  Rng rng(12345);
  rng.normal();  // leaves a cached Marsaglia spare with ~50% probability;
  rng.uniform();
  rng.normal();  // draw a couple to hit both parities across runs
  persist::Writer w;
  persist::put(w, rng);
  const std::string blob = w.take();
  persist::Reader r(blob);
  Rng copy(1);
  persist::get(r, copy);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.normal()),
              std::bit_cast<std::uint64_t>(copy.normal()));
    ASSERT_EQ(rng.uniform_int(0, 1000), copy.uniform_int(0, 1000));
  }
}

// ---- journal --------------------------------------------------------------

TEST(PersistJournal, AppendAndRecover) {
  const std::string path = temp_path("jrn_basic");
  journal_with_records(path, {"alpha", "", "gamma with bytes \x01\x02"});
  const auto rec = persist::recover_journal(path);
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.records[0], "alpha");
  EXPECT_EQ(rec.records[1], "");
  EXPECT_EQ(rec.records[2], "gamma with bytes \x01\x02");
  EXPECT_FALSE(rec.truncated);
  EXPECT_EQ(rec.valid_bytes, rec.file_bytes);
}

TEST(PersistJournal, TruncatedTailRecoversPrefix) {
  const std::string path = temp_path("jrn_torn");
  journal_with_records(path, {"first", "second", "third"});
  const std::string bytes = read_file(path);
  // Chop mid-way through the last record's payload: a torn append.
  write_file(path, bytes.substr(0, bytes.size() - 2));
  const auto rec = persist::recover_journal(path);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[1], "second");
  EXPECT_TRUE(rec.truncated);
  EXPECT_NE(rec.note.find(std::to_string(rec.valid_bytes)),
            std::string::npos)
      << "recovery note must name the byte offset: " << rec.note;
}

TEST(PersistJournal, BitFlippedPayloadRecoversPrefix) {
  const std::string path = temp_path("jrn_flip");
  journal_with_records(path, {"aaaaaaaa", "bbbbbbbb", "cccccccc"});
  std::string bytes = read_file(path);
  // Flip one bit inside the second record's payload; its CRC must fail.
  const std::size_t second_payload =
      persist::kJournalHeaderBytes + (8 + 8) + 8 + 2;
  bytes[second_payload] = static_cast<char>(bytes[second_payload] ^ 0x10);
  write_file(path, bytes);
  const auto rec = persist::recover_journal(path);
  ASSERT_EQ(rec.records.size(), 1u);
  EXPECT_EQ(rec.records[0], "aaaaaaaa");
  EXPECT_TRUE(rec.truncated);
  EXPECT_FALSE(rec.note.empty());
}

TEST(PersistJournal, ZeroLengthAndMissingAndGarbage) {
  const std::string empty = temp_path("jrn_empty");
  write_file(empty, "");
  auto rec = persist::recover_journal(empty);
  EXPECT_TRUE(rec.records.empty());

  rec = persist::recover_journal(temp_path("jrn_never_created"));
  EXPECT_TRUE(rec.records.empty());

  const std::string garbage = temp_path("jrn_garbage");
  write_file(garbage, "this is not a journal at all, not even close");
  rec = persist::recover_journal(garbage);
  EXPECT_TRUE(rec.records.empty());
  EXPECT_FALSE(rec.note.empty());
}

TEST(PersistJournal, WriterResumesAfterTruncatedTail) {
  const std::string path = temp_path("jrn_resume");
  journal_with_records(path, {"one", "two"});
  std::string bytes = read_file(path);
  write_file(path, bytes + "torn garbage tail");
  auto rec = persist::recover_journal(path);
  ASSERT_EQ(rec.records.size(), 2u);
  ASSERT_TRUE(rec.truncated);
  {
    persist::JournalWriter w(path, persist::JournalConfig{}, rec.valid_bytes);
    w.append("three");
    w.flush();
  }
  rec = persist::recover_journal(path);
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.records[2], "three");
  EXPECT_FALSE(rec.truncated);
}

TEST(PersistJournal, TruncationBetweenCrcAndNextHeaderRecoversPrefix) {
  // The torn frame carries its complete [len][crc] header but zero
  // payload bytes — truncation exactly between the CRC word and where
  // the payload (and eventually the next header) would begin.
  const std::string path = temp_path("jrn_hdr_only");
  journal_with_records(path, {"first", "second", "third"});
  const std::string bytes = read_file(path);
  const std::size_t two_records =
      persist::kJournalHeaderBytes + (8 + 5) + (8 + 6);  // "first","second"
  write_file(path, bytes.substr(0, two_records + 8));  // + bare header
  const auto rec = persist::recover_journal(path);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[1], "second");
  EXPECT_TRUE(rec.truncated);
  EXPECT_EQ(rec.valid_bytes, two_records);
}

TEST(PersistJournal, TruncationAtExactRecordBoundaryIsClean) {
  // Chopping precisely after a record's last payload byte leaves a valid
  // shorter journal: nothing torn, nothing to truncate.
  const std::string path = temp_path("jrn_boundary");
  journal_with_records(path, {"first", "second", "third"});
  const std::string bytes = read_file(path);
  const std::size_t two_records =
      persist::kJournalHeaderBytes + (8 + 5) + (8 + 6);
  write_file(path, bytes.substr(0, two_records));
  const auto rec = persist::recover_journal(path);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_FALSE(rec.truncated);
  EXPECT_EQ(rec.valid_bytes, rec.file_bytes);
}

TEST(PersistJournal, MagicOnlyFileIsCleanAndEmpty) {
  // A writer that crashed before its first append leaves just the magic:
  // a legitimate zero-record journal, not corruption.
  const std::string path = temp_path("jrn_magic_only");
  std::remove(path.c_str());
  {
    persist::JournalWriter w(path, persist::JournalConfig{}, 0);
    w.flush();
  }
  const auto rec = persist::recover_journal(path);
  EXPECT_TRUE(rec.records.empty());
  EXPECT_FALSE(rec.truncated);
  EXPECT_EQ(rec.file_bytes, rec.valid_bytes);
  EXPECT_EQ(rec.file_bytes,
            static_cast<std::uint64_t>(persist::kJournalHeaderBytes));
}

// ---- quarantine -----------------------------------------------------------

TEST(PersistQuarantine, RenamesToDotBad) {
  const std::string path = temp_path("quar_basic");
  for (int i = 0; i < 20; ++i)
    std::remove(
        (i ? path + ".bad." + std::to_string(i) : path + ".bad").c_str());
  write_file(path, "corrupt bytes");
  const std::string dest = persist::quarantine_file(path);
  EXPECT_EQ(dest, path + ".bad");
  EXPECT_EQ(read_file(dest), "corrupt bytes");
  std::ifstream original(path);
  EXPECT_FALSE(original.good()) << "original must be gone after quarantine";
}

TEST(PersistQuarantine, CounterAvoidsClobberingPriorQuarantine) {
  const std::string path = temp_path("quar_counter");
  for (int i = 0; i < 20; ++i)
    std::remove(
        (i ? path + ".bad." + std::to_string(i) : path + ".bad").c_str());
  write_file(path, "first corruption");
  ASSERT_EQ(persist::quarantine_file(path), path + ".bad");
  write_file(path, "second corruption");
  EXPECT_EQ(persist::quarantine_file(path), path + ".bad.1");
  EXPECT_EQ(read_file(path + ".bad"), "first corruption");
  EXPECT_EQ(read_file(path + ".bad.1"), "second corruption");
}

// ---- checkpoint -----------------------------------------------------------

TEST(PersistCheckpoint, RoundTripAndCorruptionRejected) {
  const std::string path = temp_path("ckpt");
  const std::string payload(1000, '\x5A');
  persist::write_checkpoint(path, payload);
  auto got = persist::read_checkpoint(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);

  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(path, bytes);
  std::string note;
  got = persist::read_checkpoint(path, &note);
  EXPECT_FALSE(got.has_value());
  EXPECT_FALSE(note.empty());

  EXPECT_FALSE(persist::read_checkpoint(temp_path("ckpt_missing"))
                   .has_value());
}

// ---- run session ----------------------------------------------------------

TEST(PersistRunSession, FreshRunThenResumeVerifiesTail) {
  const std::string dir = temp_path("sess_verify");
  persist::SessionConfig cfg;
  cfg.dir = dir;
  {
    persist::RunSession s(cfg, "run");
    EXPECT_FALSE(s.complete());
    EXPECT_EQ(s.next_index(), 0u);
    s.push("r0");
    s.push("r1");
    s.push("r2");
    s.flush();
  }
  cfg.resume = true;
  persist::RunSession s(cfg, "run");
  ASSERT_EQ(s.num_records(), 3u);
  EXPECT_FALSE(s.has_state());
  // Replay from index 0: identical pushes verify silently.
  s.push("r0");
  s.push("r1");
  s.push("r2");
  s.push("r3");  // past the tail: append mode
  EXPECT_EQ(s.next_index(), 4u);
}

TEST(PersistRunSession, DivergenceTruncatesStaleTail) {
  const std::string dir = temp_path("sess_diverge");
  persist::SessionConfig cfg;
  cfg.dir = dir;
  {
    persist::RunSession s(cfg, "run");
    s.push("same");
    s.push("old-a");
    s.push("old-b");
    s.flush();
  }
  cfg.resume = true;
  {
    persist::RunSession s(cfg, "run");
    s.push("same");
    s.push("NEW");  // diverges: warn, truncate, keep the recomputed record
    s.push("after");
    s.flush();
  }
  persist::RunSession s(cfg, "run");
  ASSERT_EQ(s.num_records(), 3u);
  EXPECT_EQ(s.record(1), "NEW");
  EXPECT_EQ(s.record(2), "after");
}

TEST(PersistRunSession, CompleteCheckpointShortCircuitsResume) {
  const std::string dir = temp_path("sess_complete");
  persist::SessionConfig cfg;
  cfg.dir = dir;
  {
    persist::RunSession s(cfg, "run");
    s.push("r0");
    s.save_checkpoint("final-state", /*complete=*/true);
  }
  cfg.resume = true;
  persist::RunSession s(cfg, "run");
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.state(), "final-state");
}

TEST(PersistRunSession, CheckpointCursorSkipsFoldedRecords) {
  const std::string dir = temp_path("sess_cursor");
  persist::SessionConfig cfg;
  cfg.dir = dir;
  cfg.checkpoint_every = 2;
  {
    persist::RunSession s(cfg, "run");
    s.push("r0");
    s.push("r1");
    EXPECT_TRUE(s.checkpoint_due());
    s.save_checkpoint("state@2", /*complete=*/false);
    EXPECT_FALSE(s.checkpoint_due());
    s.push("r2");
    s.flush();
  }
  cfg.resume = true;
  persist::RunSession s(cfg, "run");
  ASSERT_TRUE(s.has_state());
  EXPECT_EQ(s.state(), "state@2");
  EXPECT_EQ(s.state_records(), 2u);
  // The cursor starts at K: the next push verifies against record 2.
  EXPECT_EQ(s.next_index(), 2u);
  s.push("r2");
  EXPECT_EQ(s.next_index(), 3u);
}

TEST(PersistRunSession, FreshStartDiscardsPriorState) {
  const std::string dir = temp_path("sess_fresh");
  persist::SessionConfig cfg;
  cfg.dir = dir;
  {
    persist::RunSession s(cfg, "run");
    s.push("old");
    s.save_checkpoint("old-state", /*complete=*/true);
  }
  // resume=false: start over.
  persist::RunSession s(cfg, "run");
  EXPECT_FALSE(s.complete());
  EXPECT_FALSE(s.has_state());
  EXPECT_EQ(s.num_records(), 0u);
}

// ---- stateful components --------------------------------------------------

TEST(PersistState, GaussianProcessRoundTripIsBitExact) {
  Rng rng(99);
  gp::GpConfig cfg;
  cfg.fit_steps = 10;
  gp::GaussianProcess a(3, cfg);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i < 12; ++i) {
    Vec x(3);
    for (auto& v : x) v = rng.uniform();
    ys.push_back(std::sin(3.0 * x[0]) + 0.1 * x[1] - x[2] * x[2]);
    xs.push_back(std::move(x));
  }
  a.fit(xs, ys);
  // Extend incrementally so the serialized factor is the rank-one-updated
  // one (which differs from a fresh refit in the last ulps).
  a.set_fit_hypers(false);
  xs.push_back(Vec{0.25, 0.5, 0.75});
  ys.push_back(0.123);
  a.fit(xs, ys);
  ASSERT_GE(a.num_incremental_fits(), 1);

  persist::Writer w;
  a.save_state(w);
  gp::GaussianProcess b(3, cfg);
  const std::string blob = w.take();
  persist::Reader r(blob);
  b.load_state(r);

  Rng probe(7);
  for (int i = 0; i < 20; ++i) {
    Vec x(3);
    for (auto& v : x) v = probe.uniform();
    const auto pa = a.predict(x);
    const auto pb = b.predict(x);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(pa.mean),
              std::bit_cast<std::uint64_t>(pb.mean));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(pa.var),
              std::bit_cast<std::uint64_t>(pb.var));
  }
  // Continued incremental fits stay in lockstep too.
  xs.push_back(Vec{0.9, 0.1, 0.4});
  ys.push_back(-0.5);
  a.fit(xs, ys);
  b.fit(xs, ys);
  const auto pa = a.predict(Vec{0.3, 0.3, 0.3});
  const auto pb = b.predict(Vec{0.3, 0.3, 0.3});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pa.mean),
            std::bit_cast<std::uint64_t>(pb.mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pa.var),
            std::bit_cast<std::uint64_t>(pb.var));
}

TEST(PersistState, GaussianProcessRejectsWrongDimension) {
  gp::GaussianProcess a(3);
  persist::Writer w;
  a.save_state(w);
  gp::GaussianProcess b(4);
  const std::string blob = w.take();
  persist::Reader r(blob);
  EXPECT_THROW(b.load_state(r), std::runtime_error);
}

namespace {

sim::SequenceAssignment random_assignment(const sim::ProgramEvaluator& eval,
                                          Rng& rng) {
  static const std::vector<std::string> pool = {
      "mem2reg", "gvn", "dce", "instcombine", "licm", "sroa"};
  sim::SequenceAssignment a;
  std::vector<std::string> seq;
  for (int i = 0; i < 5; ++i)
    seq.push_back(pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))]);
  a[eval.hot_modules().front().first] = seq;
  return a;
}

}  // namespace

TEST(PersistState, EvaluatorRuntimeStateRoundTrip) {
  sim::ProgramEvaluator a(bench_suite::make_program("security_sha"),
                          sim::machine_by_name("arm"));
  sim::ProgramEvaluator b(bench_suite::make_program("security_sha"),
                          sim::machine_by_name("arm"));
  Rng rng(5);
  std::vector<sim::SequenceAssignment> seen;
  for (int i = 0; i < 6; ++i) {
    seen.push_back(random_assignment(a, rng));
    a.evaluate(seen.back());
  }
  persist::Writer w;
  a.save_runtime_state(w);
  const std::string blob = w.take();
  persist::Reader r(blob);
  b.load_runtime_state(r);
  EXPECT_EQ(b.num_measurements(), a.num_measurements());
  // Re-evaluating a seen assignment must hit the identical-binary cache in
  // both, producing byte-identical outcomes (incl. the cache_hit flag).
  for (const auto& s : seen) {
    const auto oa = a.evaluate(s);
    const auto ob = b.evaluate(s);
    EXPECT_TRUE(ob.cache_hit);
    persist::Writer wa, wb;
    sim::put(wa, oa);
    sim::put(wb, ob);
    EXPECT_EQ(wa.take(), wb.take());
  }
}

TEST(PersistState, RobustEvaluatorAndInjectorRoundTrip) {
  sim::FaultPlan plan;
  plan.seed = 77;
  plan.transient_crash_rate = 0.25;
  plan.deterministic_crash_rate = 0.25;
  plan.noise_sigma = 0.05;

  sim::ProgramEvaluator base_a(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  sim::FaultInjector inj_a(plan);
  sim::RobustEvaluator a(base_a, sim::RobustConfig{}, &inj_a);

  Rng rng(11);
  std::vector<sim::SequenceAssignment> seqs;
  for (int i = 0; i < 10; ++i) {
    seqs.push_back(random_assignment(base_a, rng));
    a.evaluate(seqs.back());
  }

  persist::Writer w;
  a.save_state(w);
  base_a.save_runtime_state(w);
  inj_a.save_attempts(w);
  const std::string blob = w.take();

  sim::ProgramEvaluator base_b(bench_suite::make_program("security_sha"),
                               sim::machine_by_name("arm"));
  sim::FaultInjector inj_b(plan);
  sim::RobustEvaluator b(base_b, sim::RobustConfig{}, &inj_b);
  persist::Reader r(blob);
  b.load_state(r);
  base_b.load_runtime_state(r);
  inj_b.load_attempts(r);

  // Quarantine decisions and continued evaluation streams must agree.
  Rng rng_a(13), rng_b(13);
  for (int i = 0; i < 8; ++i) {
    const auto sa = random_assignment(base_a, rng_a);
    const auto sb = random_assignment(base_b, rng_b);
    EXPECT_EQ(a.is_quarantined(sa), b.is_quarantined(sb));
    const auto oa = a.evaluate(sa);
    const auto ob = b.evaluate(sb);
    persist::Writer wa, wb;
    sim::put(wa, oa);
    sim::put(wb, ob);
    ASSERT_EQ(wa.take(), wb.take());
  }
}

// ---- sandbox failure taxonomy in journal records (PR 4) --------------------

TEST(PersistCodec, WorkerFailureKindsRoundTrip) {
  // The journal stores FailureKind as a u8; the sandbox classes appended
  // in PR 4 must survive the trip (and never renumber earlier classes).
  for (const auto kind :
       {sim::FailureKind::WorkerCrash, sim::FailureKind::WorkerTimeout,
        sim::FailureKind::WorkerOOM}) {
    sim::EvalOutcome o;
    o.valid = false;
    o.failure = kind;
    o.why_invalid = "sandbox: worker killed by signal 11 (stage build)";
    o.transient = false;
    o.attempts = 1;
    persist::Writer w;
    sim::put(w, o);
    const std::string bytes = w.take();
    persist::Reader r(bytes);
    sim::EvalOutcome back;
    sim::get(r, back);
    EXPECT_EQ(back.failure, kind);
    EXPECT_EQ(back.why_invalid, o.why_invalid);
    EXPECT_FALSE(back.valid);
  }
  // Pre-sandbox classes keep their wire values (append-only enum).
  EXPECT_EQ(static_cast<int>(sim::FailureKind::Verifier), 5);
  EXPECT_EQ(static_cast<int>(sim::FailureKind::WorkerCrash), 6);
  EXPECT_EQ(static_cast<int>(sim::FailureKind::WorkerTimeout), 7);
  EXPECT_EQ(static_cast<int>(sim::FailureKind::WorkerOOM), 8);
}

TEST(PersistCodec, FaultPlanRealFaultRatesRoundTrip) {
  sim::FaultPlan p;
  p.seed = 77;
  p.transient_crash_rate = 0.125;
  p.segv_rate = 0.25;
  p.oom_rate = 0.0625;
  p.spin_rate = 0.03125;
  persist::Writer w;
  sim::put(w, p);
  const std::string bytes = w.take();
  persist::Reader r(bytes);
  sim::FaultPlan back;
  sim::get(r, back);
  EXPECT_EQ(back.seed, p.seed);
  EXPECT_EQ(back.transient_crash_rate, p.transient_crash_rate);
  EXPECT_EQ(back.segv_rate, p.segv_rate);
  EXPECT_EQ(back.oom_rate, p.oom_rate);
  EXPECT_EQ(back.spin_rate, p.spin_rate);
}
