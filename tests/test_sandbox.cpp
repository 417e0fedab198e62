// Tests for out-of-process evaluation in fork workers: IPC frame
// properties under truncation/corruption, the job/result codecs
// (src/sandbox/), byte-identity of a fork-worker pool (dist/pool.hpp) vs.
// plain evaluation, the build summaries a result carries (the pool's base
// runs no pass for what its workers built, and rebuilds where it needs
// the IR), and one containment test per crash class (SIGSEGV, OOM, spin,
// external SIGKILL) plus the circuit-breaker degradation path.

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_suite/suite.hpp"
#include "dist/pool.hpp"
#include "ir/printer.hpp"
#include "persist/codec.hpp"
#include "sandbox/ipc.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/worker.hpp"
#include "sim/evaluator.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/prefix_cache.hpp"
#include "sim/robust_evaluator.hpp"
#include "support/rng.hpp"

using namespace citroen;

namespace {

std::string decode_one(const std::string& bytes, sandbox::DecodeStatus* st) {
  sandbox::FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  std::string payload, err;
  *st = dec.next(&payload, &err);
  return payload;
}

sim::SequenceAssignment make_assignment(int i) {
  const std::vector<std::string> base = {"mem2reg", "instcombine",
                                         "simplifycfg", "gvn", "dce"};
  const auto& space = passes::PassRegistry::instance().pass_names();
  auto seq = base;
  seq[static_cast<std::size_t>(i) % seq.size()] =
      space[(static_cast<std::size_t>(i) * 7 + 3) % space.size()];
  sim::SequenceAssignment a;
  a["sha"] = seq;
  return a;
}

std::string outcome_bytes(const sim::EvalOutcome& o) {
  persist::Writer w;
  sim::put(w, o);
  return w.take();
}

void expect_same_compile(const sim::CompileOutcome& a,
                         const sim::CompileOutcome& b, std::size_t i) {
  EXPECT_EQ(a.valid, b.valid) << "candidate " << i;
  EXPECT_EQ(a.why_invalid, b.why_invalid) << "candidate " << i;
  EXPECT_EQ(a.failure, b.failure) << "candidate " << i;
  EXPECT_EQ(a.binary_hash, b.binary_hash) << "candidate " << i;
  EXPECT_EQ(a.code_size, b.code_size) << "candidate " << i;
  EXPECT_EQ(a.stats.counters(), b.stats.counters()) << "candidate " << i;
  ASSERT_EQ(a.module_stats.size(), b.module_stats.size()) << "candidate " << i;
  for (const auto& [name, st] : a.module_stats)
    EXPECT_EQ(st.counters(), b.module_stats.at(name).counters())
        << "candidate " << i << ", module " << name;
}

bool is_worker_failure(sim::FailureKind k) {
  return k == sim::FailureKind::WorkerCrash ||
         k == sim::FailureKind::WorkerTimeout ||
         k == sim::FailureKind::WorkerOOM;
}

}  // namespace

// ---- frame transport ------------------------------------------------------

TEST(SandboxIpc, FrameRoundTripsAtVariousSizes) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{160}, std::size_t{70000}}) {
    std::string payload(n, '\x5a');
    for (std::size_t i = 0; i < n; ++i)
      payload[i] = static_cast<char>(i * 31 + 7);
    sandbox::DecodeStatus st;
    const std::string got = decode_one(sandbox::encode_frame(payload), &st);
    EXPECT_EQ(st, sandbox::DecodeStatus::Ok);
    EXPECT_EQ(got, payload);
  }
}

TEST(SandboxIpc, ChunkedFeedReassembles) {
  const std::string payload(1000, '\x42');
  const std::string frame = sandbox::encode_frame(payload);
  sandbox::FrameDecoder dec;
  std::string out, err;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    // Every prefix must be NeedMore; only the full frame decodes.
    EXPECT_EQ(dec.next(&out, &err), sandbox::DecodeStatus::NeedMore);
    dec.feed(frame.data() + i, 1);
  }
  EXPECT_EQ(dec.next(&out, &err), sandbox::DecodeStatus::Ok);
  EXPECT_EQ(out, payload);
}

TEST(SandboxIpc, EveryTruncationIsNeedMoreNeverOk) {
  const std::string frame = sandbox::encode_frame(std::string(64, '\x17'));
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    sandbox::DecodeStatus st;
    decode_one(frame.substr(0, cut), &st);
    EXPECT_EQ(st, sandbox::DecodeStatus::NeedMore) << "cut at " << cut;
  }
}

TEST(SandboxIpc, EveryBitFlipIsDetected) {
  const std::string payload = "the quick brown fox jumps over compilers";
  const std::string frame = sandbox::encode_frame(payload);
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = frame;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      sandbox::DecodeStatus st;
      decode_one(bad, &st);
      // A flip in the length field may leave the decoder waiting for a
      // longer frame (NeedMore); everything else must be caught by the
      // length plausibility check or the CRC. Never a clean decode.
      EXPECT_NE(st, sandbox::DecodeStatus::Ok)
          << "flip byte " << byte << " bit " << bit;
    }
  }
}

TEST(SandboxIpc, RandomMutationsNeverYieldAForgedPayload) {
  Rng rng(2024);
  const std::string payload(256, '\x33');
  const std::string frame = sandbox::encode_frame(payload);
  for (int trial = 0; trial < 500; ++trial) {
    std::string bad = frame;
    const int flips = 1 + static_cast<int>(rng.uniform_index(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.uniform_index(bad.size());
      bad[pos] = static_cast<char>(bad[pos] ^
                                   (1 << rng.uniform_index(8)));
    }
    sandbox::DecodeStatus st;
    const std::string got = decode_one(bad, &st);
    if (st == sandbox::DecodeStatus::Ok) {
      EXPECT_EQ(got, payload);
    }
  }
}

TEST(SandboxIpc, CorruptionPoisonsTheDecoderPermanently) {
  const std::string frame = sandbox::encode_frame(std::string(32, 'x'));
  std::string bad = frame;
  bad[sandbox::kFrameHeaderBytes] ^= 0x01;  // payload flip -> CRC mismatch
  sandbox::FrameDecoder dec;
  dec.feed(bad.data(), bad.size());
  std::string out, err;
  EXPECT_EQ(dec.next(&out, &err), sandbox::DecodeStatus::Corrupt);
  // Even a pristine follow-up frame must not be trusted on this stream.
  dec.feed(frame.data(), frame.size());
  EXPECT_EQ(dec.next(&out, &err), sandbox::DecodeStatus::Corrupt);
}

TEST(SandboxIpc, ImplausibleLengthIsCorrupt) {
  std::string header;
  const std::uint32_t len = sandbox::kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i)
    header.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  header.append(4, '\0');  // CRC never inspected
  sandbox::DecodeStatus st;
  decode_one(header, &st);
  EXPECT_EQ(st, sandbox::DecodeStatus::Corrupt);
}

TEST(SandboxIpc, SocketRealisticShortReadChunkings) {
  // A stream socket delivers frames in arbitrary chunks. Reassembly must
  // work for every chunking, including pathological 1-byte reads and
  // chunk sizes that straddle the header/payload boundary.
  std::vector<std::string> frames;
  std::string stream;
  for (int i = 0; i < 5; ++i) {
    std::string payload(static_cast<std::size_t>(37 * i + 3), '\0');
    for (std::size_t k = 0; k < payload.size(); ++k)
      payload[k] = static_cast<char>(k * 13 + i);
    frames.push_back(payload);
    stream += sandbox::encode_frame(payload);
  }
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{11},
                                  std::size_t{64}}) {
    sandbox::FrameDecoder dec;
    std::vector<std::string> got;
    std::string out, err;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      dec.feed(stream.data() + off, std::min(chunk, stream.size() - off));
      while (dec.next(&out, &err) == sandbox::DecodeStatus::Ok)
        got.push_back(out);
    }
    ASSERT_EQ(got.size(), frames.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < frames.size(); ++i)
      EXPECT_EQ(got[i], frames[i]) << "chunk " << chunk << " frame " << i;
  }
}

TEST(SandboxIpc, TwoSessionsInterleaveWithoutCrossTalk) {
  // The daemon runs one FrameDecoder per client connection; bytes from
  // two sessions interleaved at arbitrary cut points must never bleed
  // into each other's decoder.
  const std::string a1 = sandbox::encode_frame("session-a first");
  const std::string a2 = sandbox::encode_frame(std::string(513, 'A'));
  const std::string b1 = sandbox::encode_frame(std::string(129, 'B'));
  const std::string b2 = sandbox::encode_frame("session-b second");
  const std::string sa = a1 + a2, sb = b1 + b2;

  sandbox::FrameDecoder da, db;
  std::string out, err;
  std::vector<std::string> got_a, got_b;
  std::size_t pa = 0, pb = 0;
  int turn = 0;
  // Alternate tiny slices between the sessions (5 bytes to A, 3 to B).
  while (pa < sa.size() || pb < sb.size()) {
    if (turn++ % 2 == 0 && pa < sa.size()) {
      const std::size_t n = std::min<std::size_t>(5, sa.size() - pa);
      da.feed(sa.data() + pa, n);
      pa += n;
    } else if (pb < sb.size()) {
      const std::size_t n = std::min<std::size_t>(3, sb.size() - pb);
      db.feed(sb.data() + pb, n);
      pb += n;
    }
    while (da.next(&out, &err) == sandbox::DecodeStatus::Ok)
      got_a.push_back(out);
    while (db.next(&out, &err) == sandbox::DecodeStatus::Ok)
      got_b.push_back(out);
  }
  ASSERT_EQ(got_a.size(), 2u);
  ASSERT_EQ(got_b.size(), 2u);
  EXPECT_EQ(got_a[0], "session-a first");
  EXPECT_EQ(got_a[1], std::string(513, 'A'));
  EXPECT_EQ(got_b[0], std::string(129, 'B'));
  EXPECT_EQ(got_b[1], "session-b second");
}

TEST(SandboxIpc, OversizedFrameErrorNamesLengthAndCap) {
  std::string header;
  const std::uint32_t len = sandbox::kMaxFramePayload + 123;
  for (int i = 0; i < 4; ++i)
    header.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  header.append(4, '\0');
  sandbox::FrameDecoder dec;
  dec.feed(header.data(), header.size());
  std::string out, err;
  EXPECT_EQ(dec.next(&out, &err), sandbox::DecodeStatus::Corrupt);
  // The message must report both the observed length and the active cap,
  // so an operator can tell a torn header from a legitimately huge frame.
  EXPECT_NE(err.find(std::to_string(len)), std::string::npos) << err;
  EXPECT_NE(err.find(std::to_string(sandbox::kMaxFramePayload)),
            std::string::npos)
      << err;
}

TEST(SandboxIpc, ReaderReportsEofOnTornWrite) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string frame = sandbox::encode_frame(std::string(128, 'y'));
  // Half a frame, then the writer "dies".
  ASSERT_EQ(::write(fds[1], frame.data(), frame.size() / 2),
            static_cast<ssize_t>(frame.size() / 2));
  ::close(fds[1]);
  sandbox::FrameReader reader(fds[0]);
  std::string payload, err;
  EXPECT_EQ(reader.read(&payload, /*timeout_seconds=*/5.0, &err),
            sandbox::IoStatus::Eof);
  ::close(fds[0]);
}

// ---- job/result codecs ----------------------------------------------------

TEST(SandboxProtocol, JobRoundTripsWithAndWithoutPlan) {
  sandbox::SandboxJob job;
  job.id = 0x1122334455667788ull;
  job.kind = sandbox::JobKind::Compile;
  job.assignment = make_assignment(3);
  for (const bool with_plan : {false, true}) {
    job.has_plan = with_plan;
    if (with_plan) {
      job.plan.seed = 99;
      job.plan.segv_rate = 0.25;
      job.plan.noise_sigma = 0.125;
    }
    sandbox::SandboxJob back;
    std::string err;
    ASSERT_TRUE(sandbox::decode_job(sandbox::encode_job(job), &back, &err))
        << err;
    EXPECT_EQ(back.id, job.id);
    EXPECT_EQ(back.kind, job.kind);
    EXPECT_EQ(back.has_plan, job.has_plan);
    if (with_plan) {
      EXPECT_EQ(back.plan.seed, job.plan.seed);
      EXPECT_EQ(back.plan.segv_rate, job.plan.segv_rate);
      EXPECT_EQ(back.plan.noise_sigma, job.plan.noise_sigma);
    }
    EXPECT_EQ(back.assignment, job.assignment);
  }
}

TEST(SandboxProtocol, ResultRoundTripsBitExactDoubles) {
  sandbox::SandboxResult res;
  res.id = 7;
  res.status = sandbox::ResultStatus::Ok;
  res.pure.built = true;
  res.pure.binary_hash = 0xdeadbeefcafef00dull;
  ir::ExecResult run;
  run.ok = true;
  run.ret = -12345;
  run.cycles = 0.1 + 0.2;  // not representable; must survive bit-exactly
  run.instructions = 987654321;
  res.pure.runs = {run, run};
  sandbox::SandboxResult back;
  std::string err;
  ASSERT_TRUE(sandbox::decode_result(sandbox::encode_result(res), &back,
                                     &err))
      << err;
  EXPECT_EQ(back.pure.binary_hash, res.pure.binary_hash);
  ASSERT_EQ(back.pure.runs.size(), 2u);
  EXPECT_EQ(back.pure.runs[0].ret, run.ret);
  EXPECT_EQ(back.pure.runs[0].cycles, run.cycles);
  EXPECT_EQ(back.pure.runs[0].instructions, run.instructions);
  EXPECT_TRUE(back.obs_events.empty());
  EXPECT_TRUE(back.obs_counters.empty());
}

TEST(SandboxProtocol, ResultRoundTripsObsDeltas) {
  sandbox::SandboxResult res;
  res.id = 9;
  res.pure.built = true;
  sandbox::ObsEventWire ev;
  ev.phase = 'B';
  ev.name = "build";
  ev.cat = "eval";
  ev.ts_ns = 123456789;
  res.obs_events.push_back(ev);
  ev.phase = 'I';
  ev.name = "dist_reassign";
  ev.cat = "dist";
  ev.arg_name = "attempt";
  ev.arg = 12;
  ev.str_arg = "detail \"quoted\"";
  res.obs_events.push_back(ev);
  res.obs_counters.emplace_back("citroen_builds_total", 3);
  res.obs_counters.emplace_back("citroen_measurements_total", 1);

  sandbox::SandboxResult back;
  std::string err;
  ASSERT_TRUE(sandbox::decode_result(sandbox::encode_result(res), &back,
                                     &err))
      << err;
  ASSERT_EQ(back.obs_events.size(), 2u);
  EXPECT_EQ(back.obs_events[0].phase, 'B');
  EXPECT_EQ(back.obs_events[0].name, "build");
  EXPECT_EQ(back.obs_events[0].cat, "eval");
  EXPECT_EQ(back.obs_events[0].ts_ns, 123456789u);
  EXPECT_EQ(back.obs_events[1].arg_name, "attempt");
  EXPECT_EQ(back.obs_events[1].arg, 12u);
  EXPECT_EQ(back.obs_events[1].str_arg, "detail \"quoted\"");
  ASSERT_EQ(back.obs_counters.size(), 2u);
  EXPECT_EQ(back.obs_counters[0].first, "citroen_builds_total");
  EXPECT_EQ(back.obs_counters[0].second, 3u);
  EXPECT_EQ(back.obs_counters[1].second, 1u);
  // A truncated obs tail (the pre-obs frame layout) must be rejected, so
  // supervisor and worker can never skew silently across this field.
  const std::string bytes = sandbox::encode_result(res);
  EXPECT_FALSE(
      sandbox::decode_result(bytes.substr(0, bytes.size() - 4), &back, &err));
}

TEST(SandboxProtocol, ResultCarriesBuildSummariesWithoutIr) {
  const auto program = bench_suite::make_program("security_sha");
  const sim::PrefixCache cache;
  const auto built = cache.build(
      program.modules[0], passes::intern_sequence({"mem2reg", "gvn", "dce"}));
  ASSERT_TRUE(built->ok);
  auto failed = std::make_shared<sim::ModuleBuild>();
  failed->crashed = true;
  failed->error = "pass threw";
  sandbox::SandboxResult res;
  res.id = 3;
  res.pure.summaries = {{"sha", built}, {"pad", failed}};
  sandbox::SandboxResult back;
  std::string err;
  const std::string bytes = sandbox::encode_result(res);
  ASSERT_TRUE(sandbox::decode_result(bytes, &back, &err)) << err;
  ASSERT_EQ(back.pure.summaries.size(), 2u);
  const auto& ok = *back.pure.summaries[0].build;
  EXPECT_EQ(back.pure.summaries[0].module, "sha");
  EXPECT_TRUE(ok.summary);
  EXPECT_TRUE(ok.ok);
  EXPECT_TRUE(ok.module.functions.empty());
  EXPECT_EQ(ok.print_hash, built->print_hash);
  EXPECT_EQ(ok.code_size, built->code_size);
  EXPECT_EQ(ok.stats.counters(), built->stats.counters());
  const auto& bad = *back.pure.summaries[1].build;
  EXPECT_EQ(back.pure.summaries[1].module, "pad");
  EXPECT_FALSE(bad.ok);
  EXPECT_TRUE(bad.crashed);
  EXPECT_EQ(bad.error, "pass threw");
  // No IR crosses: the frame is far smaller than the module it describes.
  EXPECT_LT(bytes.size(), ir::print_module(built->module).size() / 4);
}

TEST(SandboxProtocol, MalformedPayloadsAreRejectedNotTrusted) {
  sandbox::SandboxJob job;
  std::string err;
  EXPECT_FALSE(sandbox::decode_job("", &job, &err));
  EXPECT_FALSE(sandbox::decode_job("\x07garbage", &job, &err));
  // Trailing bytes after a valid job are a framing bug somewhere: reject.
  sandbox::SandboxJob good;
  good.assignment = make_assignment(0);
  std::string bytes = sandbox::encode_job(good);
  bytes.push_back('\0');
  EXPECT_FALSE(sandbox::decode_job(bytes, &job, &err));
  sandbox::SandboxResult res;
  EXPECT_FALSE(sandbox::decode_result("\xff\xff", &res, &err));
}

TEST(SandboxProtocol, ProgressWordPacksAndUnpacks) {
  const std::uint64_t word = sandbox::pack_progress(
      0x1234567890ull, sandbox::WorkerStage::Build, 513);
  const auto p = sandbox::unpack_progress(word);
  EXPECT_EQ(p.job_id_lo, 0x34567890u);
  EXPECT_EQ(p.stage, sandbox::WorkerStage::Build);
  EXPECT_EQ(p.pass_id, 513);
}

// ---- end-to-end: byte identity --------------------------------------------

TEST(Sandbox, MatchesPlainEvaluationBitForBit) {
  sim::ProgramEvaluator plain(bench_suite::make_program("security_sha"),
                              sim::arm_a57_model());
  sim::ProgramEvaluator base(bench_suite::make_program("security_sha"),
                             sim::arm_a57_model());
  dist::PoolConfig cfg;
  cfg.fork_workers = 2;
  dist::WorkerPool sandboxed(base, cfg);

  std::vector<sim::SequenceAssignment> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(make_assignment(i));

  // Batch through the pool (prefetch + replay), serial on the plain
  // evaluator: every outcome and the accounting must agree byte-for-byte.
  const auto sandboxed_out = sandboxed.evaluate_batch(batch);
  ASSERT_EQ(sandboxed_out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto expect = plain.evaluate(batch[i]);
    EXPECT_EQ(outcome_bytes(sandboxed_out[i]), outcome_bytes(expect))
        << "candidate " << i;
  }
  EXPECT_EQ(sandboxed.num_compiles(), plain.num_compiles());
  EXPECT_EQ(sandboxed.num_measurements(), plain.num_measurements());
  EXPECT_EQ(sandboxed.num_cache_hits(), plain.num_cache_hits());
  EXPECT_FALSE(sandboxed.degraded());
}

TEST(Sandbox, CompileVettingMatchesPlain) {
  sim::ProgramEvaluator plain(bench_suite::make_program("security_sha"),
                              sim::arm_a57_model());
  sim::ProgramEvaluator base(bench_suite::make_program("security_sha"),
                             sim::arm_a57_model());
  dist::PoolConfig cfg;
  cfg.fork_workers = 1;
  dist::WorkerPool sandboxed(base, cfg);
  const auto a = make_assignment(1);
  const auto co_sandbox = sandboxed.compile(a);
  const auto co_plain = plain.compile(a);
  EXPECT_EQ(co_sandbox.valid, co_plain.valid);
  EXPECT_EQ(co_sandbox.binary_hash, co_plain.binary_hash);
  EXPECT_EQ(co_sandbox.code_size, co_plain.code_size);
  EXPECT_EQ(co_sandbox.stats.counters(), co_plain.stats.counters());
}

TEST(Sandbox, ShutdownNeverWaitsOnAnotherEvaluatorsWorkers) {
  sim::ProgramEvaluator plain(bench_suite::make_program("security_sha"),
                              sim::arm_a57_model());
  sim::ProgramEvaluator base_a(bench_suite::make_program("security_sha"),
                               sim::arm_a57_model());
  sim::ProgramEvaluator base_b(bench_suite::make_program("security_sha"),
                               sim::arm_a57_model());
  dist::PoolConfig cfg;
  cfg.fork_workers = 1;
  auto first = std::make_unique<dist::WorkerPool>(base_a, cfg);
  first->evaluate(make_assignment(0));
  // The second pool's worker forks while the first one's job pipe is
  // open in this process.
  dist::WorkerPool second(base_b, cfg);
  const auto out1 = second.evaluate(make_assignment(1));
  ASSERT_EQ(first->stats().forks, 1u);
  ASSERT_EQ(second.stats().forks, 1u);

  // Shutdown closes the job pipe and reaps the worker at EOF. Had the
  // second worker inherited the write end, it would wait out the 2 s
  // grace period and then SIGKILL.
  const auto t0 = std::chrono::steady_clock::now();
  first.reset();
  const double shutdown_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  EXPECT_LT(shutdown_s, 0.5);

  const auto out2 = second.evaluate(make_assignment(2));
  EXPECT_EQ(outcome_bytes(out1),
            outcome_bytes(plain.evaluate(make_assignment(1))));
  EXPECT_EQ(outcome_bytes(out2),
            outcome_bytes(plain.evaluate(make_assignment(2))));
  EXPECT_EQ(second.stats().forks, 1u);
  EXPECT_FALSE(second.degraded());
}

// ---- build summaries -------------------------------------------------------

TEST(BuildSummary, PoolBaseRunsNoPassForWhatItsWorkersBuilt) {
  sim::ProgramEvaluator plain(bench_suite::make_program("security_sha"),
                              sim::arm_a57_model());
  sim::ProgramEvaluator base(bench_suite::make_program("security_sha"),
                             sim::arm_a57_model());
  const std::uint64_t runs_after_construction =
      base.prefix_cache_stats().passes_run;
  dist::PoolConfig cfg;
  cfg.fork_workers = 2;
  dist::WorkerPool pool(base, cfg);

  std::vector<sim::SequenceAssignment> batch;
  for (int i = 0; i < 9; ++i) batch.push_back(make_assignment(i));
  // Two tuned modules, both built.
  batch.push_back(make_assignment(4));
  batch.back()["pad"] = {"simplifycfg", "dce"};
  // Fails before any build: the first tuned module names no pass.
  batch.push_back({{"sha", {"mem2reg", "no-such-pass"}}});
  // Fails after one: sha builds, then pad names no pass.
  batch.push_back(make_assignment(5));
  batch.back()["pad"] = {"dce", "no-such-pass"};

  // Compile-only jobs first, then measured ones: both ship summaries.
  const auto compiled = pool.compile_batch(batch);
  const auto want_compiled = plain.compile_batch(batch);
  ASSERT_EQ(compiled.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    expect_same_compile(compiled[i], want_compiled[i], i);
  const auto evaluated = pool.evaluate_batch(batch);
  const auto want_evaluated = plain.evaluate_batch(batch);
  ASSERT_EQ(evaluated.size(), batch.size());
  std::size_t invalid = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(outcome_bytes(evaluated[i]), outcome_bytes(want_evaluated[i]))
        << "candidate " << i;
    invalid += evaluated[i].valid ? 0 : 1;
  }
  EXPECT_EQ(invalid, 2u);
  EXPECT_EQ(pool.num_compiles(), plain.num_compiles());
  EXPECT_EQ(pool.num_measurements(), plain.num_measurements());
  EXPECT_EQ(pool.num_cache_hits(), plain.num_cache_hits());
  EXPECT_EQ(pool.stats().jobs_ok, 2 * batch.size());
  // Every build the replay needed was resident as a worker's summary.
  EXPECT_EQ(base.prefix_cache_stats().passes_run, runs_after_construction);
  EXPECT_GT(plain.prefix_cache_stats().passes_run, runs_after_construction);
}

TEST(BuildSummary, IrIsRebuiltWhereItIsNeeded) {
  const auto program = bench_suite::make_program("security_sha");
  sim::ProgramEvaluator plain(program, sim::arm_a57_model());
  sim::ProgramEvaluator worker(program, sim::arm_a57_model());
  sim::ProgramEvaluator base(program, sim::arm_a57_model());
  const auto cache = std::make_shared<sim::PrefixCache>();
  base.set_shared_prefix_cache(cache);
  const ir::Module& sha = *program.find_module("sha");
  const std::uint64_t salt = ir::print_hash(sha);

  // Install what a worker sends for `seqs`, compile-only: summaries, no
  // runs, so nothing but a rebuild can supply the IR.
  const auto install = [&](const sim::SequenceAssignment& seqs) {
    sandbox::SandboxResult res;
    res.pure = worker.pure_evaluate(seqs, /*with_measure=*/false);
    sandbox::SandboxResult back;
    std::string err;
    ASSERT_TRUE(sandbox::decode_result(sandbox::encode_result(res), &back,
                                       &err))
        << err;
    ASSERT_EQ(back.pure.summaries.size(), 1u);
    base.install_pure_result(seqs, std::move(back.pure));
    const auto entry =
        cache->build(sha, passes::intern_sequence(seqs.at("sha")), salt);
    EXPECT_TRUE(entry->summary);
    EXPECT_TRUE(entry->module.functions.empty());
  };
  const auto expect_full_entry = [&](const sim::SequenceAssignment& seqs) {
    const auto entry =
        cache->build(sha, passes::intern_sequence(seqs.at("sha")), salt);
    EXPECT_FALSE(entry->summary);
    EXPECT_EQ(ir::print_hash(entry->module), entry->print_hash);
  };

  const auto kept = make_assignment(1);
  install(kept);
  const auto got = base.compile(kept, /*keep_program=*/true);
  const auto want = plain.compile(kept, /*keep_program=*/true);
  expect_same_compile(got, want, 1);
  ASSERT_TRUE(got.program && want.program);
  EXPECT_EQ(sim::program_hash(*got.program), sim::program_hash(*want.program));
  expect_full_entry(kept);

  const auto measured = make_assignment(2);
  install(measured);
  EXPECT_EQ(outcome_bytes(base.evaluate(measured)),
            outcome_bytes(plain.evaluate(measured)));
  expect_full_entry(measured);
}

// ---- end-to-end: containment ----------------------------------------------

namespace {

/// One sandbox stack with a single real-fault class forced on: evaluate
/// candidate 0 (which must be contained), then verify clean service on
/// candidate 1.
struct ContainmentRig {
  sim::ProgramEvaluator base{bench_suite::make_program("security_sha"),
                             sim::arm_a57_model()};
  sim::FaultInjector faulty;
  sim::FaultInjector clean{sim::FaultPlan{}};
  dist::WorkerPool sb;

  static sim::FaultPlan plan(double segv, double oom, double spin) {
    sim::FaultPlan p;
    p.seed = 5;
    p.segv_rate = segv;
    p.oom_rate = oom;
    p.spin_rate = spin;
    return p;
  }
  static dist::PoolConfig config(double wall_timeout) {
    dist::PoolConfig cfg;
    cfg.fork_workers = 1;
    cfg.breaker_threshold = 1000;
    cfg.job_wall_timeout_seconds = wall_timeout;
    return cfg;
  }

  ContainmentRig(double segv, double oom, double spin, double wall_timeout)
      : faulty(plan(segv, oom, spin)), sb(base, config(wall_timeout)) {
    sb.set_fault_injector(&faulty);
  }

  sim::EvalOutcome crash_outcome() { return sb.evaluate(make_assignment(0)); }
  bool still_serving() {
    sb.set_fault_injector(&clean);
    return sb.evaluate(make_assignment(1)).valid;
  }
};

}  // namespace

TEST(Sandbox, ContainsSegvAndNamesThePass) {
  ContainmentRig rig(1.0, 0, 0, 30.0);
  const auto out = rig.crash_outcome();
  EXPECT_FALSE(out.valid);
  EXPECT_EQ(out.failure, sim::FailureKind::WorkerCrash);
  // The crash signature carries the signal and the pass active at death.
  EXPECT_NE(out.why_invalid.find("signal"), std::string::npos)
      << out.why_invalid;
  EXPECT_NE(out.why_invalid.find("pass '"), std::string::npos)
      << out.why_invalid;
  EXPECT_TRUE(rig.still_serving());
  EXPECT_FALSE(rig.sb.degraded());
}

TEST(Sandbox, ContainsOom) {
  ContainmentRig rig(0, 1.0, 0, 30.0);
  const auto insertions = rig.base.prefix_cache_stats().insertions;
  const auto out = rig.crash_outcome();
  EXPECT_FALSE(out.valid);
#if defined(CITROEN_ASAN)
  // ASan never reaches RLIMIT_AS: the worker sets none under ASan, whose
  // allocator aborts the oversized request instead (-> WorkerCrash).
  EXPECT_EQ(out.failure, sim::FailureKind::WorkerCrash)
      << sim::failure_kind_name(out.failure);
  EXPECT_EQ(rig.sb.stats().jobs_oom, 0u);
#else
  // The address-space cap makes the hoard throw bad_alloc; the worker
  // contains it and replies Oom (-> WorkerOOM), staying up.
  EXPECT_EQ(out.failure, sim::FailureKind::WorkerOOM)
      << sim::failure_kind_name(out.failure) << ": " << out.why_invalid;
  EXPECT_EQ(rig.sb.stats().jobs_oom, 1u);
  EXPECT_EQ(rig.sb.stats().worker_crashes, 0u);
#endif
  // An Oom result carries no summaries: nothing reached the base's cache.
  EXPECT_EQ(rig.base.prefix_cache_stats().insertions, insertions);
  EXPECT_TRUE(rig.still_serving());
}

TEST(Sandbox, ContainsSpinAsTimeout) {
  ContainmentRig rig(0, 0, 1.0, 1.0);
  const auto out = rig.crash_outcome();
  EXPECT_FALSE(out.valid);
  EXPECT_EQ(out.failure, sim::FailureKind::WorkerTimeout);
  EXPECT_NE(out.why_invalid.find("deadline"), std::string::npos)
      << out.why_invalid;
  EXPECT_TRUE(rig.still_serving());
}

TEST(Sandbox, ContainsExternalSigkillMidJob) {
  sim::ProgramEvaluator base(bench_suite::make_program("security_sha"),
                             sim::arm_a57_model());
  dist::PoolConfig cfg;
  cfg.fork_workers = 1;
  cfg.kill_job_id = 0;  // murder the worker right after the first dispatch
  dist::WorkerPool sb(base, cfg);
  const auto out = sb.evaluate(make_assignment(0));
  EXPECT_FALSE(out.valid);
  EXPECT_EQ(out.failure, sim::FailureKind::WorkerCrash);
  EXPECT_TRUE(out.why_invalid.find("SIGKILL") != std::string::npos ||
              out.why_invalid.find("signal 9") != std::string::npos ||
              out.why_invalid.find("Killed") != std::string::npos)
      << out.why_invalid;
  EXPECT_GE(sb.stats().respawns, 1u);
  // Same candidate again: the fatal verdict is memoized, no new dispatch.
  const auto again = sb.evaluate(make_assignment(0));
  EXPECT_EQ(again.failure, sim::FailureKind::WorkerCrash);
  // Different candidate: back to normal service on the respawned worker.
  EXPECT_TRUE(sb.evaluate(make_assignment(1)).valid);
}

TEST(Sandbox, BreakerDegradesToInProcessWhichIsImmuneToRealFaults) {
  sim::ProgramEvaluator base(bench_suite::make_program("security_sha"),
                             sim::arm_a57_model());
  dist::PoolConfig cfg;
  cfg.fork_workers = 1;
  cfg.breaker_threshold = 2;
  cfg.backoff_seconds = 0.001;
  dist::WorkerPool sb(base, cfg);
  sim::FaultPlan plan;
  plan.seed = 6;
  plan.segv_rate = 1.0;
  const sim::FaultInjector injector(plan);
  sb.set_fault_injector(&injector);

  const auto first = sb.evaluate(make_assignment(0));
  EXPECT_EQ(first.failure, sim::FailureKind::WorkerCrash);
  const auto second = sb.evaluate(make_assignment(1));
  EXPECT_EQ(second.failure, sim::FailureKind::WorkerCrash);
  EXPECT_TRUE(sb.degraded());
  EXPECT_EQ(sb.stats().breaker_trips, 1u);
  // Post-trip: in-process evaluation never fires real-fault modes (the
  // degradation ladder's bottom rung keeps producing correct results).
  const auto third = sb.evaluate(make_assignment(2));
  EXPECT_TRUE(third.valid) << third.why_invalid;
  // But verdicts already earned stay authoritative.
  EXPECT_EQ(sb.evaluate(make_assignment(0)).failure,
            sim::FailureKind::WorkerCrash);
}

TEST(Sandbox, RobustLayerQuarantinesWorkerFailures) {
  sim::ProgramEvaluator base(bench_suite::make_program("security_sha"),
                             sim::arm_a57_model());
  dist::PoolConfig cfg;
  cfg.fork_workers = 1;
  cfg.breaker_threshold = 1000;
  dist::WorkerPool sb(base, cfg);
  sim::FaultPlan plan;
  plan.seed = 8;
  plan.segv_rate = 1.0;
  const sim::FaultInjector injector(plan);
  sim::RobustEvaluator robust(sb, sim::RobustConfig{}, &injector);

  const auto a = make_assignment(0);
  const auto out = robust.evaluate(a);
  EXPECT_FALSE(out.valid);
  EXPECT_TRUE(is_worker_failure(out.failure));
  EXPECT_TRUE(robust.is_quarantined(a));
  const auto& rs = robust.robust_stats();
  EXPECT_EQ(rs.failures.count("worker-crash"), 1u);
}
