// Tests for the citroend serving layer (src/serve/): wire codec
// round-trips and rejection of malformed frames, admission/quota
// enforcement, deficit-round-robin fairness, job resume byte-identity,
// and a live in-process daemon exercised over a real Unix socket —
// admission rejects, graceful drain with the 0/75 exit taxonomy, and
// kill/restart/re-attach recovery. The in-process server runs in a
// std::thread, so the accept/scheduler loop is part of the TSan CI job.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.hpp"
#include "obs/trace.hpp"
#include "persist/checkpoint.hpp"
#include "persist/codec.hpp"
#include "persist/run_session.hpp"
#include "serve/admission.hpp"
#include "serve/client.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

using namespace citroen;

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "citroen_serve_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

bool curves_identical(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

serve::JobSpec small_spec(const std::string& method = "random",
                          std::uint32_t budget = 10, std::uint64_t seed = 3) {
  serve::JobSpec s;
  s.program = "telecom_gsm";
  s.machine = "arm";
  s.method = method;
  s.budget = budget;
  s.seed = seed;
  return s;
}

}  // namespace

// ---- wire codec -----------------------------------------------------------

TEST(ServeWire, AllMessagesRoundTrip) {
  std::string err;

  serve::HelloMsg hello;
  hello.tenant = "tenant-a";
  serve::HelloMsg hello2;
  ASSERT_TRUE(serve::decode(serve::encode(hello), &hello2, &err)) << err;
  EXPECT_EQ(hello2.tenant, "tenant-a");
  EXPECT_EQ(hello2.version, serve::kProtocolVersion);

  serve::SubmitMsg sub;
  sub.spec = small_spec("citroen", 77, 123456789ull);
  serve::SubmitMsg sub2;
  ASSERT_TRUE(serve::decode(serve::encode(sub), &sub2, &err)) << err;
  EXPECT_EQ(sub2.spec.program, "telecom_gsm");
  EXPECT_EQ(sub2.spec.method, "citroen");
  EXPECT_EQ(sub2.spec.budget, 77u);
  EXPECT_EQ(sub2.spec.seed, 123456789ull);

  serve::RejectMsg rej;
  rej.reason = serve::RejectReason::OverTenantBudget;
  rej.message = "quota";
  rej.retry_after_seconds = 0.25;
  serve::RejectMsg rej2;
  ASSERT_TRUE(serve::decode(serve::encode(rej), &rej2, &err)) << err;
  EXPECT_EQ(rej2.reason, serve::RejectReason::OverTenantBudget);
  EXPECT_EQ(rej2.retry_after_seconds, 0.25);

  serve::ResultMsg res;
  res.job_id = 42;
  res.status = serve::ResultStatus::Ok;
  res.curve = {1.0, 0.1 + 0.2, 1.4758525773932889, -0.0};
  serve::ResultMsg res2;
  ASSERT_TRUE(serve::decode(serve::encode(res), &res2, &err)) << err;
  ASSERT_TRUE(curves_identical(res.curve, res2.curve))
      << "doubles must survive the wire bit-exactly";

  serve::StatusMsg st;
  st.job_id = 7;
  st.state = serve::JobState::Running;
  st.evals_done = 5;
  st.budget = 30;
  serve::StatusMsg st2;
  ASSERT_TRUE(serve::decode(serve::encode(st), &st2, &err)) << err;
  EXPECT_EQ(st2.state, serve::JobState::Running);
  EXPECT_EQ(st2.evals_done, 5u);
}

TEST(ServeWire, MalformedPayloadsAreRejectedNotTrusted) {
  std::string err;
  serve::HelloMsg hello;

  EXPECT_FALSE(serve::decode(std::string(), &hello, &err));
  EXPECT_FALSE(serve::decode(std::string("\xff garbage"), &hello, &err));

  // Truncations of a valid message must never decode.
  serve::SubmitMsg sub;
  sub.spec = small_spec();
  const std::string good = serve::encode(sub);
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    serve::SubmitMsg out;
    EXPECT_FALSE(serve::decode(good.substr(0, cut), &out, &err))
        << "cut at " << cut;
  }
  // Trailing bytes are a framing error, not ignorable padding.
  serve::SubmitMsg out;
  EXPECT_FALSE(serve::decode(good + "x", &out, &err));

  // A Submit payload must not decode as a Hello (tag mismatch).
  EXPECT_FALSE(serve::decode(good, &hello, &err));

  // Empty tenant and incomplete specs are rejected at decode time.
  serve::HelloMsg anon;
  anon.tenant = "";
  EXPECT_FALSE(serve::decode(serve::encode(anon), &hello, &err));
  serve::SubmitMsg noprog;
  noprog.spec = small_spec();
  noprog.spec.program = "";
  EXPECT_FALSE(serve::decode(serve::encode(noprog), &out, &err));
}

TEST(ServeWire, RejectReasonTransience) {
  using serve::RejectReason;
  EXPECT_TRUE(serve::reject_is_transient(RejectReason::OverTenantJobs));
  EXPECT_TRUE(serve::reject_is_transient(RejectReason::OverTenantBudget));
  EXPECT_TRUE(serve::reject_is_transient(RejectReason::OverCapacity));
  EXPECT_FALSE(serve::reject_is_transient(RejectReason::Draining));
  EXPECT_FALSE(serve::reject_is_transient(RejectReason::BadRequest));
  EXPECT_FALSE(serve::reject_is_transient(RejectReason::UnknownJob));
}

// ---- admission control ----------------------------------------------------

TEST(ServeAdmission, EnforcesPerTenantJobQuota) {
  serve::QuotaConfig qc;
  qc.default_quota.max_jobs = 2;
  qc.default_quota.max_evals = 1000;
  serve::AdmissionController adm(qc);

  EXPECT_FALSE(adm.try_admit("t", small_spec("random", 10)));
  EXPECT_FALSE(adm.try_admit("t", small_spec("random", 10)));
  const auto rej = adm.try_admit("t", small_spec("random", 10));
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(rej->reason, serve::RejectReason::OverTenantJobs);
  EXPECT_GT(rej->retry_after_seconds, 0.0) << "transient: carries a hint";

  // Another tenant is unaffected; release opens the slot again.
  EXPECT_FALSE(adm.try_admit("u", small_spec("random", 10)));
  adm.release("t", small_spec("random", 10));
  EXPECT_FALSE(adm.try_admit("t", small_spec("random", 10)));
  EXPECT_EQ(adm.tenant_jobs("t"), 2);
}

TEST(ServeAdmission, EnforcesEvalBudgetQuotaAndGlobalCap) {
  serve::QuotaConfig qc;
  qc.default_quota.max_jobs = 10;
  qc.default_quota.max_evals = 64;
  qc.max_jobs_total = 3;
  serve::AdmissionController adm(qc);

  EXPECT_FALSE(adm.try_admit("t", small_spec("random", 40)));
  const auto rej = adm.try_admit("t", small_spec("random", 40));
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(rej->reason, serve::RejectReason::OverTenantBudget);
  EXPECT_EQ(adm.tenant_evals("t"), 40u);

  EXPECT_FALSE(adm.try_admit("u", small_spec("random", 10)));
  EXPECT_FALSE(adm.try_admit("v", small_spec("random", 10)));
  const auto cap = adm.try_admit("w", small_spec("random", 10));
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(cap->reason, serve::RejectReason::OverCapacity);
  EXPECT_EQ(adm.total_jobs(), 3);
}

TEST(ServeAdmission, OverridesAndRecharge) {
  serve::QuotaConfig qc;
  qc.default_quota.max_jobs = 1;
  qc.overrides["vip"] = {5, 100000};
  serve::AdmissionController adm(qc);

  for (int i = 0; i < 5; ++i)
    EXPECT_FALSE(adm.try_admit("vip", small_spec("random", 10))) << i;
  EXPECT_TRUE(adm.try_admit("vip", small_spec("random", 10)));

  // recharge (resume path) bypasses the check entirely.
  serve::AdmissionController adm2(qc);
  for (int i = 0; i < 7; ++i) adm2.recharge("x", small_spec("random", 10));
  EXPECT_EQ(adm2.tenant_jobs("x"), 7);
}

// ---- DRR scheduler --------------------------------------------------------

TEST(ServeScheduler, GreedyTenantCannotStarveOthers) {
  serve::DrrScheduler sched(/*quantum=*/4);
  // Tenant "hog" has 8 jobs (ids 1..8); "meek" has one (id 100).
  for (std::uint64_t j = 1; j <= 8; ++j) sched.add("hog", j);
  sched.add("meek", 100);

  std::uint64_t hog_credits = 0, meek_credits = 0;
  for (int i = 0; i < 400; ++i) {
    const auto pick = sched.pick();
    ASSERT_TRUE(pick.has_value());
    const std::uint64_t cost = 2;  // every step costs 2 eval-credits
    if (*pick == 100)
      meek_credits += cost;
    else
      hog_credits += cost;
    sched.charge(*pick, cost);
  }
  // Long-run throughput is per-tenant, not per-job: the lone meek job
  // gets the same credit share as the hog's whole fleet.
  EXPECT_NEAR(static_cast<double>(meek_credits),
              static_cast<double>(hog_credits),
              static_cast<double>(hog_credits) * 0.1);
}

TEST(ServeScheduler, RoundRobinsWithinATenantAndAcrossTenants) {
  serve::DrrScheduler sched(/*quantum=*/1);
  sched.add("a", 1);
  sched.add("a", 2);
  sched.add("b", 3);

  std::map<std::uint64_t, int> picks;
  for (int i = 0; i < 300; ++i) {
    const auto pick = sched.pick();
    ASSERT_TRUE(pick.has_value());
    picks[*pick]++;
    sched.charge(*pick, 1);
  }
  // b's single job gets ~150; a's two jobs split ~150 between them.
  EXPECT_NEAR(picks[3], 150, 15);
  EXPECT_NEAR(picks[1], 75, 15);
  EXPECT_NEAR(picks[2], 75, 15);
}

TEST(ServeScheduler, RemoveAndEmptyBehave) {
  serve::DrrScheduler sched;
  EXPECT_FALSE(sched.pick().has_value());
  sched.add("t", 1);
  sched.add("t", 2);
  EXPECT_EQ(sched.size(), 2u);
  sched.remove(1);
  ASSERT_TRUE(sched.pick().has_value());
  EXPECT_EQ(*sched.pick(), 2u);
  sched.remove(2);
  EXPECT_TRUE(sched.empty());
  EXPECT_FALSE(sched.pick().has_value());
  EXPECT_EQ(sched.active_tenants(), 0u);
}

// ---- job stepping + resume ------------------------------------------------

TEST(ServeJob, SteppedJobMatchesSerialReplayByteForByte) {
  const std::string dir = fresh_dir("job_plain");
  const auto spec = small_spec("random", 12, 5);
  serve::JobRecord rec;
  rec.id = 1;
  rec.tenant = "t";
  rec.spec = spec;
  serve::TuningJob job(rec, dir, /*resume=*/false, nullptr);
  while (!job.terminal()) job.step();
  EXPECT_EQ(job.state(), serve::JobState::Done);
  EXPECT_EQ(job.evals_done(), 12u);
  EXPECT_TRUE(curves_identical(job.curve(), serve::serial_replay(spec)));
}

TEST(ServeJob, InterruptedJobResumesByteIdentically) {
  for (const std::string method : {"random", "citroen"}) {
    const std::string dir = fresh_dir("job_resume_" + method);
    const auto spec = small_spec(method, 14, 9);
    serve::JobRecord rec;
    rec.id = 2;
    rec.tenant = "t";
    rec.spec = spec;
    {
      serve::TuningJob job(rec, dir, /*resume=*/false, nullptr,
                           /*fsync_every=*/4, /*checkpoint_every=*/3);
      for (int i = 0; i < 3 && !job.terminal(); ++i) job.step();
      job.checkpoint_for_drain();
      // Job object destroyed mid-run: simulates the daemon dying.
    }
    serve::TuningJob job(rec, dir, /*resume=*/true, nullptr);
    while (!job.terminal()) job.step();
    EXPECT_TRUE(curves_identical(job.curve(), serve::serial_replay(spec)))
        << method << " resume diverged from serial replay";
  }
}

TEST(ServeJob, RecordRoundTripsAndCancelPersists) {
  const std::string dir = fresh_dir("job_record");
  serve::JobRecord rec;
  rec.id = 0xdeadbeefull;
  rec.tenant = "acme";
  rec.spec = small_spec("ga", 25, 7);
  serve::save_job_record(dir, rec);

  serve::JobRecord got;
  std::string note;
  ASSERT_TRUE(serve::load_job_record(serve::job_meta_path(dir, rec.id), &got,
                                     &note))
      << note;
  EXPECT_EQ(got.id, rec.id);
  EXPECT_EQ(got.tenant, "acme");
  EXPECT_EQ(got.spec.method, "ga");
  EXPECT_FALSE(got.cancelled);

  // Cancel persists: a fresh (resume) construction sees the flag and
  // refuses to run.
  serve::TuningJob job(got, dir, /*resume=*/false, nullptr);
  job.step();
  job.cancel(dir);
  EXPECT_EQ(job.state(), serve::JobState::Cancelled);
  serve::JobRecord after;
  ASSERT_TRUE(serve::load_job_record(serve::job_meta_path(dir, rec.id), &after,
                                     &note));
  EXPECT_TRUE(after.cancelled);
  serve::TuningJob revived(after, dir, /*resume=*/true, nullptr);
  EXPECT_EQ(revived.state(), serve::JobState::Cancelled);
  EXPECT_EQ(revived.step(), 0u);
}

TEST(ServeJob, InvalidSpecThrows) {
  const std::string dir = fresh_dir("job_bad");
  serve::JobRecord rec;
  rec.id = 3;
  rec.tenant = "t";
  rec.spec = small_spec();
  rec.spec.program = "no_such_program";
  EXPECT_THROW(serve::TuningJob(rec, dir, false, nullptr), std::exception);
  rec.spec = small_spec();
  rec.spec.method = "no_such_method";
  EXPECT_THROW(serve::TuningJob(rec, dir, false, nullptr), std::exception);
}

TEST(ServeJob, CorpusLearnsOnDoneAndAdvisesTheNextJob) {
  const std::string cdir = fresh_dir("job_corpus_store");
  auto corp =
      std::make_shared<corpus::TransferCorpus>(cdir, corpus::CorpusConfig{});
  ASSERT_TRUE(corp->writable());

  // Job 1 starts against an empty corpus: no advice (cold path), and its
  // winner lands in the corpus when it finishes.
  serve::JobRecord rec1;
  rec1.id = 10;
  rec1.tenant = "t";
  rec1.spec = small_spec("citroen", 18, 9);
  {
    serve::TuningJob job(rec1, fresh_dir("job_corpus_1"), /*resume=*/false,
                         nullptr, 64, 10, {}, corp);
    EXPECT_TRUE(job.record().advice.empty());
    while (!job.terminal()) job.step();
    EXPECT_EQ(job.state(), serve::JobState::Done);
  }
  ASSERT_GT(corp->num_entries(), 0u) << "finished job must append its winner";

  // Job 2 on the same program resolves advice ONCE at admission: the
  // probe signatures are identical, so the corpus must match.
  serve::JobRecord rec2;
  rec2.id = 11;
  rec2.tenant = "t";
  rec2.spec = small_spec("citroen", 18, 10);
  const std::string dir2 = fresh_dir("job_corpus_2");
  serve::TuningJob job2(rec2, dir2, /*resume=*/false, nullptr, 64, 10, {},
                        corp);
  EXPECT_FALSE(job2.record().advice.empty());
  EXPECT_GT(job2.record().advice.modules_matched, 0u);

  // The frozen advice round-trips through the v2 meta record, so a
  // daemon restart resumes with the advice the job started under.
  serve::save_job_record(dir2, job2.record());
  serve::JobRecord loaded;
  std::string note;
  ASSERT_TRUE(serve::load_job_record(serve::job_meta_path(dir2, rec2.id),
                                     &loaded, &note))
      << note;
  EXPECT_EQ(loaded.advice.seed_sequences,
            job2.record().advice.seed_sequences);
  EXPECT_EQ(loaded.advice.modules_matched,
            job2.record().advice.modules_matched);

  while (!job2.terminal()) job2.step();
  EXPECT_EQ(job2.state(), serve::JobState::Done);
  EXPECT_FALSE(job2.curve().empty());
}

TEST(ServeJob, AdvisedJobResumesByteIdentically) {
  // The warm path's resume contract: a job that took corpus advice and
  // was interrupted mid-run finishes byte-identically to the same job
  // run without interruption, because the advice is frozen in its meta
  // record at admission. A read-only corpus handle keeps the corpus
  // contents fixed across both constructions.
  const std::string cdir = fresh_dir("job_adv_resume_store");
  {
    auto writer = std::make_shared<corpus::TransferCorpus>(
        cdir, corpus::CorpusConfig{});
    serve::JobRecord seed_rec;
    seed_rec.id = 20;
    seed_rec.tenant = "t";
    seed_rec.spec = small_spec("citroen", 18, 9);
    serve::TuningJob seeder(seed_rec, fresh_dir("job_adv_resume_seed"),
                            /*resume=*/false, nullptr, 64, 10, {}, writer);
    while (!seeder.terminal()) seeder.step();
  }
  corpus::CorpusConfig ro;
  ro.mode = corpus::OpenMode::ReadOnly;
  auto corp = std::make_shared<corpus::TransferCorpus>(cdir, ro);
  ASSERT_GT(corp->num_entries(), 0u);

  serve::JobRecord rec;
  rec.id = 21;
  rec.tenant = "t";
  rec.spec = small_spec("citroen", 18, 10);

  serve::TuningJob straight(rec, fresh_dir("job_adv_resume_a"),
                            /*resume=*/false, nullptr, 64, 10, {}, corp);
  ASSERT_FALSE(straight.record().advice.empty()) << "lookup must hit";
  while (!straight.terminal()) straight.step();

  const std::string dir_b = fresh_dir("job_adv_resume_b");
  {
    serve::TuningJob first(rec, dir_b, /*resume=*/false, nullptr,
                           /*fsync_every=*/4, /*checkpoint_every=*/3, {},
                           corp);
    serve::save_job_record(dir_b, first.record());  // daemon admission
    for (int i = 0; i < 3 && !first.terminal(); ++i) first.step();
    first.checkpoint_for_drain();
    // Destroyed mid-run: the daemon died.
  }
  serve::JobRecord revived;
  std::string note;
  ASSERT_TRUE(serve::load_job_record(serve::job_meta_path(dir_b, rec.id),
                                     &revived, &note))
      << note;
  EXPECT_EQ(revived.advice.seed_sequences,
            straight.record().advice.seed_sequences);
  serve::TuningJob resumed(revived, dir_b, /*resume=*/true, nullptr, 64, 10,
                           {}, corp);
  while (!resumed.terminal()) resumed.step();
  EXPECT_TRUE(curves_identical(resumed.curve(), straight.curve()))
      << "advised resume diverged from the uninterrupted advised run";
}

TEST(ServeJob, V1MetaRecordsStillLoadWithEmptyAdvice) {
  // A pre-corpus meta (format v1) must keep loading after the upgrade —
  // hand-craft one through the same checkpoint container the v1 writer
  // used.
  const std::string dir = fresh_dir("job_meta_v1");
  persist::Writer w;
  w.u32(1);  // version 1: no advice field
  w.u64(42);
  w.str("acme");
  w.str("telecom_gsm");
  w.str("arm");
  w.str("random");
  w.u32(10);
  w.u64(3);
  w.b(false);
  persist::write_checkpoint(serve::job_meta_path(dir, 42), w.data());

  serve::JobRecord rec;
  std::string note;
  ASSERT_TRUE(
      serve::load_job_record(serve::job_meta_path(dir, 42), &rec, &note))
      << note;
  EXPECT_EQ(rec.id, 42u);
  EXPECT_EQ(rec.tenant, "acme");
  EXPECT_TRUE(rec.advice.empty());
}

// ---- live daemon over a real socket --------------------------------------

namespace {

struct LiveServer {
  explicit LiveServer(const serve::ServerConfig& cfg)
      : socket_path(cfg.socket_path), server(cfg) {
    thread = std::thread([this] { exit_code = server.run(); });
    // The listener binds before the loop; give it a moment.
    for (int i = 0; i < 200; ++i) {
      if (std::filesystem::exists(socket_path)) break;
      ::usleep(10 * 1000);
    }
  }
  int stop_and_join() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
    return exit_code;
  }
  ~LiveServer() { stop_and_join(); }

  std::string socket_path;
  serve::Server server;
  std::thread thread;
  int exit_code = -1;
};

serve::ServerConfig live_config(const std::string& dir) {
  serve::ServerConfig cfg;
  cfg.socket_path = dir + "/d.sock";
  cfg.state_dir = dir + "/state";
  cfg.install_signal_handlers = false;  // tests drive request_stop()
  cfg.idle_poll_ms = 5;
  cfg.drain_deadline_seconds = 5.0;
  return cfg;
}

std::unique_ptr<LiveServer> start_server(serve::ServerConfig cfg) {
  auto ls = std::make_unique<LiveServer>(cfg);
  ls->socket_path = cfg.socket_path;
  return ls;
}

serve::ClientConfig client_config(const std::string& socket,
                                  const std::string& tenant) {
  serve::ClientConfig cc;
  cc.socket_path = socket;
  cc.tenant = tenant;
  cc.jitter_seed = 4242;
  return cc;
}

}  // namespace

TEST(ServeDaemon, SubmitRunsToByteIdenticalResult) {
  const std::string dir = fresh_dir("daemon_basic");
  auto cfg = live_config(dir);
  auto ls = start_server(cfg);

  serve::Client client(client_config(cfg.socket_path, "tenant1"));
  const auto spec = small_spec("random", 10, 21);
  const auto id = client.submit(spec, 20.0);
  ASSERT_TRUE(id.has_value()) << client.error();
  const auto out = client.wait_result(*id, 60.0);
  EXPECT_EQ(out.status, serve::ResultStatus::Ok) << out.error;
  EXPECT_TRUE(curves_identical(out.curve, serve::serial_replay(spec)));

  // Re-attach after completion still serves the terminal result.
  const auto again = client.wait_result(*id, 20.0);
  EXPECT_EQ(again.status, serve::ResultStatus::Ok);
  EXPECT_TRUE(curves_identical(again.curve, out.curve));

  EXPECT_EQ(ls->stop_and_join(), 0) << "drained empty -> exit 0";
}

TEST(ServeDaemon, OverQuotaSubmissionGetsTypedTransientReject) {
  const std::string dir = fresh_dir("daemon_quota");
  auto cfg = live_config(dir);
  cfg.quotas.default_quota.max_jobs = 1;
  cfg.quotas.default_quota.max_evals = 1000;
  auto ls = start_server(cfg);

  serve::Client client(client_config(cfg.socket_path, "busy"));
  const auto first = client.submit(small_spec("random", 60, 1), 20.0);
  ASSERT_TRUE(first.has_value()) << client.error();
  // Zero retry budget: the transient reject surfaces as failure, with
  // the daemon's reason in error().
  const auto second = client.submit(small_spec("random", 10, 2), 0.0);
  EXPECT_FALSE(second.has_value());
  EXPECT_NE(client.error().find("job"), std::string::npos) << client.error();

  // An unknown job id draws the permanent UnknownJob reject.
  const auto ghost = client.wait_result(999999, 10.0);
  EXPECT_EQ(ghost.status, serve::ResultStatus::Failed);
  EXPECT_NE(ghost.error.find("unknown-job"), std::string::npos) << ghost.error;
}

TEST(ServeDaemon, CancelStopsAJobAndPersists) {
  const std::string dir = fresh_dir("daemon_cancel");
  auto cfg = live_config(dir);
  auto ls = start_server(cfg);

  serve::Client client(client_config(cfg.socket_path, "t"));
  // Big budget: the cancel lands while the job is still running.
  const auto id = client.submit(small_spec("ga", 600, 5), 20.0);
  ASSERT_TRUE(id.has_value()) << client.error();
  ASSERT_TRUE(client.cancel(*id));
  const auto out = client.wait_result(*id, 60.0);
  EXPECT_EQ(out.status, serve::ResultStatus::Cancelled);
  EXPECT_EQ(ls->stop_and_join(), 0)
      << "cancelled job is terminal: drain has nothing to checkpoint";
}

TEST(ServeDaemon, DrainCheckpointsInFlightJobsAndExits75) {
  const std::string dir = fresh_dir("daemon_drain");
  auto cfg = live_config(dir);
  cfg.drain_deadline_seconds = 0.2;  // force the checkpoint path
  auto ls = start_server(cfg);

  serve::Client client(client_config(cfg.socket_path, "t"));
  const auto spec = small_spec("ga", 400, 8);
  const auto id = client.submit(spec, 20.0);
  ASSERT_TRUE(id.has_value()) << client.error();

  // Pump until the first progress frame, then stop immediately: the job
  // is provably mid-run (a few evals out of 400) and cannot finish
  // inside the 0.2 s drain deadline. Pumping in short slices instead of
  // one fixed window keeps this true under sanitizer slowdowns too. Each
  // slice runs to its end even after a frame arrives, so it must stay
  // short next to the job: the whole job takes well under a second.
  std::atomic<bool> progressed{false};
  const double pump_deadline = sandbox::monotonic_seconds() + 60.0;
  while (!progressed.load() && sandbox::monotonic_seconds() < pump_deadline) {
    client.wait_result(*id, 0.02, [&](std::uint64_t done, std::uint64_t) {
      if (done > 0) progressed = true;
    });
  }
  EXPECT_TRUE(progressed.load());
  EXPECT_EQ(ls->stop_and_join(), persist::kExitInterrupted)
      << "in-flight work checkpointed -> exit 75";

  // A restarted daemon resumes the journal and finishes byte-identically;
  // the client re-attaches by job id.
  auto cfg2 = live_config(dir);
  cfg2.resume = true;
  auto ls2 = start_server(cfg2);
  serve::Client client2(client_config(cfg2.socket_path, "t"));
  const auto out = client2.wait_result(*id, 240.0);
  EXPECT_EQ(out.status, serve::ResultStatus::Ok) << out.error;
  EXPECT_TRUE(curves_identical(out.curve, serve::serial_replay(spec)))
      << "drain/resume must not change the result";
  EXPECT_EQ(ls2->stop_and_join(), 0);
}

TEST(ServeDaemon, DrainingDaemonRejectsNewSubmissions) {
  const std::string dir = fresh_dir("daemon_draining");
  auto cfg = live_config(dir);
  cfg.drain_deadline_seconds = 0.5;
  auto ls = start_server(cfg);

  serve::Client client(client_config(cfg.socket_path, "t"));
  const auto id = client.submit(small_spec("ga", 600, 4), 20.0);
  ASSERT_TRUE(id.has_value()) << client.error();

  ls->server.request_stop();
  ::usleep(100 * 1000);  // let the loop notice and flip to draining

  serve::Client late(client_config(cfg.socket_path, "late"));
  const auto refused = late.submit(small_spec("random", 5, 1), 0.0);
  EXPECT_FALSE(refused.has_value());
  EXPECT_NE(late.error().find("drain"), std::string::npos) << late.error();
}

TEST(ServeDaemon, SharedPrefixCacheAcrossTenantsPreservesResults) {
  const std::string dir = fresh_dir("daemon_shared");
  auto cfg = live_config(dir);
  auto ls = start_server(cfg);

  // Two tenants tune the SAME spec concurrently: the daemon-wide prefix
  // cache is shared between their evaluator stacks, and both must still
  // byte-match the serial replay.
  const auto spec = small_spec("ga", 12, 13);
  std::vector<serve::JobOutcome> outs(2);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      serve::Client c(
          client_config(cfg.socket_path, i == 0 ? "alpha" : "beta"));
      const auto id = c.submit(spec, 20.0);
      if (id) outs[i] = c.wait_result(*id, 60.0);
    });
  }
  for (auto& t : threads) t.join();
  const Vec replay = serve::serial_replay(spec);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(outs[i].status, serve::ResultStatus::Ok) << outs[i].error;
    EXPECT_TRUE(curves_identical(outs[i].curve, replay)) << "tenant " << i;
  }
  EXPECT_EQ(ls->stop_and_join(), 0);
}

// ---- live introspection ----------------------------------------------------

namespace {

serve::InspectOkMsg sample_inspect() {
  serve::InspectOkMsg m;
  m.epoch = 3;
  m.draining = true;
  m.clients = 2;
  serve::TenantSnap t;
  t.tenant = "acme";
  t.jobs_in_flight = 1;
  t.evals_in_flight = 30;
  t.max_jobs = 2;
  t.max_evals = 4096;
  t.drr_deficit = -7;
  t.queued_jobs = 1;
  t.evals_total = 123;
  m.tenants.push_back(t);
  serve::JobSnap j;
  j.id = 42;
  j.tenant = "acme";
  j.state = serve::JobState::Running;
  j.evals_done = 5;
  j.budget = 30;
  m.jobs.push_back(j);
  m.cache_builds = 10;
  m.cache_full_hits = 4;
  m.cache_prefix_hits = 3;
  m.cache_disk_hits = 1;
  m.corpus_entries = 9;
  m.corpus_lookups = 6;
  m.corpus_hits = 2;
  m.corpus_writable = true;
  serve::PeerSnap p;
  p.endpoint = "unix:/tmp/p0.sock";
  p.connected = true;
  p.banned = false;
  p.consecutive_failures = 0;
  p.clock_offset_ns = -12345;
  m.peers.push_back(p);
  serve::FlightSnap f;
  f.seq = 1;
  f.ts_ns = 999;
  f.kind = "job_accept";
  f.a = 42;
  f.b = 30;
  f.detail = "acme";
  m.flight.push_back(f);
  m.counters.emplace_back("citroend_evals_total", 5);
  m.counters.emplace_back("citroend_tenant_evals_total{tenant=\"acme\"}", 5);
  return m;
}

int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

TEST(ServeWire, InspectMessagesRoundTrip) {
  std::string err;
  serve::InspectMsg q;
  q.include_flight = false;
  serve::InspectMsg q2;
  ASSERT_TRUE(serve::decode(serve::encode(q), &q2, &err)) << err;
  EXPECT_FALSE(q2.include_flight);

  const serve::InspectOkMsg m = sample_inspect();
  serve::InspectOkMsg m2;
  ASSERT_TRUE(serve::decode(serve::encode(m), &m2, &err)) << err;
  EXPECT_EQ(m2.epoch, 3u);
  EXPECT_TRUE(m2.draining);
  EXPECT_EQ(m2.clients, 2u);
  ASSERT_EQ(m2.tenants.size(), 1u);
  EXPECT_EQ(m2.tenants[0].tenant, "acme");
  EXPECT_EQ(m2.tenants[0].drr_deficit, -7);
  EXPECT_EQ(m2.tenants[0].evals_total, 123u);
  ASSERT_EQ(m2.jobs.size(), 1u);
  EXPECT_EQ(m2.jobs[0].state, serve::JobState::Running);
  EXPECT_EQ(m2.cache_disk_hits, 1u);
  EXPECT_EQ(m2.corpus_hits, 2u);
  EXPECT_TRUE(m2.corpus_writable);
  ASSERT_EQ(m2.peers.size(), 1u);
  EXPECT_EQ(m2.peers[0].clock_offset_ns, -12345);
  ASSERT_EQ(m2.flight.size(), 1u);
  EXPECT_EQ(m2.flight[0].kind, "job_accept");
  ASSERT_EQ(m2.counters.size(), 2u);
  EXPECT_EQ(m2.counters[1].first,
            "citroend_tenant_evals_total{tenant=\"acme\"}");

  // Truncations never decode.
  const std::string good = serve::encode(m);
  for (std::size_t cut = 0; cut < good.size(); cut += 7) {
    serve::InspectOkMsg out;
    EXPECT_FALSE(serve::decode(good.substr(0, cut), &out, &err))
        << "cut at " << cut;
  }
}

TEST(ServeWire, StatusRenderersCoverTheSnapshot) {
  const serve::InspectOkMsg m = sample_inspect();
  const std::string json = serve::status_json(m);
  std::string err;
  EXPECT_TRUE(obs::json_well_formed(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"running\""), std::string::npos);
  EXPECT_NE(json.find("\"clock_offset_ns\":-12345"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"job_accept\""), std::string::npos);
  EXPECT_NE(
      json.find("\"citroend_tenant_evals_total{tenant=\\\"acme\\\"}\":5"),
      std::string::npos)
      << json;

  const std::string text = serve::status_text(m);
  EXPECT_NE(text.find("epoch 3"), std::string::npos);
  EXPECT_NE(text.find("DRAINING"), std::string::npos);
  EXPECT_NE(text.find("acme"), std::string::npos);
  EXPECT_NE(text.find("unix:/tmp/p0.sock"), std::string::npos);
}

TEST(ServeDaemon, VersionMismatchDrawsTypedReject) {
  const std::string dir = fresh_dir("daemon_version");
  auto cfg = live_config(dir);
  auto ls = start_server(cfg);

  const int fd = raw_connect(cfg.socket_path);
  ASSERT_GE(fd, 0);
  serve::HelloMsg hello;
  hello.tenant = "skewed";
  hello.version = serve::kProtocolVersion + 7;
  ASSERT_EQ(sandbox::write_frame(fd, serve::encode(hello)),
            sandbox::IoStatus::Ok);
  sandbox::FrameReader reader(fd);
  std::string payload;
  ASSERT_EQ(reader.read(&payload, 10.0), sandbox::IoStatus::Ok);
  serve::RejectMsg rej;
  std::string err;
  ASSERT_TRUE(serve::decode(payload, &rej, &err)) << err;
  EXPECT_EQ(rej.reason, serve::RejectReason::BadRequest);
  EXPECT_NE(rej.message.find("protocol version mismatch"), std::string::npos)
      << rej.message;
  EXPECT_NE(rej.message.find("daemon v"), std::string::npos) << rej.message;
  ::close(fd);
}

TEST(ServeDaemon, InspectReportsTenantsJobsAndFlight) {
  const std::string dir = fresh_dir("daemon_inspect");
  auto cfg = live_config(dir);
  auto ls = start_server(cfg);

  serve::Client client(client_config(cfg.socket_path, "ten-i"));
  const auto id = client.submit(small_spec("random", 10, 21), 20.0);
  ASSERT_TRUE(id.has_value()) << client.error();
  const auto out = client.wait_result(*id, 60.0);
  ASSERT_EQ(out.status, serve::ResultStatus::Ok) << out.error;

  const auto snap = client.inspect();
  ASSERT_TRUE(snap.has_value()) << client.error();
  EXPECT_EQ(snap->epoch, client.epoch());
  EXPECT_FALSE(snap->draining);
  EXPECT_GE(snap->clients, 1u);

  bool tenant_found = false;
  for (const auto& t : snap->tenants) {
    if (t.tenant != "ten-i") continue;
    tenant_found = true;
    // budget evals plus the baseline measurement the session runs first.
    EXPECT_GE(t.evals_total, 10u);
    EXPECT_LE(t.evals_total, 11u);
    EXPECT_EQ(t.jobs_in_flight, 0u) << "job finished: charge released";
    EXPECT_GT(t.max_jobs, 0u);
  }
  EXPECT_TRUE(tenant_found);

  bool job_found = false;
  for (const auto& j : snap->jobs) {
    if (j.id != *id) continue;
    job_found = true;
    EXPECT_EQ(j.tenant, "ten-i");
    EXPECT_EQ(j.state, serve::JobState::Done);
    EXPECT_GE(j.evals_done, 10u);
    EXPECT_EQ(j.budget, 10u);
  }
  EXPECT_TRUE(job_found);

  // The always-on flight recorder saw the accept and the completion.
  bool accept_seen = false, done_seen = false;
  for (const auto& f : snap->flight) {
    if (f.a != *id) continue;
    if (f.kind == "job_accept") accept_seen = true;
    if (f.kind == "job_done") done_seen = true;
  }
  EXPECT_TRUE(accept_seen);
  EXPECT_TRUE(done_seen);

  // Counter values come from one registry snapshot, which always carries
  // the trace-drop counter.
  bool drops_found = false;
  for (const auto& [name, v] : snap->counters)
    if (name == "citroen_trace_dropped_total") drops_found = true;
  EXPECT_TRUE(drops_found);

  // The renderers accept a real snapshot.
  std::string err;
  EXPECT_TRUE(obs::json_well_formed(serve::status_json(*snap), &err)) << err;
  EXPECT_FALSE(serve::status_text(*snap).empty());
}

TEST(ServeDaemon, HttpGetOnWireSocketServesPrometheus) {
  const std::string dir = fresh_dir("daemon_http");
  auto cfg = live_config(dir);
  auto ls = start_server(cfg);

  const int fd = raw_connect(cfg.socket_path);
  ASSERT_GE(fd, 0);
  const char req[] = "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, req, sizeof(req) - 1),
            static_cast<ssize_t>(sizeof(req) - 1));
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos)
      << resp.substr(0, 200);
  EXPECT_NE(resp.find("text/plain"), std::string::npos);
  EXPECT_NE(resp.find("citroen_trace_dropped_total"), std::string::npos)
      << "every scrape surfaces trace drops";
}

TEST(ServeClient, HandshakeRejectSurfacesDaemonMessage) {
  // A daemon that rejects the handshake (the version-skew path) must
  // surface its message through error() — what `citroen-cli status`
  // prints before exiting non-zero.
  const std::string dir = fresh_dir("client_reject");
  const std::string path = dir + "/fake.sock";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  // Serve EVERY connection: the client retries within its connect window,
  // and an unanswered retry would overwrite the reject with a timeout.
  std::atomic<bool> stop{false};
  std::thread fake([listen_fd, &stop] {
    for (;;) {
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn < 0) return;
      if (stop.load()) {
        ::close(conn);
        return;
      }
      sandbox::FrameReader reader(conn);
      std::string payload;
      reader.read(&payload, 5.0);
      serve::RejectMsg rej;
      rej.reason = serve::RejectReason::BadRequest;
      rej.message = "protocol version mismatch: client v2, daemon v99";
      sandbox::write_frame(conn, serve::encode(rej));
      ::close(conn);
    }
  });

  serve::ClientConfig cc = client_config(path, "t");
  cc.connect_timeout_seconds = 0.05;  // every attempt draws the reject
  cc.frame_timeout_seconds = 5.0;
  serve::Client client(cc);
  const auto snap = client.inspect();
  EXPECT_FALSE(snap.has_value());
  EXPECT_NE(client.error().find("protocol version mismatch"),
            std::string::npos)
      << client.error();

  stop.store(true);
  const int wake = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ::connect(wake, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ::close(wake);
  fake.join();
  ::close(listen_fd);
}
