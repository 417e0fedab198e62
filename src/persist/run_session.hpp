#pragma once
// One crash-safe tuning run = one RunSession: a write-ahead journal of
// evaluation records plus an atomically-replaced checkpoint of the full
// tuner state.
//
// Resume protocol (the byte-identical guarantee):
//   1. The checkpoint holds all order-sensitive state as of journal
//      record K (tuner, RNG streams, evaluator caches, quarantine sets).
//   2. Journal records K..N (the tail written after the last checkpoint)
//      are replayed by *re-executing* the tuner from the checkpointed
//      state. Each re-executed evaluation is byte-verified against the
//      corresponding journal record; because every piece of
//      order-sensitive state was restored, re-execution reproduces the
//      original records exactly. Serving recorded outcomes without
//      re-execution would desynchronise the fault injector's attempt
//      counters and the identical-binary cache, so it is never done.
//   3. Past record N the run switches to append mode and continues.
//
// A divergence during replay (recomputed record != journal record) means
// the environment changed between processes (different binary, edited
// files). It is reported on stderr, the stale tail is truncated, and the
// recomputed result wins — the run continues correct-but-rebased rather
// than aborting.
//
// The kill switch (`kill_run`/`kill_at`) is test-only: the process calls
// _Exit(kExitKilled) immediately after the matching record is made
// durable, leaving the checkpoint intentionally stale (exercising tail
// replay) and any concurrently-written journals torn (exercising
// recovery truncation).

#include <cstdint>
#include <memory>
#include <string>

#include "persist/journal.hpp"

namespace citroen::persist {

/// Documented process exit statuses for persistence-enabled runs.
inline constexpr int kExitComplete = 0;     ///< run finished normally
inline constexpr int kExitInterrupted = 75; ///< graceful stop, resumable
inline constexpr int kExitKilled = 99;      ///< test kill-switch fired

struct SessionConfig {
  std::string dir;           ///< session directory (journals + checkpoints)
  bool resume = false;       ///< keep existing state instead of starting over
  int fsync_every = 256;      ///< journal fsync cadence (records)
  int checkpoint_every = 25; ///< checkpoint cadence (journal records)
  std::string kill_run;      ///< test kill-switch: run name it applies to
  std::int64_t kill_at = -1; ///< ...record index to _Exit(99) after
};

/// Journal + checkpoint pair for one named run inside a session
/// directory. Not thread-safe; each run is driven by one thread.
class RunSession {
 public:
  /// Opens (resume) or resets (fresh) the run's files. The directory is
  /// created if needed. Recovery of a corrupt journal or checkpoint is
  /// silent-but-logged, never fatal.
  RunSession(const SessionConfig& config, const std::string& run_name);
  ~RunSession();

  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;

  const std::string& run_name() const { return run_name_; }

  // ---- resume state -------------------------------------------------------
  /// True when a previous process checkpointed this run as finished; its
  /// final state blob is `state()` and nothing needs re-running.
  bool complete() const { return complete_; }
  bool has_state() const { return has_state_; }
  const std::string& state() const { return state_; }
  /// K: number of journal records already folded into `state()`.
  std::uint64_t state_records() const { return state_records_; }

  /// Recovered journal records (the replay source).
  std::uint64_t num_records() const { return records_.size(); }
  const std::string& record(std::uint64_t i) const { return records_[i]; }

  // ---- write path ---------------------------------------------------------
  /// Verify-or-append one record at the cursor. While the cursor is
  /// inside the recovered journal the payload is byte-compared against
  /// the stored record (divergence: warn, truncate, keep `payload`);
  /// past the end it is appended and fsync'd on the configured cadence.
  void push(const std::string& payload);

  /// Cursor: records processed (verified + appended) this process,
  /// counted from 0 at the start of the run.
  std::uint64_t next_index() const { return next_index_; }

  /// Force the journal to disk (graceful-shutdown path).
  void flush();

  // ---- checkpointing ------------------------------------------------------
  /// True when `checkpoint_every` records have passed since the last
  /// checkpoint (resume or saved) — callers checkpoint at the next step
  /// boundary.
  bool checkpoint_due() const;
  /// Atomically write [complete][next_index][state_blob]; flushes the
  /// journal first so the checkpoint never gets ahead of it.
  void save_checkpoint(const std::string& state_blob, bool complete);

  /// Recovery/checkpoint log lines (empty when nothing noteworthy).
  const std::string& recovery_note() const { return recovery_note_; }
  const std::string& checkpoint_note() const { return checkpoint_note_; }

 private:
  void open_writer_at(std::uint64_t record_index);
  std::uint64_t record_offset(std::uint64_t record_index) const;

  SessionConfig config_;
  std::string run_name_;
  std::string journal_path_;
  std::string checkpoint_path_;

  std::vector<std::string> records_;
  std::uint64_t recovered_valid_bytes_ = 0;
  std::string recovery_note_;
  std::string checkpoint_note_;

  bool complete_ = false;
  bool has_state_ = false;
  std::string state_;
  std::uint64_t state_records_ = 0;

  std::uint64_t next_index_ = 0;
  std::uint64_t last_checkpoint_records_ = 0;
  bool diverged_ = false;
  std::unique_ptr<JournalWriter> writer_;
};

}  // namespace citroen::persist
