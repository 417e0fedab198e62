#pragma once
// Transfer-corpus hooks for the bench runners (CITROEN_CORPUS): a frozen
// read-only snapshot feeds lookups, and appends are opt-in behind
// CITROEN_CORPUS_APPEND so the default bench runs stay side-effect-free.
//
// Determinism contract (ext_determinism runs with CITROEN_CORPUS set):
//   - The snapshot is loaded ONCE per process, read-only, before any run
//     consults it — concurrent appends by other processes never shift
//     this process's lookups mid-run.
//   - With persistence (--journal) the resolved advice is frozen in
//     `<dir>/<run>.advice` next to the run's journal, so a resumed run
//     replays the advice it started with even if $CITROEN_CORPUS changed.
//   - An unset/empty/corrupt corpus yields empty advice, which leaves
//     the tuner config untouched — byte-identical to the cold path.

#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "citroen/tuner.hpp"
#include "corpus/corpus.hpp"
#include "persist/checkpoint.hpp"
#include "persist/run_session.hpp"
#include "sim/evaluator.hpp"
#include "support/env.hpp"

namespace citroen::bench {

/// The process-wide read-only snapshot of $CITROEN_CORPUS. Null when the
/// variable is unset or the corpus cannot be opened.
inline const std::shared_ptr<corpus::TransferCorpus>& corpus_snapshot() {
  static const std::shared_ptr<corpus::TransferCorpus> snap = [] {
    std::shared_ptr<corpus::TransferCorpus> c;
    const char* dir = std::getenv("CITROEN_CORPUS");
    if (dir != nullptr && *dir != '\0') {
      try {
        corpus::CorpusConfig cfg;
        cfg.mode = corpus::OpenMode::ReadOnly;
        c = std::make_shared<corpus::TransferCorpus>(dir, cfg);
      } catch (const std::exception&) {
        c.reset();  // unreadable corpus degrades to cold start
      }
    }
    return c;
  }();
  return snap;
}

/// Resolve (and with `session` freeze) the corpus advice for one citroen
/// run. `cfg` supplies the hot-module selection knobs; `run_name` keys
/// the frozen advice file inside session->dir (resume reads it back
/// verbatim instead of re-probing a possibly-grown corpus).
inline corpus::TunerAdvice corpus_advice_for_run(
    sim::Evaluator& base, const std::string& machine,
    const core::CitroenConfig& cfg, const persist::SessionConfig* session,
    const std::string& run_name) {
  const std::string advice_path =
      session != nullptr && !run_name.empty()
          ? session->dir + "/" + run_name + ".advice"
          : std::string();
  corpus::TunerAdvice advice;
  if (!advice_path.empty()) {
    if (const auto payload = persist::read_checkpoint(advice_path, nullptr)) {
      try {
        persist::Reader r(*payload);
        corpus::get(r, advice);
        return advice;
      } catch (const std::exception&) {
        advice = corpus::TunerAdvice{};  // corrupt advice file: recompute
      }
    }
  }
  const auto& snap = corpus_snapshot();
  if (snap && snap->num_entries() > 0) {
    advice = corpus::advise_for_modules(
        *snap, base, machine,
        core::select_hot_modules(base, cfg.hot_threshold,
                                 cfg.max_hot_modules));
  }
  if (!advice_path.empty()) {
    persist::Writer w;
    corpus::put(w, advice);
    persist::write_checkpoint(advice_path, w.data());
  }
  return advice;
}

/// Append a finished citroen run's winners to $CITROEN_CORPUS. Opt-in
/// via CITROEN_CORPUS_APPEND=1 (bench runs are often massively parallel
/// sweeps; the daemon, not the bench fleet, is the default writer).
/// Returns entries appended; failures degrade silently to 0.
inline int corpus_append_result(sim::Evaluator& base,
                                const std::string& program,
                                const std::string& machine, int budget,
                                const core::TuneResult& result,
                                const std::vector<std::string>& modules) {
  if (!support::env_flag("CITROEN_CORPUS_APPEND")) return 0;
  const char* dir = std::getenv("CITROEN_CORPUS");
  if (dir == nullptr || *dir == '\0') return 0;
  try {
    corpus::CorpusConfig cfg;
    cfg.mode = corpus::OpenMode::AppendWait;  // bench writers queue up
    corpus::TransferCorpus c(dir, cfg);
    return corpus::append_tune_result(c, base, program, machine,
                                      static_cast<std::uint32_t>(budget),
                                      result, modules);
  } catch (const std::exception&) {
    return 0;  // a broken corpus must never fail the bench run
  }
}

}  // namespace citroen::bench
