#include "src/smt/backend.h"

#include "src/support/check.h"
#include "src/support/env.h"

namespace noctua::smt {

const char* BackendKindName(BackendKind k) {
  switch (k) {
    case BackendKind::kDfs:
      return "dfs";
  }
  return "?";
}

bool ParseToggle(const std::string& value, Toggle* out) {
  bool on = false;
  if (!env::ParseOnOff(value, &on)) {
    return false;
  }
  *out = on ? Toggle::kOn : Toggle::kOff;
  return true;
}

bool SymmetryFromEnv() { return env::OnOffOr("NOCTUA_SYMMETRY", true); }

bool IncrementalFromEnv() { return env::OnOffOr("NOCTUA_INCREMENTAL", true); }

bool SymmetryEnabled(const SolverOptions& options) {
  return options.symmetry == Toggle::kAuto ? SymmetryFromEnv()
                                           : options.symmetry == Toggle::kOn;
}

bool IncrementalEnabled(const SolverOptions& options) {
  return options.incremental == Toggle::kAuto ? IncrementalFromEnv()
                                              : options.incremental == Toggle::kOn;
}

void SolverCounterSink::AddShared(const SolverStats& stats) {
  if (stats.incremental_reuse_hits > 0) {
    reuse_hits_.fetch_add(stats.incremental_reuse_hits, std::memory_order_relaxed);
  }
  if (stats.symmetry_pruned > 0) {
    symmetry_pruned_.fetch_add(stats.symmetry_pruned, std::memory_order_relaxed);
  }
}

void SolverCounterSink::Add(const SolverSharedCounts& counts) {
  reuse_hits_.fetch_add(counts.incremental_reuse_hits, std::memory_order_relaxed);
  symmetry_pruned_.fetch_add(counts.symmetry_pruned, std::memory_order_relaxed);
}

namespace {

// Leaked, never destroyed: worker threads may still accumulate during static teardown.
SolverCounterSink& ProcessSinkStorage() {
  static SolverCounterSink* sink = new SolverCounterSink();
  return *sink;
}

thread_local SolverCounterSink* tls_sink = nullptr;

}  // namespace

SolverCounterSink& ProcessSolverCounters() { return ProcessSinkStorage(); }

SolverCounterSink* CurrentSolverCounterSink() {
  return tls_sink != nullptr ? tls_sink : &ProcessSinkStorage();
}

ScopedSolverCounterSink::ScopedSolverCounterSink(SolverCounterSink* sink) : prev_(tls_sink) {
  if (sink != nullptr) {
    tls_sink = sink;
  }
}

ScopedSolverCounterSink::~ScopedSolverCounterSink() { tls_sink = prev_; }

void AccumulateSolverSharedCounts(const SolverStats& stats) {
  CurrentSolverCounterSink()->AddShared(stats);
}

namespace {

// The bounded model finder behind the backend interface: a thin adapter over Solver.
class DfsBackend : public SolverBackend {
 public:
  explicit DfsBackend(const SolverOptions& options) : solver_(options) {}

  const char* name() const override { return "dfs"; }
  BackendCaps caps() const override { return BackendCaps{/*incremental=*/true}; }
  const SmtModel& model() const override { return solver_.model(); }
  const SolverStats& stats() const override { return solver_.stats(); }

 protected:
  SolveResult DoCheck(TermFactory& factory, const std::vector<Term>& assertions) override {
    SolveResult r = solver_.CheckSat(factory, assertions);
    AccumulateSolverSharedCounts(solver_.stats());
    return r;
  }

 private:
  Solver solver_;
};

}  // namespace

std::unique_ptr<SolverBackend> MakeBackend(const SolverOptions& options) {
  return std::make_unique<DfsBackend>(options);
}

}  // namespace noctua::smt
