// The verifier <-> solver boundary: an abstract decision-procedure interface.
//
// The paper treats its solver as a black box behind a fixed query shape (assert a
// refutation query, ask sat/unsat under a budget, read a counterexample model). This
// header makes that boundary explicit. Production has one procedure behind it, the
// bounded model finder ("dfs", solver.h), built by MakeBackend. The interface stays so
// that a test can substitute an independent oracle for it (Checker::PairSession takes a
// backend constructor): the Z3 oracle under tests/ decides the same bounded question
// from the same grounding (GroundAndFlatten) and the same domains (ValueDomains), so on
// any query neither abandons (kUnknown) the two must return the same verdict.
#ifndef SRC_SMT_BACKEND_H_
#define SRC_SMT_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/smt/budget.h"
#include "src/smt/solver.h"
#include "src/smt/term.h"
#include "src/support/check.h"

namespace noctua::smt {

// What a backend can do, beyond deciding satisfiability. The verifier consults this
// rather than switching on the backend's name.
struct BackendCaps {
  // Retains grounding work across Checks on the same factory, so a Push/Assert/Check/Pop
  // sequence over a stable frame re-grounds only the pushed deltas. Every backend accepts
  // the Push/Pop interface (it lives in the base class); this cap advertises that
  // repeated Checks actually get cheaper, which is what the verifier's pair sessions
  // key on.
  bool incremental = false;
};

// One decision procedure. Usage:
//
//   auto backend = MakeBackend(options);
//   backend->AssertAll(assertions);
//   SolveResult r = backend->Check(factory);
//   if (r == SolveResult::kSat) { ... backend->model() ... }
//
// Backends are single-use per Check in spirit but reusable in practice: Check decides the
// conjunction of everything asserted so far and may be called again after further
// Asserts. The factory passed to Check must be the one that created the asserted terms.
// Like TermFactory, a backend instance is not thread-safe; create one per thread.
//
// Incremental use: Push opens an assertion frame, Pop discards everything asserted since
// the matching Push. The verifier asserts one pair's common frame (axioms, shared path
// definitions) at level zero, then solves each query direction as Push / Assert(negated
// goal) / Check / Pop on the same backend instance — the persistent ground cache inside
// the backend (see caps().incremental) makes the repeated frame essentially free.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  void Assert(Term t) { assertions_.push_back(t); }
  void AssertAll(const std::vector<Term>& ts) {
    assertions_.insert(assertions_.end(), ts.begin(), ts.end());
  }
  // Alias of Assert, matching the incremental-API naming used alongside Push/Pop.
  void AddAssertion(Term t) { Assert(t); }
  const std::vector<Term>& assertions() const { return assertions_; }

  // Opens an assertion frame: Pop removes every assertion added since the matching Push.
  void Push() { frames_.push_back(assertions_.size()); }
  void Pop() {
    NOCTUA_CHECK_MSG(!frames_.empty(), "SolverBackend::Pop without matching Push");
    assertions_.resize(frames_.back());
    frames_.pop_back();
  }
  size_t num_frames() const { return frames_.size(); }
  // Clears all assertions and frames; grounding caches inside the backend survive.
  void ResetAssertions() {
    assertions_.clear();
    frames_.clear();
  }

  // Decides satisfiability of the conjunction of all asserted terms. Assertions from the
  // innermost frame are passed to the procedure first: the newest frame holds the
  // (negated) per-query goal, and goal-first ordering is the search heuristic every
  // caller of the non-incremental path already encodes by hand.
  SolveResult Check(TermFactory& factory) {
    if (frames_.empty()) {
      return DoCheck(factory, assertions_);
    }
    std::vector<Term> ordered;
    ordered.reserve(assertions_.size());
    size_t end = assertions_.size();
    for (size_t i = frames_.size(); i-- > 0;) {
      ordered.insert(ordered.end(), assertions_.begin() + static_cast<long>(frames_[i]),
                     assertions_.begin() + static_cast<long>(end));
      end = frames_[i];
    }
    ordered.insert(ordered.end(), assertions_.begin(),
                   assertions_.begin() + static_cast<long>(end));
    return DoCheck(factory, ordered);
  }

  // Stable lower-case identifier ("dfs"; "z3" for the test oracle).
  virtual const char* name() const = 0;
  virtual BackendCaps caps() const = 0;

  // Valid after Check returned kSat.
  virtual const SmtModel& model() const = 0;
  virtual const SolverStats& stats() const = 0;

 protected:
  virtual SolveResult DoCheck(TermFactory& factory, const std::vector<Term>& assertions) = 0;

 private:
  std::vector<Term> assertions_;
  std::vector<size_t> frames_;  // start index of each open Push frame
};

// The production decision procedure: the bounded model finder configured by `options`.
std::unique_ptr<SolverBackend> MakeBackend(const SolverOptions& options);

// Optimization tallies, accumulated by the model finder at the end of each Check. The
// verifier counts each run's into a run-local sink and folds them into its caller's.
struct SolverSharedCounts {
  uint64_t incremental_reuse_hits = 0;  // root assertions served from a ground cache
  uint64_t symmetry_pruned = 0;         // candidate values pruned by symmetry reduction
};

// Where solver tallies land. Historically these were process-wide statics, which a
// long-lived multi-tenant engine would cross-contaminate: two concurrent runs
// snapshotting before/after deltas of one shared set of atomics read each other's work.
// A sink is now an owned object — each noctua::Engine holds one, and each verifier run
// counts into its own, installed per worker task through ScopedSolverCounterSink.
class SolverCounterSink {
 public:
  SolverCounterSink() = default;
  SolverCounterSink(const SolverCounterSink&) = delete;
  SolverCounterSink& operator=(const SolverCounterSink&) = delete;

  SolverSharedCounts Shared() const {
    SolverSharedCounts c;
    c.incremental_reuse_hits = reuse_hits_.load(std::memory_order_relaxed);
    c.symmetry_pruned = symmetry_pruned_.load(std::memory_order_relaxed);
    return c;
  }

  void AddShared(const SolverStats& stats);
  // Folds in totals counted elsewhere — a run's own sink, into its engine's at run end.
  void Add(const SolverSharedCounts& counts);

 private:
  std::atomic<uint64_t> reuse_hits_{0};
  std::atomic<uint64_t> symmetry_pruned_{0};
};

// The process-wide sink: the target when no scoped sink is installed.
SolverCounterSink& ProcessSolverCounters();

// The calling thread's current sink (never null; defaults to ProcessSolverCounters).
SolverCounterSink* CurrentSolverCounterSink();

// Installs `sink` as the calling thread's accumulation target for its lifetime; restores
// the previous sink on destruction. The verifier's pair loop installs its run's sink
// inside every worker task. Passing nullptr is a no-op install (the current sink stays).
class ScopedSolverCounterSink {
 public:
  explicit ScopedSolverCounterSink(SolverCounterSink* sink);
  ~ScopedSolverCounterSink();
  ScopedSolverCounterSink(const ScopedSolverCounterSink&) = delete;
  ScopedSolverCounterSink& operator=(const ScopedSolverCounterSink&) = delete;

 private:
  SolverCounterSink* prev_;
};

// Folds one Check's stats into the current sink; called by the model finder's backend.
void AccumulateSolverSharedCounts(const SolverStats& stats);

// Resolved values of the optimization toggles for a given options struct (kAuto defers
// to NOCTUA_SYMMETRY / NOCTUA_INCREMENTAL; both default to on).
bool SymmetryEnabled(const SolverOptions& options);
bool IncrementalEnabled(const SolverOptions& options);

}  // namespace noctua::smt

#endif  // SRC_SMT_BACKEND_H_
