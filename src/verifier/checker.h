// The VERIFIER: instantiates the checking rules of paper §2.2.1 as counterexample
// queries, runs the SMT backend, and assembles the restriction set.
//
//   Commutativity(P, Q):   ∀S,x,y.  S + P(x) + Q(y) = S + Q(y) + P(x)
//   Semantic(P, Q):        NotInvalidate(P,Q) ∧ NotInvalidate(Q,P)
//   NotInvalidate(P, Q):   ∀S,x,y.  g_P(x,S) ⟹ g_P(x, S + Q(y))
//
// Each rule is refuted: the solver searches for a state and arguments witnessing a
// violation (§5.2 "Generation"). Preconditions of the replayed effects are asserted on
// fresh states (the effect must be producible somewhere). A pair is restricted iff either
// rule fails, times out, or hits an unsupported construct (conservative fallback, §3.3).
#ifndef SRC_VERIFIER_CHECKER_H_
#define SRC_VERIFIER_CHECKER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/smt/backend.h"
#include "src/smt/solver.h"
#include "src/soir/ast.h"
#include "src/soir/printer.h"
#include "src/verifier/encoder.h"

namespace noctua::verifier {

enum class CheckOutcome : uint8_t {
  kPass,         // no counterexample within scope: the pair is safe under this rule
  kFail,         // counterexample found: restrict
  kTimeout,      // solver gave up: restrict conservatively
  kUnsupported,  // encoding hit an unsupported construct: restrict conservatively
};

const char* CheckOutcomeName(CheckOutcome o);
inline bool OutcomeRestricts(CheckOutcome o) { return o != CheckOutcome::kPass; }

struct CheckerOptions {
  smt::SolverOptions solver;
  EncoderOptions encoder;
  // Skip the solver when the two paths touch provably disjoint parts of the schema.
  bool independence_prefilter = true;
  // Assert replayed effects' preconditions on fresh origin states (paper §5.2); when
  // false, preconditions are asserted on the shared initial state (cheaper, stricter).
  bool fresh_origin_states = true;
  // Project every query onto the pair's footprint closure: state constants and axioms
  // are only materialized for models/relations the pair can actually reach. The dropped
  // axioms are independently satisfiable, so verdicts are unchanged — but queries over
  // a two-model corner of a 14-model schema shrink dramatically.
  bool project_footprint = true;
};

struct CheckStats {
  double seconds = 0;
  uint64_t solver_nodes = 0;
  bool prefiltered = false;
  bool cache_hit = false;  // verdict served by the report-level fingerprint cache
  bool replayed = false;   // the serving cache entry was loaded from a prior run's store
};

// What the verifier needs to know about one path on its own. AnalyzeRestrictions
// computes these once per path and every pair the path is in reads them: the
// independence prefilter, the cost estimate, PairSession and the verdict keys. Nothing
// here depends on the partner path or on a renaming context.
struct PathFacts {
  PathFacts(const soir::Schema& schema, const soir::CodePath& path);

  const soir::CodePath* path;
  // CodePath::CollectFootprint: models read / written and relations touched.
  std::vector<int> models_read;
  std::vector<int> models_written;
  std::vector<int> relations;
  // This path's share of Checker::ComputeScope, sorted and unique: a pair's scope is
  // the union of its two paths' shares.
  std::vector<int> scope_models;
  std::vector<int> scope_relations;
  // Encoder::OrderRelevantModels.
  std::set<int> order_models;
  // The canonical rendering the verdict keys are composed from (soir/printer.h).
  soir::CanonicalTemplate canon;
};

class Checker {
 public:
  Checker(const soir::Schema& schema, CheckerOptions options = {})
      : schema_(schema), options_(std::move(options)) {}

  const CheckerOptions& options() const { return options_; }
  const soir::Schema& schema() const { return schema_; }

  // A check is a pure function of (schema, options, pair): all methods are const and a
  // single Checker may be shared by concurrent verification workers. Each check builds
  // its own TermFactory/Encoder/Solver, so nothing mutable is shared.

  // Rule 1. `order_models` is the set of models whose relative order matters for state
  // equality (models whose insertion order is observed by any operation of the app);
  // pass nullptr to derive it from the pair alone.
  CheckOutcome CheckCommutativity(const soir::CodePath& p, const soir::CodePath& q,
                                  const std::set<int>* order_models = nullptr,
                                  CheckStats* stats = nullptr) const;

  // Rule 2, one direction: can Q's effect invalidate P's precondition?
  CheckOutcome CheckNotInvalidate(const soir::CodePath& p, const soir::CodePath& q,
                                  CheckStats* stats = nullptr) const;

  // Rule 2, both directions (the paper's semantic check).
  CheckOutcome CheckSemantic(const soir::CodePath& p, const soir::CodePath& q,
                             CheckStats* stats = nullptr) const;

  // As above, additionally reporting each direction's own stats (direction two is left
  // untouched when it is skipped because direction one already restricts).
  CheckOutcome CheckSemantic(const soir::CodePath& p, const soir::CodePath& q,
                             CheckStats* stats, CheckStats* dir1_stats,
                             CheckStats* dir2_stats) const;

  // The per-pair hot path: one TermFactory, one solver backend, and one grounding pass
  // shared by a pair's commutativity query and both NotInvalidate directions. The
  // NotInvalidate frame — initial-state axioms, both preconditions, the unique-id axiom —
  // is asserted once; each direction pushes only its negated goal (plus the replayed
  // effect's definitions) and pops it afterwards, so an incremental backend re-grounds
  // only the per-direction roots. Falls back to the per-call legacy methods when the
  // backend is not incremental or NOCTUA_INCREMENTAL=off; verdicts are identical either
  // way (the shared frame is content-identical in shared-origin mode and differs only by
  // satisfiability-preserving origin constraints in fresh-origin mode).
  //
  // Both NotInvalidate directions encode p's arguments with prefix "x" and q's with "y"
  // (the legacy direction two swaps them); verdicts are invariant under that renaming.
  //
  // A session is single-threaded and must not outlive its Checker, nor the PathFacts
  // it was given.
  //
  // `make_backend` builds the session's backend from the checker's solver options. It
  // is a seam for tests, which substitute an independent oracle for the model finder;
  // production always takes the default. The legacy fallback (incremental solving off,
  // or a backend without caps().incremental) solves through MakeBackend instead.
  using BackendMaker = std::unique_ptr<smt::SolverBackend> (*)(const smt::SolverOptions&);
  class PairSession {
   public:
    PairSession(const Checker& checker, const PathFacts& p, const PathFacts& q,
                const std::set<int>* order_models = nullptr,
                BackendMaker make_backend = smt::MakeBackend);
    ~PairSession();
    PairSession(const PairSession&) = delete;
    PairSession& operator=(const PairSession&) = delete;

    CheckOutcome Commutativity(CheckStats* stats = nullptr);
    // "Can q's effect invalidate p's precondition?" == CheckNotInvalidate(p, q).
    CheckOutcome NotInvalidatePQ(CheckStats* stats = nullptr);
    // The mirror direction == CheckNotInvalidate(q, p).
    CheckOutcome NotInvalidateQP(CheckStats* stats = nullptr);

   private:
    struct Shared;
    void EnsureShared();
    void BuildNiFrame();
    CheckOutcome NotInvalidateDir(bool pq, CheckStats* stats);

    const Checker& checker_;
    const PathFacts& fp_;
    const PathFacts& fq_;
    const soir::CodePath& p_;
    const soir::CodePath& q_;
    std::set<int> com_order_;  // StateEq order set for the commutativity query
    std::set<int> ni_order_;   // pair-derived order union for NotInvalidate
    BackendMaker make_backend_;
    bool prefiltered_ = false;
    std::unique_ptr<Shared> shared_;
  };

  // True when the prefilter would retire this pair without a solver call (footprints
  // provably disjoint). Exposed so the scheduler can retire such pairs first.
  bool Prefilterable(const PathFacts& p, const PathFacts& q) const {
    return options_.independence_prefilter && Independent(p, q);
  }

  // The pair's footprint closure: every model/relation either path can reach through
  // expressions, commands, relation paths, argument types, relation endpoints, or
  // delete-incident relations. This is what project_footprint materializes.
  struct PairScope {
    std::set<int> models;
    std::set<int> relations;
  };
  PairScope ComputeScope(const PathFacts& p, const PathFacts& q) const;

  // Severity order of outcomes (pass < fail < timeout < unsupported): the worse of two
  // directions decides a semantic check.
  static CheckOutcome WorseOutcome(CheckOutcome a, CheckOutcome b);

 private:
  // True when the two paths' footprints are disjoint, so both rules trivially pass.
  static bool Independent(const PathFacts& p, const PathFacts& q);
  // The rules on precomputed facts; the public CodePath methods wrap these.
  CheckOutcome Commutativity(const PathFacts& p, const PathFacts& q,
                             const std::set<int>& order, CheckStats* stats) const;
  CheckOutcome NotInvalidate(const PathFacts& p, const PathFacts& q, CheckStats* stats) const;
  CheckOutcome RunSolver(smt::TermFactory& factory, const std::vector<smt::Term>& assertions,
                         bool any_unsupported, CheckStats* stats) const;
  // Runs a Check on an already-asserted backend and flushes the per-query solver
  // introspection; both the legacy per-call path and PairSession funnel through here.
  CheckOutcome RunSolverOn(smt::SolverBackend& backend, smt::TermFactory& factory,
                           bool any_unsupported, CheckStats* stats) const;
  // Applies project_footprint to a per-check encoder configuration.
  void ApplyProjection(const PathFacts& p, const PathFacts& q,
                       EncoderOptions* enc_options) const;

  const soir::Schema& schema_;
  CheckerOptions options_;
};

}  // namespace noctua::verifier

#endif  // SRC_VERIFIER_CHECKER_H_
