// Search budgets and the solver's optimization toggles.
//
// Budget is what one check may spend: a wall-clock deadline, a node ceiling, and a
// determinism switch that trades the deadline for machine-independent verdicts.
// BackendKind names the decision procedure behind the SolverBackend interface
// (backend.h); the bounded model finder is the only one.
#ifndef SRC_SMT_BUDGET_H_
#define SRC_SMT_BUDGET_H_

#include <cstdint>
#include <string>

namespace noctua::smt {

// How much work one satisfiability check may spend before giving up with kUnknown.
// Exceeding the budget is conservative, never unsound: the verifier restricts the pair.
struct Budget {
  // Wall-clock limit per check (the paper's 2s timeout). <= 0 disables the deadline.
  double timeout_seconds = 2.0;
  // Search-node ceiling. A "node" is one DFS assignment of the bounded model finder.
  uint64_t max_nodes = 50'000'000;
  // Bound the search by max_nodes only, ignoring the wall clock. Searches are
  // deterministic given the term DAG, so with this set the verdict is too — independent
  // of machine speed, CPU contention, or how many verification workers run alongside.
  // Used by tests that assert byte-identical verdicts across thread counts.
  bool deterministic = false;
};

enum class BackendKind : uint8_t {
  kDfs,  // the bounded model finder: DFS over atoms with three-valued pruning
};

// Tri-state switch for an individual solver optimization. kAuto defers to the matching
// NOCTUA_* environment knob (which itself defaults to on); kOn/kOff pin the choice in
// code regardless of the environment. Both hot-path optimizations of the model finder —
// symmetry reduction and incremental grounding — are verdict-preserving, so the toggles
// exist for A/B measurement and bisection, not for correctness escape hatches.
enum class Toggle : uint8_t { kAuto, kOn, kOff };

// Strict parse of a toggle value: exactly "on" or "off". Returns false — leaving *out
// untouched — on anything else, including "auto", "1", "true".
bool ParseToggle(const std::string& value, Toggle* out);

// NOCTUA_SYMMETRY / NOCTUA_INCREMENTAL with the NOCTUA_THREADS parsing discipline: an
// unset variable means on, "on"/"off" are honored, and anything else is rejected with a
// one-shot stderr warning and treated as on (fail-fast on typos, never silently
// absorbed).
bool SymmetryFromEnv();
bool IncrementalFromEnv();

// Lower-case backend name, "dfs": the value ReportStats::solver_backend carries.
const char* BackendKindName(BackendKind k);

}  // namespace noctua::smt

#endif  // SRC_SMT_BUDGET_H_
