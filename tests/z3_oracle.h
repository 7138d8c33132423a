// A Z3-backed smt::SolverBackend, used only by tests as an independent oracle for the
// bounded model finder.
//
// The oracle decides the same bounded question the model finder decides, not the
// unbounded one Z3 would decide by default:
//
//   * It grounds its assertions through the same IncrementalGrounder (so its conjuncts
//     are exactly GroundAndFlatten's) and harvests the same ValueDomains from them.
//   * Every scalar unknown — each scalar constant, and each array cell (and tuple field
//     of a cell) at every in-scope index — is a Z3 constant restricted to its domain:
//     Bool unrestricted, Int and String to the harvested values, Ref(m) to [0, k_m).
//   * Arrays are finite: an array value is the vector of its cells in the grounder's
//     domain order, Store/Select over a symbolic index become if-then-else over that
//     order, and tuples and pairs are vectors of their components.
//
// Everything built from those unknowns (sums, comparisons, string concatenations) is
// left to Z3's own theories, exactly as the model finder's simplifier evaluates them.
// What the oracle shares with the model finder is the grounding and the value domains;
// the search, the simplifier and the term evaluation are Z3's.
#ifndef TESTS_Z3_ORACLE_H_
#define TESTS_Z3_ORACLE_H_

#include <cstdint>
#include <memory>

#include "src/smt/backend.h"

namespace noctua::oracle {

// A fresh oracle for `options` (scope, domain caps, budget: the wall-clock timeout
// applies unless the budget is deterministic, in which case Z3 runs to a verdict).
// Returns nullptr when the tests were built without Z3; callers skip.
std::unique_ptr<smt::SolverBackend> MakeZ3Oracle(const smt::SolverOptions& options);

// Checks the oracle has run in this process: a test that substitutes the oracle
// through a seam asserts this moved, so a silent fallback to the model finder cannot
// pass as agreement.
uint64_t Z3OracleChecks();

}  // namespace noctua::oracle

#endif  // TESTS_Z3_ORACLE_H_
