// Built in place of z3_oracle.cc when Z3 is not installed: the oracle tests skip.
#include "tests/z3_oracle.h"

namespace noctua::oracle {

std::unique_ptr<smt::SolverBackend> MakeZ3Oracle(const smt::SolverOptions&) { return nullptr; }

uint64_t Z3OracleChecks() { return 0; }

}  // namespace noctua::oracle
