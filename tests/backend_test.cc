// Tests for the pluggable solver backends (src/smt/backend.h):
//   * the CdclSearch propositional core, driven piecewise — unit propagation chains,
//     first-UIP conflict analysis, learned-clause implication, pigeonhole pure SAT;
//   * backend selection — strict NOCTUA_SOLVER parsing and the MakeBackend factory;
//   * the portfolio race — cancellation, win accounting, verdict agreement;
//   * the headline soundness claim: every evaluated app's restriction set is
//     byte-identical across dfs, cdcl, and portfolio;
//   * search identity: the exact width-1 dfs tallies of the four cheap apps.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/pipeline.h"
#include "src/smt/backend.h"
#include "src/smt/cdcl.h"
#include "src/smt/portfolio.h"
#include "src/smt/solver.h"
#include "src/smt/term.h"

namespace noctua {
namespace {

using smt::BackendKind;
using smt::CdclSearch;
using smt::SolveResult;
using smt::Term;
using smt::TermFactory;

// ------------------------------------------------------------------- CdclSearch core

TEST(CdclSearchTest, UnitPropagationChains) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
  // a -> b -> c -> d as implications.
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::PosLit(b)});
  s.AddClause({CdclSearch::NegLit(b), CdclSearch::PosLit(c)});
  s.AddClause({CdclSearch::NegLit(c), CdclSearch::PosLit(d)});
  ASSERT_FALSE(s.unsat());

  s.Decide(CdclSearch::PosLit(a));
  EXPECT_EQ(s.Propagate(), -1);
  for (int v : {a, b, c, d}) {
    EXPECT_EQ(s.value(v), 1) << "var " << v;
    EXPECT_EQ(s.LevelOf(v), 1) << "var " << v;
  }

  // Backtracking undoes the whole chain.
  s.BacktrackTo(0);
  for (int v : {a, b, c, d}) {
    EXPECT_EQ(s.value(v), -1) << "var " << v;
  }
}

TEST(CdclSearchTest, PropagationReportsConflictingClause) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar();
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::PosLit(b)});
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::NegLit(b)});
  s.Decide(CdclSearch::PosLit(a));
  int conflict = s.Propagate();
  ASSERT_GE(conflict, 0);
  // The conflicting clause is falsified end to end.
  // (Either input clause may be reported depending on propagation order.)
  EXPECT_EQ(s.value(a), 1);
}

TEST(CdclSearchTest, LevelZeroUnitsPropagateImmediately) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar();
  s.AddClause({CdclSearch::PosLit(a)});
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::PosLit(b)});
  EXPECT_EQ(s.Propagate(), -1);
  EXPECT_EQ(s.value(a), 1);
  EXPECT_EQ(s.value(b), 1);
  EXPECT_EQ(s.LevelOf(a), 0);
  EXPECT_EQ(s.LevelOf(b), 0);
}

TEST(CdclSearchTest, ContradictoryUnitsMarkUnsat) {
  CdclSearch s;
  int a = s.NewVar();
  s.AddClause({CdclSearch::PosLit(a)});
  s.Propagate();
  s.AddClause({CdclSearch::NegLit(a)});
  EXPECT_TRUE(s.unsat());
}

// The classic first-UIP shape: a@1 and b@2 are decisions; b implies c, c and a imply d,
// and (¬c ∨ ¬d) closes the trap. Analysis must resolve d away, stop at the unique
// level-2 implication point c, and pull in the level-1 context literal ¬a.
TEST(CdclSearchTest, FirstUipLearnedClauseAndBackjump) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
  s.AddClause({CdclSearch::NegLit(b), CdclSearch::PosLit(c)});
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::NegLit(c), CdclSearch::PosLit(d)});
  std::vector<int> trap = {CdclSearch::NegLit(c), CdclSearch::NegLit(d)};
  s.AddClause(trap);

  s.Decide(CdclSearch::PosLit(a));
  ASSERT_EQ(s.Propagate(), -1);
  s.Decide(CdclSearch::PosLit(b));
  int conflict = s.Propagate();
  ASSERT_GE(conflict, 0);

  CdclSearch::Conflict result = s.Analyze(trap);
  ASSERT_EQ(result.learned.size(), 2u);
  EXPECT_EQ(result.learned[0], CdclSearch::NegLit(c));  // the asserting first-UIP literal
  EXPECT_EQ(result.learned[1], CdclSearch::NegLit(a));  // the level-1 context
  EXPECT_EQ(result.backjump_level, 1);
}

// Whatever Analyze learns must be *implied* by the input formula: conjoining the
// negation of the learned clause with the original clauses must be unsatisfiable.
TEST(CdclSearchTest, LearnedClauseIsImpliedByTheFormula) {
  std::vector<std::vector<int>> formula;
  auto build = [&](CdclSearch& s) {
    int a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
    formula = {{CdclSearch::NegLit(b), CdclSearch::PosLit(c)},
               {CdclSearch::NegLit(a), CdclSearch::NegLit(c), CdclSearch::PosLit(d)},
               {CdclSearch::NegLit(c), CdclSearch::NegLit(d)}};
    for (const auto& cl : formula) {
      s.AddClause(cl);
    }
    return std::vector<int>{a, b, c, d};
  };

  CdclSearch s;
  std::vector<int> vars = build(s);
  s.Decide(CdclSearch::PosLit(vars[0]));
  ASSERT_EQ(s.Propagate(), -1);
  s.Decide(CdclSearch::PosLit(vars[1]));
  ASSERT_GE(s.Propagate(), 0);
  CdclSearch::Conflict result = s.Analyze(formula[2]);

  // Fresh search: original formula plus the negation of every learned literal.
  CdclSearch check;
  build(check);
  for (int lit : result.learned) {
    check.AddClause({CdclSearch::Negate(lit)});
  }
  EXPECT_EQ(check.Solve(nullptr, nullptr), SolveResult::kUnsat);
}

TEST(CdclSearchTest, SolvePureSatFindsSatisfyingAssignment) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  std::vector<std::vector<int>> formula = {
      {CdclSearch::PosLit(a), CdclSearch::PosLit(b)},
      {CdclSearch::NegLit(a), CdclSearch::PosLit(c)},
      {CdclSearch::NegLit(b), CdclSearch::NegLit(c)},
  };
  for (const auto& cl : formula) {
    s.AddClause(cl);
  }
  ASSERT_EQ(s.Solve(nullptr, nullptr), SolveResult::kSat);
  for (const auto& cl : formula) {
    bool satisfied = false;
    for (int lit : cl) {
      satisfied = satisfied || s.LitValue(lit) == 1;
    }
    EXPECT_TRUE(satisfied);
  }
}

// Pigeonhole PHP(4,3): every unsatisfiable run must learn its way there.
TEST(CdclSearchTest, PigeonholeIsUnsatAndLearnsClauses) {
  constexpr int kPigeons = 4, kHoles = 3;
  CdclSearch s;
  int p[kPigeons][kHoles];
  for (int i = 0; i < kPigeons; ++i) {
    for (int j = 0; j < kHoles; ++j) {
      p[i][j] = s.NewVar();
    }
  }
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<int> somewhere;
    for (int j = 0; j < kHoles; ++j) {
      somewhere.push_back(CdclSearch::PosLit(p[i][j]));
    }
    s.AddClause(somewhere);
  }
  for (int j = 0; j < kHoles; ++j) {
    for (int i = 0; i < kPigeons; ++i) {
      for (int k = i + 1; k < kPigeons; ++k) {
        s.AddClause({CdclSearch::NegLit(p[i][j]), CdclSearch::NegLit(p[k][j])});
      }
    }
  }
  EXPECT_EQ(s.Solve(nullptr, nullptr), SolveResult::kUnsat);
  EXPECT_GT(s.conflicts(), 0u);
  EXPECT_GT(s.learned_clauses(), 0u);
}

// Aggressive Luby restarts must not change a verdict: with a one-conflict restart unit
// the pigeonhole refutation still lands at unsat (input clauses and level-0 units
// survive every restart and DB reduction), the schedule actually fires, and the
// injection hook runs once per restart.
TEST(CdclSearchTest, LubyRestartsPreserveUnsatAndFireTheHook) {
  constexpr int kPigeons = 4, kHoles = 3;
  CdclSearch s;
  uint64_t hook_calls = 0;
  s.ConfigureRestarts(1, [&]() { ++hook_calls; });
  int p[kPigeons][kHoles];
  for (int i = 0; i < kPigeons; ++i) {
    for (int j = 0; j < kHoles; ++j) {
      p[i][j] = s.NewVar();
    }
  }
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<int> somewhere;
    for (int j = 0; j < kHoles; ++j) {
      somewhere.push_back(CdclSearch::PosLit(p[i][j]));
    }
    s.AddClause(somewhere);
  }
  for (int j = 0; j < kHoles; ++j) {
    for (int i = 0; i < kPigeons; ++i) {
      for (int k = i + 1; k < kPigeons; ++k) {
        s.AddClause({CdclSearch::NegLit(p[i][j]), CdclSearch::NegLit(p[k][j])});
      }
    }
  }
  EXPECT_EQ(s.Solve(nullptr, nullptr), SolveResult::kUnsat);
  EXPECT_GT(s.restarts(), 0u);
  EXPECT_EQ(hook_calls, s.restarts());
}

// ------------------------------------------------------------------ backend selection

TEST(BackendKindTest, ParseAcceptsExactlyTheThreeKnobValues) {
  BackendKind k = BackendKind::kAuto;
  EXPECT_TRUE(smt::ParseBackendKind("dfs", &k));
  EXPECT_EQ(k, BackendKind::kDfs);
  EXPECT_TRUE(smt::ParseBackendKind("cdcl", &k));
  EXPECT_EQ(k, BackendKind::kCdcl);
  EXPECT_TRUE(smt::ParseBackendKind("portfolio", &k));
  EXPECT_EQ(k, BackendKind::kPortfolio);

  for (const char* bad : {"auto", "DFS", "Cdcl", "", "z3", "dfs ", " dfs", "portfolio2"}) {
    BackendKind untouched = BackendKind::kPortfolio;
    EXPECT_FALSE(smt::ParseBackendKind(bad, &untouched)) << '"' << bad << '"';
    EXPECT_EQ(untouched, BackendKind::kPortfolio) << '"' << bad << '"';
  }
}

TEST(BackendKindTest, EnvSelectionIsStrict) {
  ASSERT_EQ(unsetenv("NOCTUA_SOLVER"), 0);
  EXPECT_EQ(smt::BackendKindFromEnv(), BackendKind::kDfs);
  ASSERT_EQ(setenv("NOCTUA_SOLVER", "cdcl", 1), 0);
  EXPECT_EQ(smt::BackendKindFromEnv(), BackendKind::kCdcl);
  ASSERT_EQ(setenv("NOCTUA_SOLVER", "portfolio", 1), 0);
  EXPECT_EQ(smt::BackendKindFromEnv(), BackendKind::kPortfolio);
  // Typos fall back to dfs (with a one-shot stderr warning) instead of being absorbed.
  for (const char* bad : {"Portfolio", "z3", "dfs,cdcl", "auto"}) {
    ASSERT_EQ(setenv("NOCTUA_SOLVER", bad, 1), 0);
    EXPECT_EQ(smt::BackendKindFromEnv(), BackendKind::kDfs) << '"' << bad << '"';
  }
  ASSERT_EQ(unsetenv("NOCTUA_SOLVER"), 0);
}

TEST(BackendFactoryTest, PinnedKindOverridesOptionsAndEnv) {
  smt::SolverOptions options;
  options.backend = BackendKind::kCdcl;
  EXPECT_STREQ(smt::MakeBackend(options)->name(), "cdcl");
  EXPECT_STREQ(smt::MakeBackend(BackendKind::kPortfolio, options)->name(), "portfolio");

  ASSERT_EQ(setenv("NOCTUA_SOLVER", "cdcl", 1), 0);
  smt::SolverOptions from_env;  // backend = kAuto
  EXPECT_STREQ(smt::MakeBackend(from_env)->name(), "cdcl");
  ASSERT_EQ(unsetenv("NOCTUA_SOLVER"), 0);
  EXPECT_STREQ(smt::MakeBackend(from_env)->name(), "dfs");
}

TEST(BackendFactoryTest, CapabilitiesMatchTheContract) {
  smt::SolverOptions options;
  EXPECT_TRUE(smt::MakeBackend(BackendKind::kDfs, options)->caps().cancellable);
  EXPECT_TRUE(smt::MakeBackend(BackendKind::kCdcl, options)->caps().cancellable);
  // The race is synchronous: external cancellation is honored only between races.
  EXPECT_FALSE(smt::MakeBackend(BackendKind::kPortfolio, options)->caps().cancellable);
  for (BackendKind k : {BackendKind::kDfs, BackendKind::kCdcl, BackendKind::kPortfolio}) {
    EXPECT_TRUE(smt::MakeBackend(k, options)->caps().deterministic_budget);
    EXPECT_TRUE(smt::MakeBackend(k, options)->caps().produces_model);
    // All three retain grounding work across Checks (the portfolio through its
    // persistent contestants), which is what the verifier's pair sessions key on.
    EXPECT_TRUE(smt::MakeBackend(k, options)->caps().incremental);
  }
}

// ------------------------------------------------------------- optimization toggles

TEST(ToggleTest, ParseAcceptsExactlyOnAndOff) {
  smt::Toggle t = smt::Toggle::kAuto;
  EXPECT_TRUE(smt::ParseToggle("on", &t));
  EXPECT_EQ(t, smt::Toggle::kOn);
  EXPECT_TRUE(smt::ParseToggle("off", &t));
  EXPECT_EQ(t, smt::Toggle::kOff);
  for (const char* bad : {"auto", "1", "0", "true", "ON", "Off", " on", "on ", ""}) {
    smt::Toggle untouched = smt::Toggle::kOn;
    EXPECT_FALSE(smt::ParseToggle(bad, &untouched)) << '"' << bad << '"';
    EXPECT_EQ(untouched, smt::Toggle::kOn) << '"' << bad << '"';
  }
}

TEST(ToggleTest, EnvKnobsAreStrictAndDefaultOn) {
  smt::SolverOptions options;  // both toggles kAuto: defer to the environment
  ASSERT_EQ(unsetenv("NOCTUA_SYMMETRY"), 0);
  ASSERT_EQ(unsetenv("NOCTUA_INCREMENTAL"), 0);
  EXPECT_TRUE(smt::SymmetryEnabled(options));
  EXPECT_TRUE(smt::IncrementalEnabled(options));

  ASSERT_EQ(setenv("NOCTUA_SYMMETRY", "off", 1), 0);
  ASSERT_EQ(setenv("NOCTUA_INCREMENTAL", "off", 1), 0);
  EXPECT_FALSE(smt::SymmetryEnabled(options));
  EXPECT_FALSE(smt::IncrementalEnabled(options));

  // Typos warn (once, on stderr) and fall back to on instead of being absorbed.
  for (const char* bad : {"0", "disabled", "On", "yes"}) {
    ASSERT_EQ(setenv("NOCTUA_SYMMETRY", bad, 1), 0);
    ASSERT_EQ(setenv("NOCTUA_INCREMENTAL", bad, 1), 0);
    EXPECT_TRUE(smt::SymmetryEnabled(options)) << '"' << bad << '"';
    EXPECT_TRUE(smt::IncrementalEnabled(options)) << '"' << bad << '"';
  }

  // A pinned option wins over any environment value.
  options.symmetry = smt::Toggle::kOff;
  options.incremental = smt::Toggle::kOff;
  ASSERT_EQ(setenv("NOCTUA_SYMMETRY", "on", 1), 0);
  ASSERT_EQ(setenv("NOCTUA_INCREMENTAL", "on", 1), 0);
  EXPECT_FALSE(smt::SymmetryEnabled(options));
  EXPECT_FALSE(smt::IncrementalEnabled(options));

  ASSERT_EQ(unsetenv("NOCTUA_SYMMETRY"), 0);
  ASSERT_EQ(unsetenv("NOCTUA_INCREMENTAL"), 0);
}

// ------------------------------------------------------------------- portfolio race

// Pin the threaded race on, even on single-core machines where the backend would
// normally fall back to the sequential cascade — these tests are about the race.
class PortfolioTest : public ::testing::Test {
 protected:
  void SetUp() override { smt::PortfolioBackend::SetRaceModeForTesting(1); }
  void TearDown() override { smt::PortfolioBackend::SetRaceModeForTesting(-1); }
};

TEST_F(PortfolioTest, DecidesAndCountsWins) {
  smt::PortfolioCounts before = smt::GetPortfolioCounts();

  TermFactory f;
  Term x = f.Const("x", smt::IntSort());
  smt::SolverOptions options;
  auto backend = smt::MakeBackend(BackendKind::kPortfolio, options);
  backend->Assert(f.Eq(x, f.IntLit(1)));
  backend->Assert(f.Eq(x, f.IntLit(2)));
  EXPECT_EQ(backend->Check(f), SolveResult::kUnsat);
  // A decisive race records exactly one winner.
  int w = backend->stats().portfolio_winner;
  EXPECT_TRUE(w == 0 || w == 1) << w;

  smt::PortfolioCounts after = smt::GetPortfolioCounts();
  EXPECT_EQ(after.races, before.races + 1);
  EXPECT_EQ(after.wins_dfs + after.wins_cdcl, before.wins_dfs + before.wins_cdcl + 1);
}

TEST_F(PortfolioTest, SatRaceProducesAWitnessModel) {
  TermFactory f;
  Term x = f.Const("x", smt::IntSort());
  auto backend = smt::MakeBackend(BackendKind::kPortfolio, smt::SolverOptions{});
  backend->Assert(f.Eq(x, f.IntLit(1)));
  ASSERT_EQ(backend->Check(f), SolveResult::kSat);
  EXPECT_FALSE(backend->model().ToString().empty());
}

TEST_F(PortfolioTest, ExternalCancellationShortCircuitsTheRace) {
  TermFactory f;
  Term x = f.Const("x", smt::IntSort());
  std::atomic<bool> cancel{true};
  auto backend = smt::MakeBackend(BackendKind::kPortfolio, smt::SolverOptions{});
  backend->set_cancel(&cancel);
  backend->Assert(f.Eq(x, f.IntLit(1)));
  EXPECT_EQ(backend->Check(f), SolveResult::kUnknown);
  // Clearing the flag lets the same backend race normally.
  cancel.store(false);
  EXPECT_EQ(backend->Check(f), SolveResult::kSat);
}

// The single-core fallback: same verdicts and the same tally bookkeeping as the race,
// with dfs deciding first and cdcl only consulted when dfs abandons.
TEST(PortfolioCascadeTest, SequentialFallbackDecidesAndTallies) {
  smt::PortfolioBackend::SetRaceModeForTesting(0);
  smt::PortfolioCounts before = smt::GetPortfolioCounts();

  TermFactory f;
  Term x = f.Const("x", smt::IntSort());
  auto backend = smt::MakeBackend(BackendKind::kPortfolio, smt::SolverOptions{});
  backend->Assert(f.Eq(x, f.IntLit(1)));
  backend->Assert(f.Eq(x, f.IntLit(2)));
  EXPECT_EQ(backend->Check(f), SolveResult::kUnsat);
  // dfs refutes this outright, so the cascade never reaches cdcl.
  EXPECT_EQ(backend->stats().portfolio_winner, 0);

  auto sat = smt::MakeBackend(BackendKind::kPortfolio, smt::SolverOptions{});
  sat->Assert(f.Eq(x, f.IntLit(7)));
  ASSERT_EQ(sat->Check(f), SolveResult::kSat);
  EXPECT_FALSE(sat->model().ToString().empty());

  smt::PortfolioCounts after = smt::GetPortfolioCounts();
  EXPECT_EQ(after.races, before.races + 2);
  EXPECT_EQ(after.wins_dfs, before.wins_dfs + 2);
  EXPECT_EQ(after.wins_cdcl, before.wins_cdcl);
  smt::PortfolioBackend::SetRaceModeForTesting(-1);
}

// ---------------------------------------------------- cross-backend restriction sets

std::vector<std::string> VerdictLines(const verifier::RestrictionReport& report) {
  std::vector<std::string> out;
  out.reserve(report.pairs.size());
  for (const auto& v : report.pairs) {
    out.push_back(v.p + "|" + v.q + "|" + verifier::CheckOutcomeName(v.commutativity) +
                  "|" + verifier::CheckOutcomeName(v.semantic));
  }
  return out;
}

// The acceptance bar for the whole redesign: on every evaluated app, the dfs, cdcl, and
// portfolio backends must produce byte-identical restriction sets. Budgets are pinned to
// deterministic (node-only) mode so the comparison is exact on any machine.
class BackendIdentityTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(BackendIdentityTest, RestrictionSetsAreByteIdenticalAcrossBackends) {
  app::App a = GetParam().make();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;

  auto run = [&](BackendKind kind) {
    PipelineOptions options;
    options.parallel.threads = 2;
    options.checker.solver.backend = kind;
    options.checker.solver.budget.deterministic = true;
    return Pipeline::Verify(a, analysis, options);
  };

  verifier::RestrictionReport dfs = run(BackendKind::kDfs);
  ASSERT_FALSE(dfs.pairs.empty());
  EXPECT_EQ(dfs.stats.solver_backend, "dfs");
  std::vector<std::string> expected = VerdictLines(dfs);

  verifier::RestrictionReport cdcl = run(BackendKind::kCdcl);
  EXPECT_EQ(cdcl.stats.solver_backend, "cdcl");
  EXPECT_EQ(VerdictLines(cdcl), expected);
  EXPECT_EQ(cdcl.RestrictedPairNames(), dfs.RestrictedPairNames());

  verifier::RestrictionReport portfolio = run(BackendKind::kPortfolio);
  EXPECT_EQ(portfolio.stats.solver_backend, "portfolio");
  EXPECT_EQ(VerdictLines(portfolio), expected);
  EXPECT_EQ(portfolio.RestrictedPairNames(), dfs.RestrictedPairNames());
  // Every solver query of the portfolio run was a race, and the report's tallies are
  // deltas for this run alone.
  if (portfolio.stats.solver_checks > 0) {
    EXPECT_GT(portfolio.stats.portfolio_races, 0u);
    EXPECT_EQ(portfolio.stats.portfolio_wins_dfs + portfolio.stats.portfolio_wins_cdcl +
                  portfolio.stats.portfolio_undecided,
              portfolio.stats.portfolio_races);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BackendIdentityTest, ::testing::ValuesIn(apps::EvaluatedApps()),
    [](const ::testing::TestParamInfo<apps::AppEntry>& info) { return info.param.name; });

// The acceptance bar for the hot-path optimizations: on every evaluated app, turning
// incremental solving and symmetry reduction off must not move a single verdict. The
// off-mode reference runs on dfs and is compared against pinned-on runs of dfs and
// cdcl; the portfolio needs no row of its own — it is composed of the other two, and
// BackendIdentityTest already pins its restriction set to theirs with the toggles at
// their defaults.
class OptimizationIdentityTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(OptimizationIdentityTest, TogglesDoNotChangeTheRestrictionSet) {
  app::App a = GetParam().make();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;

  auto run = [&](BackendKind kind, smt::Toggle mode) {
    PipelineOptions options;
    options.parallel.threads = 2;
    options.checker.solver.backend = kind;
    options.checker.solver.budget.deterministic = true;
    options.checker.solver.symmetry = mode;
    options.checker.solver.incremental = mode;
    return Pipeline::Verify(a, analysis, options);
  };

  verifier::RestrictionReport off = run(BackendKind::kDfs, smt::Toggle::kOff);
  ASSERT_FALSE(off.pairs.empty());
  // The toggles are really off: nothing was reused or pruned.
  EXPECT_EQ(off.stats.incremental_reuse_hits, 0u);
  EXPECT_EQ(off.stats.symmetry_pruned, 0u);
  std::vector<std::string> expected = VerdictLines(off);

  for (BackendKind kind : {BackendKind::kDfs, BackendKind::kCdcl}) {
    verifier::RestrictionReport on = run(kind, smt::Toggle::kOn);
    EXPECT_EQ(VerdictLines(on), expected) << smt::BackendKindName(kind);
    EXPECT_EQ(on.RestrictedPairNames(), off.RestrictedPairNames())
        << smt::BackendKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, OptimizationIdentityTest, ::testing::ValuesIn(apps::EvaluatedApps()),
    [](const ::testing::TestParamInfo<apps::AppEntry>& info) { return info.param.name; });

// Search identity: at width 1 under the deterministic budget, the dfs model finder's
// search is fully determined by the app, so its exact check and node tallies pin the
// search tree. A per-node solver change that claims to keep the search (a cheaper
// substitution, a different memo) must leave these numbers — the same ones the ledger
// commits in ledger/expected.json — bit-identical; a change that alters them alters
// which branches the DFS explores, even when every verdict survives.
TEST(SearchIdentityTest, WidthOneDfsTalliesArePinned) {
  struct Pin {
    const char* app;
    uint64_t solver_checks;
    uint64_t solver_nodes;
    size_t restrictions;
  };
  const Pin pins[] = {
      {"Todo", 198, 11844, 47},
      {"PostGraduation", 103, 19647, 29},
      {"SmallBank", 15, 1289, 4},
      {"Courseware", 19, 441, 2},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.app);
    const std::vector<apps::AppEntry> all = apps::EvaluatedApps();
    auto entry = std::find_if(all.begin(), all.end(),
                              [&](const apps::AppEntry& e) { return e.name == pin.app; });
    ASSERT_NE(entry, all.end());
    EngineConfig config;
    config.threads = 1;
    config.solver = BackendKind::kDfs;
    Engine engine(config);
    PipelineOptions options;
    options.parallel.threads = 1;
    options.checker.solver.backend = BackendKind::kDfs;
    options.checker.solver.budget.deterministic = true;
    options.checker.solver.symmetry = smt::Toggle::kOn;
    options.checker.solver.incremental = smt::Toggle::kOn;
    PipelineResult r = engine.Run(entry->make(), options);
    EXPECT_EQ(r.stats().solver_checks, pin.solver_checks);
    EXPECT_EQ(r.stats().solver_nodes, pin.solver_nodes);
    EXPECT_EQ(r.restrictions.RestrictedPairNames().size(), pin.restrictions);
  }
}

}  // namespace
}  // namespace noctua
