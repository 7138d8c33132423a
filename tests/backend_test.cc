// Tests for the solver backend boundary (src/smt/backend.h):
//   * the propositional core of the CDCL reference procedure (tests/cdcl_oracle.h),
//     driven piecewise — unit propagation chains, first-UIP conflict analysis,
//     learned-clause implication, pigeonhole pure SAT, Luby restarts;
//   * the factory and the model finder's capabilities;
//   * the optimization toggles' strict env parsing;
//   * the headline soundness claim: on every evaluated app, every query the verifier
//     sends to the model finder gets the same verdict from the Z3 oracle
//     (tests/z3_oracle.h), substituted through Checker::PairSession's backend seam;
//   * optimization identity: the toggles never move a restriction set;
//   * search identity: the exact width-1 dfs tallies of the four cheap apps.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/pipeline.h"
#include "src/smt/backend.h"
#include "src/smt/solver.h"
#include "src/support/thread_pool.h"
#include "src/verifier/checker.h"
#include "tests/cdcl_oracle.h"
#include "tests/z3_oracle.h"

namespace noctua {
namespace {

using oracle::CdclSearch;
using smt::BackendKind;
using smt::SolveResult;
using verifier::CheckOutcome;
using verifier::Checker;
using verifier::PathFacts;

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

// --------------------------------------------------------------------- backend factory

TEST(BackendFactoryTest, CapabilitiesMatchTheContract) {
  std::unique_ptr<smt::SolverBackend> backend = smt::MakeBackend(smt::SolverOptions{});
  EXPECT_STREQ(backend->name(), "dfs");
  EXPECT_STREQ(smt::BackendKindName(BackendKind::kDfs), "dfs");
  // The model finder retains grounding work across Checks, which is what the
  // verifier's pair sessions key on.
  EXPECT_TRUE(backend->caps().incremental);
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

// ------------------------------------------------------ dfs against the Z3 oracle

// The acceptance bar for the model finder: on every evaluated app, every query of every
// pair the prefilter does not retire (commutativity and both NotInvalidate directions,
// all three even where the verifier would stop after the first failing direction) gets
// the same verdict from dfs and from the Z3 oracle. Both decide the same bounded
// question (tests/z3_oracle.h) at the deterministic budget, under which Z3 runs to a
// verdict; the restriction sets built from the two runs are compared as well.
class BackendIdentityTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(BackendIdentityTest, RestrictionSetsAreByteIdenticalAcrossBackends) {
  if (oracle::MakeZ3Oracle(smt::SolverOptions{}) == nullptr) {
    GTEST_SKIP() << "built without Z3";
  }
  app::App a = GetParam().make();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  const std::vector<soir::CodePath> paths =
      Pipeline::Run(a, analysis_only).analysis.EffectfulPaths();

  verifier::CheckerOptions options;
  options.solver.budget.deterministic = true;
  // The sessions must take the incremental path: the legacy fallback would solve on
  // dfs whatever backend the session was given.
  options.solver.incremental = smt::Toggle::kOn;
  const Checker checker(a.schema(), options);
  std::vector<PathFacts> facts;
  std::set<int> order_models;
  for (const soir::CodePath& p : paths) {
    facts.emplace_back(a.schema(), p);
    order_models.insert(facts.back().order_models.begin(), facts.back().order_models.end());
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < facts.size(); ++i) {
    for (size_t j = i; j < facts.size(); ++j) {
      if (!checker.Prefilterable(facts[i], facts[j])) {
        pairs.emplace_back(i, j);
      }
    }
  }
  ASSERT_FALSE(pairs.empty());

  // Per pair: the com, ni(p,q) and ni(q,p) outcomes of each procedure.
  using Outcomes = std::array<CheckOutcome, 3>;
  auto decide = [&](const std::pair<size_t, size_t>& pair, Checker::BackendMaker make) {
    Checker::PairSession session(checker, facts[pair.first], facts[pair.second],
                                 &order_models, make);
    return Outcomes{session.Commutativity(), session.NotInvalidatePQ(),
                    session.NotInvalidateQP()};
  };
  std::vector<Outcomes> dfs(pairs.size());
  std::vector<Outcomes> z3(pairs.size());
  const uint64_t z3_checks_before = oracle::Z3OracleChecks();
  ThreadPool pool(4);
  pool.ParallelFor(pairs.size(), [&](size_t k) {
    dfs[k] = decide(pairs[k], smt::MakeBackend);
    z3[k] = decide(pairs[k], oracle::MakeZ3Oracle);
  });

  uint64_t solved = 0;
  std::vector<std::string> dfs_restricted;
  std::vector<std::string> z3_restricted;
  static constexpr const char* kQuery[] = {"com", "ni(p,q)", "ni(q,p)"};
  for (size_t k = 0; k < pairs.size(); ++k) {
    const std::string name =
        paths[pairs[k].first].op_name + "|" + paths[pairs[k].second].op_name;
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_STREQ(verifier::CheckOutcomeName(dfs[k][r]), verifier::CheckOutcomeName(z3[k][r]))
          << name << " " << kQuery[r];
      EXPECT_NE(dfs[k][r], CheckOutcome::kTimeout) << name << " " << kQuery[r];
      solved += dfs[k][r] != CheckOutcome::kUnsupported ? 1 : 0;
    }
    auto restricted = [](const Outcomes& o) {
      return std::any_of(o.begin(), o.end(), verifier::OutcomeRestricts);
    };
    if (restricted(dfs[k])) {
      dfs_restricted.push_back(name);
    }
    if (restricted(z3[k])) {
      z3_restricted.push_back(name);
    }
  }
  EXPECT_EQ(dfs_restricted, z3_restricted);
  // Every query that reached a solver reached Z3: no session fell back to dfs.
  EXPECT_EQ(oracle::Z3OracleChecks() - z3_checks_before, solved);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BackendIdentityTest, ::testing::ValuesIn(apps::EvaluatedApps()),
    [](const ::testing::TestParamInfo<apps::AppEntry>& info) { return info.param.name; });

// ------------------------------------------------------------ optimization identity

std::vector<std::string> VerdictLines(const verifier::RestrictionReport& report) {
  std::vector<std::string> out;
  out.reserve(report.pairs.size());
  for (const auto& v : report.pairs) {
    out.push_back(v.p + "|" + v.q + "|" + verifier::CheckOutcomeName(v.commutativity) +
                  "|" + verifier::CheckOutcomeName(v.semantic));
  }
  return out;
}

// The acceptance bar for the hot-path optimizations: on every evaluated app, turning
// incremental solving and symmetry reduction off must not move a single verdict.
class OptimizationIdentityTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(OptimizationIdentityTest, TogglesDoNotChangeTheRestrictionSet) {
  app::App a = GetParam().make();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;

  auto run = [&](smt::Toggle mode) {
    PipelineOptions options;
    options.parallel.threads = 2;
    options.checker.solver.budget.deterministic = true;
    options.checker.solver.symmetry = mode;
    options.checker.solver.incremental = mode;
    return Pipeline::Verify(a, analysis, options);
  };

  verifier::RestrictionReport off = run(smt::Toggle::kOff);
  ASSERT_FALSE(off.pairs.empty());
  // The toggles are really off: nothing was reused or pruned.
  EXPECT_EQ(off.stats.incremental_reuse_hits, 0u);
  EXPECT_EQ(off.stats.symmetry_pruned, 0u);
  std::vector<std::string> expected = VerdictLines(off);

  verifier::RestrictionReport on = run(smt::Toggle::kOn);
  EXPECT_EQ(VerdictLines(on), expected);
  EXPECT_EQ(on.RestrictedPairNames(), off.RestrictedPairNames());
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
