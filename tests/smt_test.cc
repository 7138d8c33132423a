// Unit tests for the SMT substrate: sorts, term construction/simplification, evaluation,
// the atom-mask filter of the substitution helpers, and the solver (every solver test
// runs against the model finder and the two test-only reference procedures: the CDCL
// procedure of tests/cdcl_oracle.h and the Z3 oracle of tests/z3_oracle.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>

#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/smt/backend.h"
#include "src/smt/eval.h"
#include "src/smt/ground.h"
#include "src/smt/solver.h"
#include "src/smt/sort.h"
#include "src/smt/term.h"
#include "src/verifier/encoder.h"
#include "tests/cdcl_oracle.h"
#include "tests/z3_oracle.h"

namespace noctua::smt {
namespace {

class TermTest : public ::testing::Test {
 protected:
  TermFactory f;
};

TEST(SortTest, ScalarSingletons) {
  EXPECT_EQ(BoolSort().get(), BoolSort().get());
  EXPECT_EQ(IntSort().get(), IntSort().get());
  EXPECT_TRUE(SortEq(RefSort(3), RefSort(3)));
  EXPECT_FALSE(SortEq(RefSort(3), RefSort(4)));
}

TEST(SortTest, CompositeStructure) {
  Sort arr = ArraySort(RefSort(0), IntSort());
  EXPECT_TRUE(arr->is_array());
  EXPECT_TRUE(SortEq(arr->index_sort(), RefSort(0)));
  EXPECT_TRUE(SortEq(arr->element_sort(), IntSort()));
  EXPECT_TRUE(SetSort(RefSort(1))->is_set());
  EXPECT_FALSE(ArraySort(RefSort(1), IntSort())->is_set());
}

TEST(SortTest, PairRequiresRefs) {
  Sort p = PairSort(RefSort(0), RefSort(1));
  EXPECT_TRUE(p->is_pair());
  EXPECT_TRUE(p->is_finite_domain());
  EXPECT_FALSE(IntSort()->is_finite_domain());
}

TEST(SortTest, ToStringIsReadable) {
  EXPECT_EQ(RefSort(2)->ToString(), "Ref<2>");
  EXPECT_EQ(ArraySort(RefSort(0), BoolSort())->ToString(), "Array<Ref<0>,Bool>");
}

TEST_F(TermTest, HashConsingMakesEqualTermsPointerEqual) {
  Term a = f.Add(f.Const("x", IntSort()), f.IntLit(1));
  Term b = f.Add(f.Const("x", IntSort()), f.IntLit(1));
  EXPECT_EQ(a, b);
}

TEST_F(TermTest, ConstantFolding) {
  EXPECT_EQ(f.Add(f.IntLit(2), f.IntLit(3)), f.IntLit(5));
  EXPECT_EQ(f.Sub(f.IntLit(2), f.IntLit(3)), f.IntLit(-1));
  EXPECT_EQ(f.Mul(f.IntLit(4), f.IntLit(3)), f.IntLit(12));
  EXPECT_EQ(f.Neg(f.IntLit(7)), f.IntLit(-7));
  EXPECT_EQ(f.Concat(f.StrLit("ab"), f.StrLit("cd")), f.StrLit("abcd"));
  EXPECT_EQ(f.Lt(f.IntLit(1), f.IntLit(2)), f.True());
  EXPECT_EQ(f.Le(f.IntLit(3), f.IntLit(2)), f.False());
}

TEST_F(TermTest, NeutralElements) {
  Term x = f.Const("x", IntSort());
  EXPECT_EQ(f.Add(x, f.IntLit(0)), x);
  EXPECT_EQ(f.Mul(x, f.IntLit(1)), x);
  EXPECT_EQ(f.Mul(x, f.IntLit(0)), f.IntLit(0));
  EXPECT_EQ(f.Sub(x, x), f.IntLit(0));
  Term s = f.Const("s", StringSort());
  EXPECT_EQ(f.Concat(s, f.StrLit("")), s);
}

TEST_F(TermTest, BooleanSimplification) {
  Term p = f.Const("p", BoolSort());
  EXPECT_EQ(f.And(p, f.True()), p);
  EXPECT_EQ(f.And(p, f.False()), f.False());
  EXPECT_EQ(f.Or(p, f.False()), p);
  EXPECT_EQ(f.Or(p, f.True()), f.True());
  EXPECT_EQ(f.Not(f.Not(p)), p);
  EXPECT_EQ(f.And(p, f.Not(p)), f.False());
  EXPECT_EQ(f.Or(p, f.Not(p)), f.True());
  EXPECT_EQ(f.And(p, p), p);
}

TEST_F(TermTest, AndFlattens) {
  Term p = f.Const("p", BoolSort());
  Term q = f.Const("q", BoolSort());
  Term r = f.Const("r", BoolSort());
  Term nested = f.And(f.And(p, q), r);
  EXPECT_EQ(nested->kind(), TermKind::kAnd);
  EXPECT_EQ(nested->children().size(), 3u);
}

TEST_F(TermTest, EqSimplification) {
  Term x = f.Const("x", IntSort());
  EXPECT_EQ(f.Eq(x, x), f.True());
  EXPECT_EQ(f.Eq(f.IntLit(1), f.IntLit(1)), f.True());
  EXPECT_EQ(f.Eq(f.IntLit(1), f.IntLit(2)), f.False());
  EXPECT_EQ(f.Eq(f.StrLit("a"), f.StrLit("b")), f.False());
  // Equality is canonically ordered, so both orders intern to the same term.
  Term y = f.Const("y", IntSort());
  EXPECT_EQ(f.Eq(x, y), f.Eq(y, x));
}

TEST_F(TermTest, TupleProjAndWith) {
  Term t = f.MkTuple({f.IntLit(1), f.StrLit("a")});
  EXPECT_EQ(f.Proj(t, 0), f.IntLit(1));
  EXPECT_EQ(f.Proj(t, 1), f.StrLit("a"));
  Term t2 = f.TupleWith(t, 0, f.IntLit(9));
  EXPECT_EQ(f.Proj(t2, 0), f.IntLit(9));
  EXPECT_EQ(f.Proj(t2, 1), f.StrLit("a"));
}

TEST_F(TermTest, TupleEqDecomposes) {
  Term a = f.MkTuple({f.Const("x", IntSort()), f.IntLit(1)});
  Term b = f.MkTuple({f.IntLit(5), f.IntLit(1)});
  Term eq = f.Eq(a, b);
  // (x, 1) == (5, 1)  simplifies to x == 5.
  EXPECT_EQ(eq, f.Eq(f.Const("x", IntSort()), f.IntLit(5)));
}

TEST_F(TermTest, SelectOverStore) {
  Sort arr_sort = ArraySort(RefSort(0), IntSort());
  Term a = f.Const("a", arr_sort);
  Term i = f.RefLit(RefSort(0), 0);
  Term j = f.RefLit(RefSort(0), 1);
  Term stored = f.Store(a, i, f.IntLit(42));
  EXPECT_EQ(f.Select(stored, i), f.IntLit(42));
  EXPECT_EQ(f.Select(stored, j), f.Select(a, j));
}

TEST_F(TermTest, SelectOverConstArray) {
  Term k = f.ConstArray(RefSort(0), f.IntLit(7));
  EXPECT_EQ(f.Select(k, f.Const("i", RefSort(0))), f.IntLit(7));
}

TEST_F(TermTest, StoreOfSameSelectIsIdentity) {
  Sort arr_sort = ArraySort(RefSort(0), IntSort());
  Term a = f.Const("a", arr_sort);
  Term i = f.Const("i", RefSort(0));
  EXPECT_EQ(f.Store(a, i, f.Select(a, i)), a);
}

TEST_F(TermTest, LambdaBetaReduction) {
  Term v = f.NewBoundVar(RefSort(0));
  Term lam = f.ArrayLambda(v, f.Add(f.Select(f.Const("ord", ArraySort(RefSort(0), IntSort())), v),
                                    f.IntLit(1)));
  Term idx = f.RefLit(RefSort(0), 1);
  Term sel = f.Select(lam, idx);
  // select(λx. ord[x]+1, #1) beta-reduces to ord[#1]+1.
  EXPECT_EQ(sel, f.Add(f.Select(f.Const("ord", ArraySort(RefSort(0), IntSort())), idx),
                       f.IntLit(1)));
}

TEST_F(TermTest, DistinctLiteralFolding) {
  EXPECT_EQ(f.Distinct({f.IntLit(1), f.IntLit(2), f.IntLit(3)}), f.True());
  EXPECT_EQ(f.Distinct({f.IntLit(1), f.IntLit(1)}), f.False());
  EXPECT_EQ(f.Distinct({f.IntLit(1)}), f.True());
}

TEST_F(TermTest, PairAccessors) {
  Term p = f.MkPair(f.RefLit(RefSort(0), 1), f.RefLit(RefSort(1), 0));
  EXPECT_EQ(f.Fst(p), f.RefLit(RefSort(0), 1));
  EXPECT_EQ(f.Snd(p), f.RefLit(RefSort(1), 0));
}

// --- Evaluation ---------------------------------------------------------------------------

class EvalTest : public ::testing::Test {
 protected:
  Value EvalClosed(Term t) {
    Scope scope(2);
    AtomTable atoms(scope, {t});
    std::vector<Value> empty_assignment(atoms.size());
    Evaluator ev(scope, atoms, empty_assignment);
    return ev.Eval(t);
  }

  TermFactory f;
};

TEST_F(EvalTest, GroundArithmetic) {
  // Build a non-simplified ground term by mixing a const that cancels.
  Term t = f.Add(f.Mul(f.IntLit(3), f.IntLit(4)), f.IntLit(5));
  Value v = EvalClosed(t);
  EXPECT_EQ(v.int_v(), 17);
}

TEST_F(EvalTest, UnknownConstPropagates) {
  Term x = f.Const("x", IntSort());
  Value v = EvalClosed(f.Add(x, f.IntLit(1)));
  EXPECT_TRUE(v.is_unknown());
}

TEST_F(EvalTest, ThreeValuedAndShortCircuits) {
  Term x = f.Const("x", BoolSort());
  // x AND false is false even though x is unknown; built via Intern path (no simplifier)
  // would be ideal, but the simplifier already folds this — evaluate Or instead.
  Value v = EvalClosed(f.And(x, f.Const("y", BoolSort())));
  EXPECT_TRUE(v.is_unknown());
  // Mul by zero short-circuits unknowns.
  Term m = f.Mul(f.Const("k", IntSort()), f.Sub(f.Const("a", IntSort()), f.Const("a", IntSort())));
  EXPECT_EQ(EvalClosed(m).int_v(), 0);
}

TEST_F(EvalTest, ForallOverScope) {
  // forall x:Ref<0>. x == x  -> true (trivially, via simplifier); use a data array.
  Term data = f.Const("d", ArraySort(RefSort(0), IntSort()));
  Term v0 = f.NewBoundVar(RefSort(0));
  Term all_eq = f.Forall(v0, f.Eq(f.Select(data, v0), f.Select(data, v0)));
  EXPECT_EQ(EvalClosed(all_eq).bool_v(), true);
}

TEST_F(EvalTest, CountAndSumOverStoredSets) {
  Sort rs = RefSort(0);
  Term set = f.SetAdd(f.SetAdd(f.EmptySet(rs), f.RefLit(rs, 0)), f.RefLit(rs, 1));
  Term v = f.NewBoundVar(rs);
  Term count = f.Count(v, f.Member(v, set));
  EXPECT_EQ(EvalClosed(count).int_v(), 2);

  Term one_removed = f.SetRemove(set, f.RefLit(rs, 0));
  Term v2 = f.NewBoundVar(rs);
  EXPECT_EQ(EvalClosed(f.Count(v2, f.Member(v2, one_removed))).int_v(), 1);
}

TEST_F(EvalTest, SumAggregatesValues) {
  Sort rs = RefSort(0);
  Term data = f.Store(f.Store(f.ConstArray(rs, f.IntLit(0)), f.RefLit(rs, 0), f.IntLit(10)),
                      f.RefLit(rs, 1), f.IntLit(32));
  Term v = f.NewBoundVar(rs);
  Term sum = f.Sum(v, f.True(), f.Select(data, v));
  EXPECT_EQ(EvalClosed(sum).int_v(), 42);
}

TEST_F(EvalTest, MinMaxAggAndArgExtreme) {
  Sort rs = RefSort(0);
  Term key = f.Store(f.Store(f.ConstArray(rs, f.IntLit(0)), f.RefLit(rs, 0), f.IntLit(5)),
                     f.RefLit(rs, 1), f.IntLit(3));
  Term v1 = f.NewBoundVar(rs);
  EXPECT_EQ(EvalClosed(f.MinAgg(v1, f.True(), f.Select(key, v1))).int_v(), 3);
  Term v2 = f.NewBoundVar(rs);
  EXPECT_EQ(EvalClosed(f.MaxAgg(v2, f.True(), f.Select(key, v2))).int_v(), 5);
  Term v3 = f.NewBoundVar(rs);
  Value first = EvalClosed(f.ArgExtreme(v3, f.True(), f.Select(key, v3), /*want_max=*/false));
  EXPECT_EQ(first.int_v(), 1);  // element #1 has the smaller key
  Term v4 = f.NewBoundVar(rs);
  Value last = EvalClosed(f.ArgExtreme(v4, f.True(), f.Select(key, v4), /*want_max=*/true));
  EXPECT_EQ(last.int_v(), 0);
}

TEST_F(EvalTest, EmptyAggregatesDefaultToZero) {
  Term v = f.NewBoundVar(RefSort(0));
  EXPECT_EQ(EvalClosed(f.Sum(v, f.False(), f.IntLit(9))).int_v(), 0);
}

TEST_F(EvalTest, SetOperations) {
  Sort rs = RefSort(0);
  Term a = f.SetAdd(f.EmptySet(rs), f.RefLit(rs, 0));
  Term b = f.SetAdd(f.EmptySet(rs), f.RefLit(rs, 1));
  Term u = f.SetUnion(a, b);
  Term v = f.NewBoundVar(rs);
  EXPECT_EQ(EvalClosed(f.Count(v, f.Member(v, u))).int_v(), 2);
  EXPECT_EQ(EvalClosed(f.SetIsEmpty(f.SetIntersect(a, b))).bool_v(), true);
  EXPECT_EQ(EvalClosed(f.SetSubset(a, u)).bool_v(), true);
  EXPECT_EQ(EvalClosed(f.SetSubset(u, a)).bool_v(), false);
  EXPECT_EQ(EvalClosed(f.SetEq(f.SetDifference(u, b), a)).bool_v(), true);
}

TEST(AtomTableTest, DecomposesCompositeConstants) {
  TermFactory f;
  Scope scope(2);
  Sort obj = TupleSort({IntSort(), StringSort()});
  Term data = f.Const("data", ArraySort(RefSort(0), obj));
  Term ids = f.Const("ids", SetSort(RefSort(0)));
  Term x = f.Const("x", IntSort());
  AtomTable atoms(scope, {f.And(f.Member(f.Const("r", RefSort(0)), ids),
                                f.Eq(f.Proj(f.Select(data, f.Const("r", RefSort(0))), 0), x))});
  // r: 1 atom; ids: 2 bool atoms; data: 2 elems * 2 fields = 4 atoms; x: 1 atom.
  EXPECT_EQ(atoms.size(), 8u);
  EXPECT_GE(atoms.Find(ids, 1, -1), 0);
  EXPECT_GE(atoms.Find(data, 0, 1), 0);
  EXPECT_EQ(atoms.Find(data, 0, 5), -1);
}

// --- Filtered substitution ---------------------------------------------------------------

constexpr uint64_t kAllAtoms = ~uint64_t{0};

TEST_F(TermTest, AtomMasksSummarizeContainedGroundAtoms) {
  Sort rs = RefSort(0);
  Term data = f.Const("data", ArraySort(rs, IntSort()));
  Term x = f.Const("x", rs);
  Term n = f.Const("n", IntSort());
  Term cell = f.Select(data, f.RefLit(rs, 0));
  EXPECT_TRUE(x->is_ground_atom());
  EXPECT_TRUE(cell->is_ground_atom());
  EXPECT_FALSE(data->is_ground_atom());  // arrays are not atoms; their cells are
  EXPECT_FALSE(f.Select(data, x)->is_ground_atom());
  EXPECT_EQ(data->atom_mask(), 0u);
  EXPECT_EQ(f.IntLit(3)->atom_mask(), 0u);
  // Each atom owns one bit (round-robin), and a term's mask is the OR over its atoms.
  EXPECT_EQ(__builtin_popcountll(x->atom_mask()), 1);
  EXPECT_NE(x->atom_mask(), cell->atom_mask());
  Term sum = f.Add(cell, n);
  EXPECT_EQ(sum->atom_mask(), cell->atom_mask() | n->atom_mask());
  EXPECT_EQ(f.Lt(f.Select(data, x), n)->atom_mask(), x->atom_mask() | n->atom_mask());
}

// The grounded commutativity query of one pair of effectful paths, flattened into the
// conjuncts the DFS model finder starts from.
std::vector<Term> GroundedPairQuery(TermFactory& f, const app::App& app,
                                    const soir::CodePath& p, const soir::CodePath& q,
                                    const Scope& scope) {
  verifier::EncoderOptions options;
  options.order_models = verifier::Encoder::OrderRelevantModels(p);
  std::set<int> oq = verifier::Encoder::OrderRelevantModels(q);
  options.order_models.insert(oq.begin(), oq.end());
  verifier::Encoder enc(app.schema(), &f, options);
  verifier::EncState s0 = enc.FreshState("S0");
  verifier::Encoder::PathResult pq1 = enc.ApplyPath(p, s0, "x");
  verifier::Encoder::PathResult pq2 = enc.ApplyPath(q, pq1.post, "y");
  verifier::Encoder::PathResult qp1 = enc.ApplyPath(q, s0, "y");
  verifier::Encoder::PathResult qp2 = enc.ApplyPath(p, qp1.post, "x");
  std::vector<Term> raw = {f.Not(enc.StateEq(pq2.post, qp2.post, options.order_models)),
                           enc.UniqueIdAxiom(s0), pq1.pre, qp1.pre, pq2.pre, qp2.pre,
                           enc.StateAxioms(s0)};
  for (Term d : {pq1.defs, pq2.defs, qp1.defs, qp2.defs}) {
    if (d != nullptr) {
      raw.push_back(d);
    }
  }
  Grounder g(&f, scope);
  std::vector<Term> out;
  if (!GroundAndFlatten(g, f, raw, &out)) {
    out.clear();
  }
  return out;
}

// (a) Random DFS-style descents over real grounded queries: after each decision the
// frame's residuals are substituted twice through the same helper — filtered on the
// decided atom (then the trail), as the model finder does, and with an all-ones mask,
// which filters nothing. The results must be pointer-equal conjunct by conjunct.
TEST(FilteredSubstTest, DecidedAtomFilterMatchesWholeTrailOnAppQueries) {
  const Scope scope(2);
  size_t compared = 0;
  size_t skipped = 0;
  for (const char* name : {"Todo", "SmallBank"}) {
    SCOPED_TRACE(name);
    const std::vector<apps::AppEntry> all = apps::EvaluatedApps();
    auto entry = std::find_if(all.begin(), all.end(),
                              [&](const apps::AppEntry& e) { return e.name == name; });
    ASSERT_NE(entry, all.end());
    app::App app = entry->make();
    analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(app);
    const std::vector<soir::CodePath>& paths = analysis.EffectfulPaths();
    std::mt19937_64 rng(0x5eed);
    size_t pairs = 0;
    for (size_t i = 0; i < paths.size() && pairs < 8; ++i) {
      for (size_t j = i; j < paths.size() && pairs < 8; ++j, ++pairs) {
        TermFactory f;
        const std::vector<Term> grounded = GroundedPairQuery(f, app, paths[i], paths[j], scope);
        ValueDomains domains;
        domains.Harvest(grounded, 8, 6);
        for (int walk = 0; walk < 6; ++walk) {
          std::vector<Term> pending = grounded;
          std::unordered_map<Term, Term> values;
          uint64_t trail_mask = 0;
          std::unordered_map<Term, Term> atom_memo;
          while (!pending.empty()) {
            Term atom = nullptr;
            for (Term a : pending) {
              if ((atom = FindFirstAtom(a, atom_memo)) != nullptr) {
                break;
              }
            }
            ASSERT_NE(atom, nullptr);
            ASSERT_EQ(values.count(atom), 0u) << "a residual kept an assigned atom";
            std::vector<Term> lits = domains.LiteralsFor(f, scope, atom);
            values[atom] = lits[rng() % lits.size()];
            trail_mask |= atom->atom_mask();
            std::unordered_map<Term, Term> memo_filtered;
            std::unordered_map<Term, Term> memo_whole;
            std::vector<Term> next;
            bool conflict = false;
            for (Term a : pending) {
              bool capped = false;
              Term filtered = SubstFixpoint(f, a, values, atom->atom_mask(), trail_mask,
                                            memo_filtered, &capped);
              Term whole = SubstFixpoint(f, a, values, kAllAtoms, kAllAtoms, memo_whole);
              ASSERT_EQ(filtered, whole) << a->ToString();
              ASSERT_FALSE(capped);
              ++compared;
              skipped += (a->atom_mask() & atom->atom_mask()) == 0 ? 1 : 0;
              if (whole->IsBoolLit(false)) {
                conflict = true;
                break;
              }
              if (whole->kind() == TermKind::kAnd) {
                next.insert(next.end(), whole->children().begin(), whole->children().end());
              } else if (!whole->IsBoolLit(true)) {
                next.push_back(whole);
              }
            }
            if (conflict) {
              break;
            }
            pending = std::move(next);
          }
        }
      }
    }
  }
  // The descents really exercised the filter: many comparisons, most of them on
  // conjuncts the decided atom does not touch.
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(skipped, compared / 2);
}

// A residual that is a fixpoint under {y := #0, objs[#0].1 := 9} and then decides
// x := #0. Select-over-store hands back the stored tuple, and projecting field 1 out of
// it rebuilds objs[#0].1 — an already-assigned cell — inside a fresh term, which round 0
// (filtered on x alone) does not revisit. The later rounds, filtered on the whole trail,
// substitute it; filtering them on x too would leave the assigned cell behind.
TEST_F(TermTest, RefAssignmentMaterializesAnAssignedCell) {
  Sort rs = RefSort(0);
  Sort obj = TupleSort({IntSort(), IntSort()});
  Term objs = f.Const("objs", ArraySort(rs, obj));
  Term x = f.Const("x", rs);
  Term c = f.Const("c", BoolSort());
  Term r0 = f.RefLit(rs, 0);
  Term stored = f.Ite(c, f.MkTuple({f.IntLit(1), f.IntLit(2)}), f.Select(objs, r0));
  Term field = f.Proj(f.Select(f.Store(objs, r0, stored), x), 1);
  Term residual = f.Lt(field, f.IntLit(5));
  Term cell = f.Proj(f.Select(objs, r0), 1);
  ASSERT_TRUE(cell->is_ground_atom());
  ASSERT_EQ(residual->atom_mask() & cell->atom_mask(), 0u);  // the cell is not there yet
  ASSERT_EQ(x->atom_mask() & cell->atom_mask(), 0u);         // and x's bit does not cover it

  std::unordered_map<Term, Term> values = {{cell, f.IntLit(9)}, {x, r0}};
  const uint64_t trail = KeyMask(values);
  std::unordered_map<Term, Term> memo;
  Term round0 = SubstGround(f, residual, values, x->atom_mask(), memo);
  EXPECT_NE(round0->atom_mask() & cell->atom_mask(), 0u) << round0->ToString();

  std::unordered_map<Term, Term> memo_f, memo_w, memo_x;
  Term filtered = SubstFixpoint(f, residual, values, x->atom_mask(), trail, memo_f);
  Term whole = SubstFixpoint(f, residual, values, kAllAtoms, kAllAtoms, memo_w);
  EXPECT_EQ(filtered, whole);
  EXPECT_EQ(whole, f.Lt(f.Ite(c, f.IntLit(2), f.IntLit(9)), f.IntLit(5)));
  EXPECT_NE(SubstFixpoint(f, residual, values, x->atom_mask(), x->atom_mask(), memo_x),
            whole);
}

// Builds `depth` nested copies of the materialization above over a Ref-valued field:
// with objs[#0].0 := #0 every substitution round peels exactly one level, so
// SubstFixpoint gives up after kSubstRounds rounds with an assigned cell still inside.
Term MaterializationChain(TermFactory& f, Term objs, Term x, Term c, int depth) {
  Sort rs = RefSort(0);
  Term r0 = f.RefLit(rs, 0);
  Term stored = f.Ite(c, f.MkTuple({r0, f.IntLit(1)}), f.Select(objs, r0));
  Term idx = x;
  for (int i = 0; i < depth; ++i) {
    idx = f.Proj(f.Select(f.Store(objs, r0, stored), idx), 0);
  }
  return f.Eq(idx, f.Const("z", rs));
}

// (c) A frame whose parent hit the round cap holds residuals that are not a fixpoint
// under the trail below it, so its first round must filter on the whole trail: filtering
// on the decided atom alone would skip the assigned cell the capped round left behind.
TEST_F(TermTest, CappedResidualNeedsTheWholeTrailMask) {
  Sort rs = RefSort(0);
  Sort obj = TupleSort({rs, IntSort()});
  Term objs = f.Const("objs", ArraySort(rs, obj));
  Term x = f.Const("x", rs);
  Term c = f.Const("c", BoolSort());
  Term r0 = f.RefLit(rs, 0);
  Term conjunct = MaterializationChain(f, objs, x, c, kSubstRounds + 4);
  Term cell = f.Proj(f.Select(objs, r0), 0);
  ASSERT_TRUE(cell->is_ground_atom());

  // The parent frame decides x with objs[#0].0 := #0 already on the trail, and caps.
  std::unordered_map<Term, Term> values = {{cell, r0}, {x, r0}};
  uint64_t trail = KeyMask(values);
  std::unordered_map<Term, Term> memo;
  bool capped = false;
  Term residual = SubstFixpoint(f, conjunct, values, x->atom_mask(), trail, memo, &capped);
  ASSERT_TRUE(capped);
  ASSERT_NE(residual->atom_mask() & cell->atom_mask(), 0u);

  // The child frame decides an atom of another conjunct.
  Term flag = f.Const("flag", BoolSort());
  ASSERT_EQ(flag->atom_mask() & residual->atom_mask(), 0u);
  values[flag] = f.True();
  trail |= flag->atom_mask();
  std::unordered_map<Term, Term> memo_decided, memo_trail, memo_whole;
  Term decided_only = SubstFixpoint(f, residual, values, flag->atom_mask(), trail, memo_decided);
  Term fallback = SubstFixpoint(f, residual, values, trail, trail, memo_trail);
  Term whole = SubstFixpoint(f, residual, values, kAllAtoms, kAllAtoms, memo_whole);
  EXPECT_EQ(fallback, whole);
  EXPECT_EQ(decided_only, residual);  // nothing mentions `flag`: the capped work stalls
  EXPECT_NE(decided_only, whole);
}

// The same chain inside a model finder search: deciding objs[#0].0 := #0 and x := #0
// caps the chain conjunct's substitution, and the frames below must keep peeling it with
// the whole-trail mask. Every level resolves to #0, so z = #0 is forced.
TEST(DfsCapTest, SearchThroughACappedFrameKeepsTheVerdict) {
  for (bool z_is_zero : {true, false}) {
    TermFactory f;
    Sort rs = RefSort(0);
    Term objs = f.Const("objs", ArraySort(rs, TupleSort({rs, IntSort()})));
    Term x = f.Const("x", rs);
    Term r0 = f.RefLit(rs, 0);
    Term chain = MaterializationChain(f, objs, x, f.Const("c", BoolSort()), kSubstRounds + 4);
    Term z = f.Const("z", rs);
    SolverOptions options;
    options.budget.deterministic = true;
    Solver solver(options);
    SolveResult r = solver.CheckSat(
        f, {f.Eq(f.Proj(f.Select(objs, r0), 0), r0), f.Eq(x, r0), chain,
            z_is_zero ? f.Eq(z, r0) : f.Neq(z, r0)});
    EXPECT_EQ(r, z_is_zero ? SolveResult::kSat : SolveResult::kUnsat);
  }
}

// --- Solver -------------------------------------------------------------------------------

// The decision procedures every solver-behavior test runs on: the production model
// finder, the CDCL reference procedure, and the Z3 oracle. dfs and cdcl keep the values
// BackendKind gave them, so their parameter printouts stay stable.
enum class Procedure : uint8_t { kDfs = 1, kCdcl = 2, kZ3 = 3 };

std::string ProcedureName(Procedure p) {
  switch (p) {
    case Procedure::kDfs:
      return "dfs";
    case Procedure::kCdcl:
      return "cdcl";
    case Procedure::kZ3:
      return "z3";
  }
  return "?";
}

std::unique_ptr<SolverBackend> MakeProcedure(Procedure p, const SolverOptions& options) {
  switch (p) {
    case Procedure::kDfs:
      return MakeBackend(options);
    case Procedure::kCdcl:
      return oracle::MakeCdclOracle(options);
    case Procedure::kZ3:
      return oracle::MakeZ3Oracle(options);
  }
  return nullptr;
}

bool Unavailable(Procedure p) {
  return p == Procedure::kZ3 && oracle::MakeZ3Oracle(SolverOptions{}) == nullptr;
}

// Every solver-behavior test runs against all three procedures: the same queries must
// get the same verdicts from each of them over the same bounded domains.
class SolverTest : public ::testing::TestWithParam<Procedure> {
 protected:
  void SetUp() override {
    if (Unavailable(GetParam())) {
      GTEST_SKIP() << "built without Z3";
    }
  }

  SolveResult Check(const std::vector<Term>& assertions) {
    std::unique_ptr<SolverBackend> backend = MakeProcedure(GetParam(), options);
    last_model.values.clear();
    backend->AssertAll(assertions);
    SolveResult r = backend->Check(f);
    if (r == SolveResult::kSat) {
      last_model = backend->model();
    }
    return r;
  }

  TermFactory f;
  SolverOptions options;
  SmtModel last_model;
};

TEST_P(SolverTest, TrivialSatAndUnsat) {
  Term x = f.Const("x", IntSort());
  EXPECT_EQ(Check({f.Eq(x, f.IntLit(3))}), SolveResult::kSat);
  EXPECT_EQ(Check({f.Eq(x, f.IntLit(3)), f.Eq(x, f.IntLit(4))}), SolveResult::kUnsat);
}

TEST_P(SolverTest, GroundContradiction) {
  EXPECT_EQ(Check({f.Const("p", BoolSort()), f.Not(f.Const("p", BoolSort()))}),
            SolveResult::kUnsat);
}

TEST_P(SolverTest, ArithmeticWitness) {
  Term x = f.Const("x", IntSort());
  Term y = f.Const("y", IntSort());
  // x + y == 3 and x < y has a witness with the harvested domain {.., 2, 3, 4}.
  EXPECT_EQ(Check({f.Eq(f.Add(x, y), f.IntLit(3)), f.Lt(x, y)}), SolveResult::kSat);
}

TEST_P(SolverTest, IntOutsideHarvestedDomainIsUnsat) {
  Term x = f.Const("x", IntSort());
  Term y = f.Const("y", IntSort());
  // Over the integers x = 10 is a witness, but the harvested domain is {0, 1, 4, 5, 6}:
  // every procedure decides the bounded question, so each must refute.
  EXPECT_EQ(Check({f.Eq(y, f.IntLit(5)), f.Eq(x, f.Add(y, f.IntLit(5)))}),
            SolveResult::kUnsat);
}

TEST_P(SolverTest, RefDistinctBeyondScopeIsUnsat) {
  Term a = f.Const("a", RefSort(0));
  Term b = f.Const("b", RefSort(0));
  Term c = f.Const("c", RefSort(0));
  // Scope is 2, so three pairwise-distinct refs cannot exist.
  EXPECT_EQ(Check({f.Distinct({a, b, c})}), SolveResult::kUnsat);
  options.scope.SetModelSize(0, 3);
  EXPECT_EQ(Check({f.Distinct({a, b, c})}), SolveResult::kSat);
}

TEST_P(SolverTest, SetReasoning) {
  Sort rs = RefSort(0);
  Term s = f.Const("s", SetSort(rs));
  Term e = f.Const("e", rs);
  // e ∈ s and s ⊆ ∅ is unsat.
  EXPECT_EQ(Check({f.Member(e, s), f.SetSubset(s, f.EmptySet(rs))}), SolveResult::kUnsat);
  // e ∈ s and s ⊆ {e} is sat.
  EXPECT_EQ(Check({f.Member(e, s), f.SetSubset(s, f.SetAdd(f.EmptySet(rs), e))}),
            SolveResult::kSat);
}

TEST_P(SolverTest, ArrayWellFormedness) {
  // data[i].0 == i for all i, and two members with equal field-0 must be the same element.
  Sort rs = RefSort(0);
  Sort obj = TupleSort({rs, IntSort()});
  Term data = f.Const("data", ArraySort(rs, obj));
  Term ids = f.Const("ids", SetSort(rs));
  Term v = f.NewBoundVar(rs);
  Term wf = f.Forall(v, f.Eq(f.Proj(f.Select(data, v), 0), v));
  Term x = f.Const("x", rs);
  Term y = f.Const("y", rs);
  Term both_in = f.And(f.Member(x, ids), f.Member(y, ids));
  Term same_pk = f.Eq(f.Proj(f.Select(data, x), 0), f.Proj(f.Select(data, y), 0));
  EXPECT_EQ(Check({wf, both_in, same_pk, f.Neq(x, y)}), SolveResult::kUnsat);
}

TEST_P(SolverTest, StringWitnessUsesFreshSymbols) {
  Term s = f.Const("s", StringSort());
  // s != every literal in the formula: satisfiable thanks to fresh symbols.
  EXPECT_EQ(Check({f.Neq(s, f.StrLit("alice")), f.Neq(s, f.StrLit("bob"))}), SolveResult::kSat);
}

TEST_P(SolverTest, TimeoutReturnsUnknown) {
  // A formula engineered to be hard: many int unknowns with only a global constraint that
  // cannot be pruned locally, under a tiny timeout.
  std::vector<Term> xs;
  Term sum = f.IntLit(0);
  for (int i = 0; i < 24; ++i) {
    Term x = f.Const("x" + std::to_string(i), IntSort());
    xs.push_back(x);
    sum = f.Add(sum, f.Mul(x, x));
  }
  options.budget.timeout_seconds = 0.02;
  options.max_int_domain = 8;
  // sum of squares == 9999 is unsatisfiable over the small domain but requires exhausting
  // a large space; with the small timeout the solver must give up.
  SolveResult r = Check({f.Eq(sum, f.IntLit(9999)), f.Lt(xs[0], xs[1])});
  EXPECT_EQ(r, SolveResult::kUnknown);
}

TEST_P(SolverTest, ModelIsReturnedAndConsistent) {
  Term x = f.Const("x", IntSort());
  Term p = f.Const("p", BoolSort());
  ASSERT_EQ(Check({f.Eq(x, f.IntLit(7)), p}), SolveResult::kSat);
  EXPECT_EQ(last_model.values.at("x"), "7");
  EXPECT_EQ(last_model.values.at("p"), "true");
}

TEST_P(SolverTest, CommutativityStyleQuery) {
  // A miniature commutativity check: two increments commute (unsat = no counterexample),
  // increment and assignment do not (sat = counterexample exists).
  Sort rs = RefSort(0);
  Sort obj = TupleSort({IntSort()});
  Term data = f.Const("data", ArraySort(rs, obj));
  Term r1 = f.Const("r1", rs);
  Term r2 = f.Const("r2", rs);

  auto incr = [&](Term d, Term at) {
    return f.Store(d, at, f.MkTuple({f.Add(f.Proj(f.Select(d, at), 0), f.IntLit(1))}));
  };
  auto assign = [&](Term d, Term at, Term v) { return f.Store(d, at, f.MkTuple({v})); };

  // incr;incr vs incr;incr (different order, same ops): always equal.
  Term ab = incr(incr(data, r1), r2);
  Term ba = incr(incr(data, r2), r1);
  Term var = f.NewBoundVar(rs);
  Term differs = f.Not(f.Forall(var, f.Eq(f.Select(ab, var), f.Select(ba, var))));
  EXPECT_EQ(Check({differs}), SolveResult::kUnsat);

  // incr;assign vs assign;incr: differs when r1 == r2.
  Term arg = f.Const("v", IntSort());
  Term pq = assign(incr(data, r1), r2, arg);
  Term qp = incr(assign(data, r2, arg), r1);
  Term var2 = f.NewBoundVar(rs);
  Term differs2 = f.Not(f.Forall(var2, f.Eq(f.Select(pq, var2), f.Select(qp, var2))));
  EXPECT_EQ(Check({differs2}), SolveResult::kSat);
}

INSTANTIATE_TEST_SUITE_P(Backends, SolverTest,
                         ::testing::Values(Procedure::kDfs, Procedure::kCdcl, Procedure::kZ3),
                         [](const ::testing::TestParamInfo<Procedure>& info) {
                           return ProcedureName(info.param);
                         });

// Parameterized sweep: solver scope sizes behave consistently, on every procedure.
class ScopeSweepTest : public ::testing::TestWithParam<std::tuple<int, Procedure>> {};

TEST_P(ScopeSweepTest, PigeonholePrinciple) {
  // k+1 pairwise distinct refs never fit in a scope of k; k do.
  auto [k, procedure] = GetParam();
  if (Unavailable(procedure)) {
    GTEST_SKIP() << "built without Z3";
  }
  TermFactory f;
  SolverOptions options;
  options.scope = Scope(k);
  std::vector<Term> refs;
  for (int i = 0; i <= k; ++i) {
    refs.push_back(f.Const("r" + std::to_string(i), RefSort(0)));
  }
  std::unique_ptr<SolverBackend> backend = MakeProcedure(procedure, options);
  backend->AssertAll({f.Distinct(refs)});
  EXPECT_EQ(backend->Check(f), SolveResult::kUnsat);
  refs.pop_back();
  std::unique_ptr<SolverBackend> backend2 = MakeProcedure(procedure, options);
  backend2->AssertAll({f.Distinct(refs)});
  EXPECT_EQ(backend2->Check(f), SolveResult::kSat);
}

INSTANTIATE_TEST_SUITE_P(
    Scopes, ScopeSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(Procedure::kDfs, Procedure::kCdcl, Procedure::kZ3)),
    [](const ::testing::TestParamInfo<std::tuple<int, Procedure>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) +
             ProcedureName(std::get<1>(info.param));
    });

// --- Incremental solving ------------------------------------------------------------------

// Push/Pop round-trips are invisible: after a Pop the assertion stack is exactly the
// pre-Push stack (same interned Terms, same order), and an incremental backend that has
// already solved framed queries answers the next one exactly like a fresh instance fed
// the same goal-first conjunction — same verdict, same model, byte for byte. The second
// framed Check must also report ground-cache reuse for the unchanged frame roots.
TEST(IncrementalBackendTest, PushPopRoundTripMatchesFreshSolve) {
  TermFactory f;
  SolverOptions options;
  options.incremental = Toggle::kOn;

  Sort rs = RefSort(0);
  Sort obj = TupleSort({rs, IntSort()});
  Term data = f.Const("data", ArraySort(rs, obj));
  Term ids = f.Const("ids", SetSort(rs));
  Term v = f.NewBoundVar(rs);
  Term wf = f.Forall(v, f.Eq(f.Proj(f.Select(data, v), 0), v));
  Term x = f.Const("x", rs);
  Term y = f.Const("y", rs);
  Term both_in = f.And(f.Member(x, ids), f.Member(y, ids));
  Term same_pk = f.Eq(f.Proj(f.Select(data, x), 0), f.Proj(f.Select(data, y), 0));

  std::unique_ptr<SolverBackend> inc = MakeBackend(options);
  ASSERT_TRUE(inc->caps().incremental);
  inc->AssertAll({wf, both_in});
  const std::vector<Term> frame = inc->assertions();

  inc->Push();
  inc->AddAssertion(same_pk);
  inc->AddAssertion(f.Neq(x, y));
  EXPECT_EQ(inc->Check(f), SolveResult::kUnsat);
  inc->Pop();
  EXPECT_EQ(inc->num_frames(), 0u);
  EXPECT_EQ(inc->assertions(), frame);

  inc->Push();
  inc->AddAssertion(f.Eq(x, y));
  SolveResult r = inc->Check(f);
  ASSERT_EQ(r, SolveResult::kSat);
  EXPECT_GT(inc->stats().incremental_reuse_hits, 0u);
  const std::string inc_model = inc->model().ToString();
  inc->Pop();
  EXPECT_EQ(inc->assertions(), frame);

  // Check() hands the innermost frame to the procedure first, so the fresh twin
  // asserts the goal ahead of the frame.
  std::unique_ptr<SolverBackend> fresh = MakeBackend(options);
  fresh->AssertAll({f.Eq(x, y), wf, both_in});
  ASSERT_EQ(fresh->Check(f), r);
  EXPECT_EQ(fresh->model().ToString(), inc_model);
}

}  // namespace
}  // namespace noctua::smt
