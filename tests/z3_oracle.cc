#include "tests/z3_oracle.h"

#include <z3++.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/smt/ground.h"
#include "src/smt/solver.h"
#include "src/support/stopwatch.h"

namespace noctua::oracle {
namespace {

using smt::Sort;
using smt::Term;
using smt::TermKind;

std::atomic<uint64_t> g_checks{0};

// One Z3 context per thread, shared by every oracle on it: creating a context costs
// milliseconds, more than most checks. No Z3 object outlives the check that made it.
// A context a deadline interrupted is replaced before the next check, because the
// interrupt can outlive the check it was meant for.
struct ThreadContext {
  std::unique_ptr<z3::context> ctx = std::make_unique<z3::context>();
  bool interrupted = false;
};
thread_local ThreadContext t_z3;

bool IsScalar(const Sort& s) {
  return s->is_bool() || s->is_int() || s->is_string() || s->is_ref();
}

// A term's value: one Z3 expression for a scalar sort (Bool, Int, String, Ref as its
// element index), else its components — tuple fields, a pair's (fst, snd), or an
// array's cells in the grounder's domain order.
struct Val {
  std::optional<z3::expr> e;
  std::vector<Val> parts;
};

// Translates one Check's grounded conjuncts. Unknowns are created on first sight, each
// restricted to its ValueDomains domain by an assertion on `solver`.
class Translator {
 public:
  Translator(smt::TermFactory& f, z3::context& ctx, z3::solver& solver,
             const smt::Scope& scope, const smt::ValueDomains& domains)
      : f_(f), ctx_(ctx), solver_(solver), scope_(scope), domains_(domains) {}

  z3::expr Formula(Term t) { return *Translate(t).e; }

  // Every scalar unknown created so far: model name, sort, and expression.
  struct Leaf {
    std::string name;
    Sort sort;
    z3::expr e;
  };
  const std::vector<Leaf>& leaves() const { return leaves_; }

 private:
  // Number of cells of an array indexed by `index` (a Ref or Pair sort).
  size_t Cells(const Sort& index) const {
    return static_cast<size_t>(scope_.DomainSize(index));
  }

  // The (fst, snd) element indices of cell k of a Pair-indexed array: the grounder
  // enumerates pairs fst-major.
  std::pair<int, int> PairCell(const Sort& index, size_t k) const {
    int n2 = scope_.RefSize(index->children()[1]->model_id());
    return {static_cast<int>(k) / n2, static_cast<int>(k) % n2};
  }

  std::string CellName(const Sort& index, size_t k) const {
    if (index->is_ref()) {
      return std::to_string(k);
    }
    auto [i, j] = PairCell(index, k);
    return "(" + std::to_string(i) + "," + std::to_string(j) + ")";
  }

  // The index literal of cell k.
  Term CellIndex(const Sort& index, size_t k) {
    if (index->is_ref()) {
      return f_.RefLit(index, static_cast<int64_t>(k));
    }
    auto [i, j] = PairCell(index, k);
    return f_.MkPair(f_.RefLit(index->children()[0], i), f_.RefLit(index->children()[1], j));
  }

  // The cell a literal index names, or -1 when the index is symbolic.
  int LiteralCell(Term idx) const {
    if (idx->kind() == TermKind::kRefLit) {
      return static_cast<int>(idx->int_payload());
    }
    if (idx->kind() == TermKind::kMkPair && idx->child(0)->kind() == TermKind::kRefLit &&
        idx->child(1)->kind() == TermKind::kRefLit) {
      int n2 = scope_.RefSize(idx->sort()->children()[1]->model_id());
      return static_cast<int>(idx->child(0)->int_payload()) * n2 +
             static_cast<int>(idx->child(1)->int_payload());
    }
    return -1;
  }

  z3::expr IndexIs(const Val& idx, const Sort& index, size_t k) {
    if (index->is_ref()) {
      return *idx.e == ctx_.int_val(static_cast<int>(k));
    }
    auto [i, j] = PairCell(index, k);
    return *idx.parts[0].e == ctx_.int_val(i) && *idx.parts[1].e == ctx_.int_val(j);
  }

  // A fresh unknown of `sort`; composite sorts get one unknown per scalar component.
  Val Fresh(const std::string& name, const Sort& sort) {
    Val v;
    if (sort->is_array()) {
      const Sort& index = sort->index_sort();
      for (size_t k = 0; k < Cells(index); ++k) {
        v.parts.push_back(Fresh(name + "[" + CellName(index, k) + "]", sort->element_sort()));
      }
      return v;
    }
    if (!IsScalar(sort)) {  // tuple fields, or a pair's two Ref components
      for (size_t i = 0; i < sort->children().size(); ++i) {
        v.parts.push_back(Fresh(name + "." + std::to_string(i), sort->children()[i]));
      }
      return v;
    }
    z3::expr_vector allowed(ctx_);
    if (sort->is_bool()) {
      v.e = ctx_.bool_const(name.c_str());
    } else if (sort->is_int()) {
      v.e = ctx_.int_const(name.c_str());
      for (int64_t x : domains_.ints()) {
        allowed.push_back(*v.e == ctx_.int_val(x));
      }
    } else if (sort->is_string()) {
      v.e = ctx_.constant(name.c_str(), ctx_.string_sort());
      for (const std::string& s : domains_.strings()) {
        allowed.push_back(*v.e == ctx_.string_val(s));
      }
    } else {
      v.e = ctx_.int_const(name.c_str());
      allowed.push_back(*v.e >= 0 && *v.e < scope_.RefSize(sort->model_id()));
    }
    if (!sort->is_bool()) {
      solver_.add(z3::mk_or(allowed));
    }
    leaves_.push_back(Leaf{name, sort, *v.e});
    return v;
  }

  z3::expr Eq(const Val& a, const Val& b, const Sort& sort) {
    if (IsScalar(sort)) {
      return *a.e == *b.e;
    }
    z3::expr_vector parts(ctx_);
    for (size_t i = 0; i < a.parts.size(); ++i) {
      parts.push_back(Eq(a.parts[i], b.parts[i], ComponentSort(sort, i)));
    }
    return z3::mk_and(parts);
  }

  Val Ite(const z3::expr& c, const Val& a, const Val& b, const Sort& sort) {
    Val v;
    if (IsScalar(sort)) {
      v.e = z3::ite(c, *a.e, *b.e);
      return v;
    }
    for (size_t i = 0; i < a.parts.size(); ++i) {
      v.parts.push_back(Ite(c, a.parts[i], b.parts[i], ComponentSort(sort, i)));
    }
    return v;
  }

  static const Sort& ComponentSort(const Sort& sort, size_t i) {
    return sort->is_array() ? sort->element_sort() : sort->children()[i];
  }

  Val Translate(Term t) {
    auto it = memo_.find(t);
    if (it != memo_.end()) {
      return it->second;
    }
    Val v = TranslateNew(t);
    memo_.emplace(t, v);
    return v;
  }

  Val Scalar(z3::expr e) {
    Val v;
    v.e = std::move(e);
    return v;
  }

  z3::expr_vector Kids(Term t) {
    z3::expr_vector out(ctx_);
    for (Term c : t->children()) {
      out.push_back(*Translate(c).e);
    }
    return out;
  }

  Val TranslateNew(Term t) {
    switch (t->kind()) {
      case TermKind::kConst:
        return Fresh(t->str_payload(), t->sort());
      case TermKind::kBoolLit:
        return Scalar(ctx_.bool_val(t->IsBoolLit(true)));
      case TermKind::kIntLit:
        return Scalar(ctx_.int_val(t->int_payload()));
      case TermKind::kStrLit:
        return Scalar(ctx_.string_val(t->str_payload()));
      case TermKind::kRefLit:
        return Scalar(ctx_.int_val(t->int_payload()));
      case TermKind::kAnd:
        return Scalar(z3::mk_and(Kids(t)));
      case TermKind::kOr:
        return Scalar(z3::mk_or(Kids(t)));
      case TermKind::kNot:
        return Scalar(!Formula(t->child(0)));
      case TermKind::kImplies:
        return Scalar(z3::implies(Formula(t->child(0)), Formula(t->child(1))));
      case TermKind::kIte:
        return Ite(Formula(t->child(0)), Translate(t->child(1)), Translate(t->child(2)),
                   t->sort());
      case TermKind::kEq:
        return Scalar(Eq(Translate(t->child(0)), Translate(t->child(1)), t->child(0)->sort()));
      case TermKind::kDistinct: {
        z3::expr_vector apart(ctx_);
        for (size_t i = 0; i < t->children().size(); ++i) {
          for (size_t j = i + 1; j < t->children().size(); ++j) {
            apart.push_back(!Eq(Translate(t->child(i)), Translate(t->child(j)),
                                t->child(i)->sort()));
          }
        }
        return Scalar(z3::mk_and(apart));
      }
      case TermKind::kAdd:
        return Scalar(z3::sum(Kids(t)));
      case TermKind::kSub:
        return Scalar(Formula(t->child(0)) - Formula(t->child(1)));
      case TermKind::kMul: {
        z3::expr_vector kids = Kids(t);
        z3::expr product = kids[0];
        for (unsigned i = 1; i < kids.size(); ++i) {
          product = product * kids[i];
        }
        return Scalar(product);
      }
      case TermKind::kNeg:
        return Scalar(-Formula(t->child(0)));
      case TermKind::kLt:
        return Scalar(Formula(t->child(0)) < Formula(t->child(1)));
      case TermKind::kLe:
        return Scalar(Formula(t->child(0)) <= Formula(t->child(1)));
      case TermKind::kConcat: {
        z3::expr_vector kids = Kids(t);
        z3::expr joined = kids[0];
        for (unsigned i = 1; i < kids.size(); ++i) {
          joined = z3::concat(joined, kids[i]);
        }
        return Scalar(joined);
      }
      case TermKind::kMkTuple:
      case TermKind::kMkPair: {
        Val v;
        for (Term c : t->children()) {
          v.parts.push_back(Translate(c));
        }
        return v;
      }
      case TermKind::kProj:
        return Translate(t->child(0)).parts[static_cast<size_t>(t->int_payload())];
      case TermKind::kFst:
        return Translate(t->child(0)).parts[0];
      case TermKind::kSnd:
        return Translate(t->child(0)).parts[1];
      case TermKind::kConstArray: {
        Val cell = Translate(t->child(0));
        Val v;
        v.parts.assign(Cells(t->sort()->index_sort()), cell);
        return v;
      }
      case TermKind::kStore: {
        const Sort& index = t->sort()->index_sort();
        Val v = Translate(t->child(0));
        Val value = Translate(t->child(2));
        int lit = LiteralCell(t->child(1));
        if (lit >= 0) {
          v.parts[static_cast<size_t>(lit)] = value;
          return v;
        }
        Val idx = Translate(t->child(1));
        for (size_t k = 0; k < v.parts.size(); ++k) {
          v.parts[k] = Ite(IndexIs(idx, index, k), value, v.parts[k], t->sort()->element_sort());
        }
        return v;
      }
      case TermKind::kSelect: {
        const Sort& array_sort = t->child(0)->sort();
        Val array = Translate(t->child(0));
        int lit = LiteralCell(t->child(1));
        if (lit >= 0) {
          return array.parts[static_cast<size_t>(lit)];
        }
        // Symbolic indices range over the scope (their unknowns are restricted to it), so
        // the last cell is the chain's fallback.
        Val idx = Translate(t->child(1));
        Val v = array.parts.back();
        for (size_t k = array.parts.size() - 1; k-- > 0;) {
          v = Ite(IndexIs(idx, array_sort->index_sort(), k), array.parts[k], v,
                  array_sort->element_sort());
        }
        return v;
      }
      case TermKind::kArrayLambda: {
        // Grounding leaves array-valued lambdas (set unions, filtered states) in place;
        // cell k is the body at the k-th index.
        const Sort& index = t->sort()->index_sort();
        Val v;
        for (size_t k = 0; k < Cells(index); ++k) {
          v.parts.push_back(Translate(
              smt::SubstituteBoundVar(f_, t->child(0), t->int_payload(), CellIndex(index, k))));
        }
        return v;
      }
      default:
        throw std::logic_error("z3 oracle: a grounded query holds " + t->ToString());
    }
  }

  smt::TermFactory& f_;
  z3::context& ctx_;
  z3::solver& solver_;
  const smt::Scope& scope_;
  const smt::ValueDomains& domains_;
  std::unordered_map<Term, Val> memo_;
  std::vector<Leaf> leaves_;
};

class Z3Oracle : public smt::SolverBackend {
 public:
  explicit Z3Oracle(const smt::SolverOptions& options) : options_(options) {}

  const char* name() const override { return "z3"; }
  // Grounding is cached across Checks, like the model finder's.
  smt::BackendCaps caps() const override { return smt::BackendCaps{/*incremental=*/true}; }
  const smt::SmtModel& model() const override { return model_; }
  const smt::SolverStats& stats() const override { return stats_; }

 protected:
  smt::SolveResult DoCheck(smt::TermFactory& f, const std::vector<Term>& assertions) override {
    Stopwatch watch;
    g_checks.fetch_add(1, std::memory_order_relaxed);
    stats_ = smt::SolverStats{};
    model_.values.clear();
    std::vector<Term> conjuncts;
    if (!grounder_.Ground(f, options_.scope, assertions, &conjuncts,
                          &stats_.incremental_reuse_hits, &stats_.binders_expanded)) {
      stats_.seconds = watch.ElapsedSeconds();
      return smt::SolveResult::kUnsat;
    }
    smt::ValueDomains domains;
    domains.Harvest(conjuncts, options_.max_int_domain, options_.max_string_domain);

    if (t_z3.interrupted) {
      t_z3.ctx = std::make_unique<z3::context>();
      t_z3.interrupted = false;
    }
    // The plain SMT kernel: Z3's default solver front-end spends milliseconds per check
    // on preprocessing that queries this small do not need.
    z3::context& ctx = *t_z3.ctx;
    z3::solver solver(ctx, z3::solver::simple());
    Translator tr(f, ctx, solver, options_.scope, domains);
    for (Term c : conjuncts) {
      solver.add(tr.Formula(c));
    }
    stats_.num_atoms = tr.leaves().size();
    const smt::Budget& budget = options_.budget;
    z3::check_result r = budget.deterministic || budget.timeout_seconds <= 0
                             ? solver.check()
                             : CheckWithDeadline(solver, budget.timeout_seconds);
    stats_.seconds = watch.ElapsedSeconds();
    if (r == z3::unknown) {
      return smt::SolveResult::kUnknown;
    }
    if (r == z3::unsat) {
      return smt::SolveResult::kUnsat;
    }
    // Model entries render like the model finder's: GroundAtomName keys, literal values.
    z3::model m = solver.get_model();
    for (const Translator::Leaf& leaf : tr.leaves()) {
      z3::expr v = m.eval(leaf.e, /*model_completion=*/true);
      Term lit = nullptr;
      if (leaf.sort->is_bool()) {
        lit = f.BoolLit(v.is_true());
      } else if (leaf.sort->is_int()) {
        lit = f.IntLit(v.get_numeral_int64());
      } else if (leaf.sort->is_ref()) {
        lit = f.RefLit(leaf.sort, v.get_numeral_int64());
      } else {
        for (const std::string& s : domains.strings()) {
          if (m.eval(leaf.e == ctx.string_val(s), true).is_true()) {
            lit = f.StrLit(s);
          }
        }
      }
      model_.values[leaf.name] = lit != nullptr ? lit->ToString() : "?";
    }
    return smt::SolveResult::kSat;
  }

 private:
  // Z3's own timeout parameter is not honored by every theory solver (nonlinear
  // arithmetic runs past it), so the deadline interrupts the context from a watchdog.
  z3::check_result CheckWithDeadline(z3::solver& solver, double seconds) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool fired = false;
    z3::context& ctx = *t_z3.ctx;  // t_z3 is this thread's, not the watchdog's
    std::thread watchdog([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, std::chrono::duration<double>(seconds), [&] { return done; })) {
        fired = true;
        ctx.interrupt();
      }
    });
    z3::check_result r = solver.check();
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
    watchdog.join();
    t_z3.interrupted = fired;
    return r;
  }

  smt::SolverOptions options_;
  smt::IncrementalGrounder grounder_;
  smt::SmtModel model_;
  smt::SolverStats stats_;
};

}  // namespace

std::unique_ptr<smt::SolverBackend> MakeZ3Oracle(const smt::SolverOptions& options) {
  return std::make_unique<Z3Oracle>(options);
}

uint64_t Z3OracleChecks() { return g_checks.load(std::memory_order_relaxed); }

}  // namespace noctua::oracle
