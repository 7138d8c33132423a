#include "src/verifier/checker.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "src/obs/obs.h"
#include "src/smt/backend.h"
#include "src/support/check.h"
#include "src/support/stopwatch.h"

namespace noctua::verifier {

using smt::Term;

const char* CheckOutcomeName(CheckOutcome o) {
  switch (o) {
    case CheckOutcome::kPass:
      return "pass";
    case CheckOutcome::kFail:
      return "fail";
    case CheckOutcome::kTimeout:
      return "timeout";
    case CheckOutcome::kUnsupported:
      return "unsupported";
  }
  return "?";
}

PathFacts::PathFacts(const soir::Schema& schema, const soir::CodePath& p)
    : path(&p),
      order_models(soir::OrderRelevantModels(p)),
      canon(soir::CanonicalPathTemplate(schema, p)) {
  p.CollectFootprint(schema, &models_read, &models_written, &relations);

  // The scope closure: every model/relation the path can reach through expressions,
  // commands, relation paths, argument types, relation endpoints, or delete-incident
  // relations.
  auto add_model = [&](int m) {
    if (m >= 0) {
      scope_models.push_back(m);
    }
  };
  auto add_relation = [&](int r) {
    if (r < 0) {
      return;
    }
    scope_relations.push_back(r);
    // Endpoints of every active relation are active: referential-integrity axioms and
    // traversal encodings mention both sides.
    const soir::RelationDef& rel = schema.relation(r);
    add_model(rel.from_model);
    add_model(rel.to_model);
  };
  for (const soir::ArgDef& a : p.args) {
    add_model(a.type.model_id);  // unique-id axioms reference the arg's model state
  }
  soir::VisitExprs(p, [&](const soir::Expr& e) {
    add_model(e.type.model_id);
    for (const soir::RelStep& rs : e.rel_path) {
      add_relation(rs.relation);
    }
  });
  for (const soir::Command& cmd : p.commands) {
    add_relation(cmd.relation);
    if (cmd.kind == soir::CommandKind::kDelete) {
      // Deletes rewrite every incident relation.
      int m = cmd.a->type.model_id;
      for (size_t r = 0; r < schema.num_relations(); ++r) {
        const soir::RelationDef& rel = schema.relation(static_cast<int>(r));
        if (rel.from_model == m || rel.to_model == m) {
          add_relation(static_cast<int>(r));
        }
      }
    }
  }
  for (std::vector<int>* v : {&scope_models, &scope_relations}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
}

bool Checker::Independent(const PathFacts& p, const PathFacts& q) {
  auto intersects = [](const std::vector<int>& a, const std::vector<int>& b) {
    return std::any_of(a.begin(), a.end(), [&](int x) {
      return std::find(b.begin(), b.end(), x) != b.end();
    });
  };
  // Writes of one side may not touch anything the other side reads or writes, and the two
  // sides may not touch a common relation (we do not split relation reads from writes, so
  // this is conservative).
  if (intersects(p.models_written, q.models_read) ||
      intersects(p.models_written, q.models_written) ||
      intersects(q.models_written, p.models_read)) {
    return false;
  }
  if (intersects(p.relations, q.relations)) {
    return false;
  }
  return true;
}

Checker::PairScope Checker::ComputeScope(const PathFacts& p, const PathFacts& q) const {
  PairScope s;
  s.models.insert(p.scope_models.begin(), p.scope_models.end());
  s.models.insert(q.scope_models.begin(), q.scope_models.end());
  s.relations.insert(p.scope_relations.begin(), p.scope_relations.end());
  s.relations.insert(q.scope_relations.begin(), q.scope_relations.end());
  return s;
}

void Checker::ApplyProjection(const PathFacts& p, const PathFacts& q,
                              EncoderOptions* enc_options) const {
  if (!options_.project_footprint) {
    return;
  }
  PairScope scope = ComputeScope(p, q);
  enc_options->project = true;
  enc_options->active_models = std::move(scope.models);
  enc_options->active_relations = std::move(scope.relations);
}

CheckOutcome Checker::WorseOutcome(CheckOutcome a, CheckOutcome b) {
  auto severity = [](CheckOutcome o) {
    switch (o) {
      case CheckOutcome::kPass:
        return 0;
      case CheckOutcome::kFail:
        return 1;
      case CheckOutcome::kTimeout:
        return 2;
      case CheckOutcome::kUnsupported:
        return 3;
    }
    return 3;
  };
  return severity(a) >= severity(b) ? a : b;
}

CheckOutcome Checker::RunSolver(smt::TermFactory& factory,
                                const std::vector<Term>& assertions, bool any_unsupported,
                                CheckStats* stats) const {
  if (any_unsupported) {
    return CheckOutcome::kUnsupported;
  }
  std::unique_ptr<smt::SolverBackend> backend = smt::MakeBackend(options_.solver);
  backend->AssertAll(assertions);
  return RunSolverOn(*backend, factory, false, stats);
}

CheckOutcome Checker::RunSolverOn(smt::SolverBackend& backend, smt::TermFactory& factory,
                                  bool any_unsupported, CheckStats* stats) const {
  if (any_unsupported) {
    return CheckOutcome::kUnsupported;
  }
  obs::ScopedSpan span("solve", obs::kCatSolve);
  smt::SolveResult r = backend.Check(factory);
  const smt::SolverStats& ss = backend.stats();
  if (stats != nullptr) {
    stats->solver_nodes = ss.nodes_visited;
  }
  if (obs::Enabled()) {
    // Flush per-query solver introspection in one shot — the backend counted its own
    // nodes, so the search itself carried no instrumentation.
    span.Arg("nodes", ss.nodes_visited);
    span.Arg("assignments", ss.evaluations);
    span.Arg("atoms", ss.num_atoms);
    obs::Add(obs::Counter::kSolverNodes, ss.nodes_visited);
    obs::Add(obs::Counter::kSolverAssignments, ss.evaluations);
    obs::Add(obs::Counter::kGroundExpansions, ss.binders_expanded);
    obs::Add(obs::Counter::kSimplifyHits, factory.intern_hits());
    if (ss.incremental_reuse_hits > 0) {
      obs::Add(obs::Counter::kSolverIncrementalReuse, ss.incremental_reuse_hits);
    }
    if (ss.symmetry_pruned > 0) {
      obs::Add(obs::Counter::kSolverSymmetryPruned, ss.symmetry_pruned);
    }
    obs::Observe(obs::Hist::kSolveMicros, static_cast<uint64_t>(ss.seconds * 1e6));
    obs::Observe(obs::Hist::kSolverNodesPerQuery, ss.nodes_visited);
    obs::Observe(obs::Hist::kSolverAssignmentsPerQuery, ss.evaluations);
    obs::Observe(obs::Hist::kGroundExpansionsPerQuery, ss.binders_expanded);
  }
  switch (r) {
    case smt::SolveResult::kUnsat:
      return CheckOutcome::kPass;
    case smt::SolveResult::kSat:
      return CheckOutcome::kFail;
    case smt::SolveResult::kUnknown:
      return CheckOutcome::kTimeout;
  }
  return CheckOutcome::kTimeout;
}

CheckOutcome Checker::CheckCommutativity(const soir::CodePath& p, const soir::CodePath& q,
                                         const std::set<int>* order_models,
                                         CheckStats* stats) const {
  PathFacts fp(schema_, p);
  PathFacts fq(schema_, q);
  // Order information is materialized only for models whose order this pair (or, when
  // provided by the caller, any operation of the app) observes — the decoupling of §4.2.
  std::set<int> order;
  if (order_models != nullptr) {
    order = *order_models;
  } else {
    order = fp.order_models;
    order.insert(fq.order_models.begin(), fq.order_models.end());
  }
  return Commutativity(fp, fq, order, stats);
}

CheckOutcome Checker::Commutativity(const PathFacts& fp, const PathFacts& fq,
                                    const std::set<int>& order, CheckStats* stats) const {
  Stopwatch watch;
  if (Prefilterable(fp, fq)) {
    if (stats != nullptr) {
      stats->prefiltered = true;
      stats->seconds = watch.ElapsedSeconds();
    }
    return CheckOutcome::kPass;
  }
  const soir::CodePath& p = *fp.path;
  const soir::CodePath& q = *fq.path;
  EncoderOptions enc_options = options_.encoder;
  enc_options.order_models = order;
  ApplyProjection(fp, fq, &enc_options);

  // The encode span covers query construction (path application, axioms); it ends just
  // before RunSolver opens the solve span.
  std::optional<obs::ScopedSpan> encode_span;
  encode_span.emplace("encode_com", obs::kCatEncode);

  smt::TermFactory factory;
  Encoder enc(schema_, &factory, enc_options);

  EncState s0 = enc.FreshState("S0");

  // S0 + P(x) + Q(y)
  Encoder::PathResult pq1 = enc.ApplyPath(p, s0, "x");
  Encoder::PathResult pq2 = enc.ApplyPath(q, pq1.post, "y");
  // S0 + Q(y) + P(x)  (same argument constants: same prefixes)
  Encoder::PathResult qp1 = enc.ApplyPath(q, s0, "y");
  Encoder::PathResult qp2 = enc.ApplyPath(p, qp1.post, "x");

  bool unsupported =
      pq1.unsupported || pq2.unsupported || qp1.unsupported || qp2.unsupported;

  // Assertion order is a search heuristic: the (negated) goal first, so the solver's
  // atom selection is driven by what can actually refute the property; then the most
  // constraining facts; axioms last.
  std::vector<Term> assertions;
  assertions.push_back(factory.Not(enc.StateEq(pq2.post, qp2.post, order)));

  // The replayed effects must be producible: assert their preconditions on fresh origin
  // states (paper §5.2), or directly on S0 in the cheaper shared mode.
  if (options_.fresh_origin_states) {
    EncState sa = enc.FreshState("Sa");
    EncState sb = enc.FreshState("Sb");
    Encoder::PathResult pre_p = enc.ApplyPath(p, sa, "x");
    Encoder::PathResult pre_q = enc.ApplyPath(q, sb, "y");
    unsupported = unsupported || pre_p.unsupported || pre_q.unsupported;
    // Freshness of database-generated IDs holds w.r.t. the shared initial state only:
    // an op's origin state may causally follow the other op (e.g. following a question
    // right after it was created), so new IDs may be live there.
    assertions.push_back(enc.UniqueIdAxiom(s0));
    assertions.push_back(pre_p.pre);
    assertions.push_back(pre_q.pre);
    assertions.push_back(enc.StateAxioms(sa));
    assertions.push_back(enc.StateAxioms(sb));
  } else {
    assertions.push_back(enc.UniqueIdAxiom(s0));
    assertions.push_back(pq1.pre);
    assertions.push_back(qp1.pre);
  }
  assertions.push_back(pq1.defs);
  assertions.push_back(pq2.defs);
  assertions.push_back(qp1.defs);
  assertions.push_back(qp2.defs);
  assertions.push_back(enc.StateAxioms(s0));

  if (encode_span) {
    encode_span->Arg("terms", factory.size());
    encode_span.reset();
  }
  CheckOutcome outcome = RunSolver(factory, {factory.And(std::move(assertions))}, unsupported, stats);
  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
  }
  return outcome;
}

CheckOutcome Checker::CheckNotInvalidate(const soir::CodePath& p, const soir::CodePath& q,
                                         CheckStats* stats) const {
  return NotInvalidate(PathFacts(schema_, p), PathFacts(schema_, q), stats);
}

CheckOutcome Checker::NotInvalidate(const PathFacts& fp, const PathFacts& fq,
                                    CheckStats* stats) const {
  Stopwatch watch;
  if (Prefilterable(fp, fq)) {
    if (stats != nullptr) {
      stats->prefiltered = true;
      stats->seconds = watch.ElapsedSeconds();
    }
    return CheckOutcome::kPass;
  }
  const soir::CodePath& p = *fp.path;
  const soir::CodePath& q = *fq.path;
  EncoderOptions enc_options = options_.encoder;
  enc_options.order_models = fp.order_models;
  enc_options.order_models.insert(fq.order_models.begin(), fq.order_models.end());
  ApplyProjection(fp, fq, &enc_options);

  std::optional<obs::ScopedSpan> encode_span;
  encode_span.emplace("encode_ni", obs::kCatEncode);

  smt::TermFactory factory;
  Encoder enc(schema_, &factory, enc_options);

  EncState s0 = enc.FreshState("S0");

  // g_P(x, S0) holds...
  Encoder::PathResult p_before = enc.ApplyPath(p, s0, "x");

  // ...Q's effect is applied (replayed on S0; its own precondition is asserted on a fresh
  // origin state, since the effect was generated elsewhere)...
  Encoder::PathResult q_applied = enc.ApplyPath(q, s0, "y");
  bool unsupported = p_before.unsupported || q_applied.unsupported;

  // ...and yet g_P(x, S0 + Q(y)) is violated. The negated goal goes first (search
  // heuristic, see CheckCommutativity).
  Encoder::PathResult p_after = enc.ApplyPath(p, q_applied.post, "x");
  unsupported = unsupported || p_after.unsupported;

  std::vector<Term> assertions;
  assertions.push_back(factory.Not(p_after.pre));
  assertions.push_back(p_before.pre);
  assertions.push_back(enc.UniqueIdAxiom(s0));
  if (options_.fresh_origin_states) {
    EncState sb = enc.FreshState("Sb");
    Encoder::PathResult pre_q = enc.ApplyPath(q, sb, "y");
    unsupported = unsupported || pre_q.unsupported;
    assertions.push_back(pre_q.pre);
    assertions.push_back(enc.StateAxioms(sb));
  } else {
    assertions.push_back(q_applied.pre);
  }
  assertions.push_back(q_applied.defs);
  assertions.push_back(enc.StateAxioms(s0));

  if (encode_span) {
    encode_span->Arg("terms", factory.size());
    encode_span.reset();
  }
  CheckOutcome outcome = RunSolver(factory, {factory.And(std::move(assertions))}, unsupported, stats);
  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
  }
  return outcome;
}

CheckOutcome Checker::CheckSemantic(const soir::CodePath& p, const soir::CodePath& q,
                                    CheckStats* stats) const {
  return CheckSemantic(p, q, stats, nullptr, nullptr);
}

CheckOutcome Checker::CheckSemantic(const soir::CodePath& p, const soir::CodePath& q,
                                    CheckStats* stats, CheckStats* dir1_stats,
                                    CheckStats* dir2_stats) const {
  PathFacts fp(schema_, p);
  PathFacts fq(schema_, q);
  PairSession session(*this, fp, fq);
  CheckStats s1, s2;
  CheckOutcome a = session.NotInvalidatePQ(&s1);
  CheckOutcome b = a == CheckOutcome::kPass ? session.NotInvalidateQP(&s2)
                                            : CheckOutcome::kPass;
  if (stats != nullptr) {
    stats->seconds = s1.seconds + s2.seconds;
    stats->solver_nodes = s1.solver_nodes + s2.solver_nodes;
    // One prefilter decision covers both directions (footprint disjointness is
    // symmetric); s2 stays default-initialized — not measured — when direction two is
    // skipped, so ANDing it in would misreport a prefiltered pair as solved.
    stats->prefiltered = s1.prefiltered;
  }
  if (dir1_stats != nullptr) {
    *dir1_stats = s1;
  }
  if (dir2_stats != nullptr) {
    *dir2_stats = s2;
  }
  // The worse of the two directions decides.
  return WorseOutcome(a, b);
}

// ---------------------------------------------------------------------------
// PairSession
// ---------------------------------------------------------------------------

struct Checker::PairSession::Shared {
  // The factory outlives (and is destroyed after) the encoders and backend below, all of
  // which hold terms interned in it.
  smt::TermFactory factory;
  std::unique_ptr<Encoder> com_enc;
  std::unique_ptr<Encoder> ni_enc;
  std::unique_ptr<smt::SolverBackend> backend;
  bool incremental = false;

  // What the backend currently holds asserted; commutativity and NotInvalidate
  // interleave by re-asserting their base (cheap: grounding is cached per root).
  enum class Mode : uint8_t { kNone, kCom, kNi };
  Mode mode = Mode::kNone;

  bool com_built = false;
  std::vector<Term> com_assertions;
  bool com_unsupported = false;

  bool ni_built = false;
  std::vector<Term> ni_frame;     // asserted once, shared by both directions
  std::vector<Term> ni_delta_pq;  // pushed/popped per direction
  std::vector<Term> ni_delta_qp;
  bool ni_unsupported_pq = false;
  bool ni_unsupported_qp = false;
};

Checker::PairSession::PairSession(const Checker& checker, const PathFacts& p,
                                  const PathFacts& q, const std::set<int>* order_models,
                                  BackendMaker make_backend)
    : checker_(checker), fp_(p), fq_(q), p_(*p.path), q_(*q.path),
      make_backend_(make_backend) {
  ni_order_ = fp_.order_models;
  ni_order_.insert(fq_.order_models.begin(), fq_.order_models.end());
  com_order_ = order_models != nullptr ? *order_models : ni_order_;
  prefiltered_ = checker_.Prefilterable(fp_, fq_);
}

Checker::PairSession::~PairSession() = default;

void Checker::PairSession::EnsureShared() {
  if (shared_ != nullptr) {
    return;
  }
  shared_ = std::make_unique<Shared>();
  shared_->backend = make_backend_(checker_.options_.solver);
  shared_->incremental = smt::IncrementalEnabled(checker_.options_.solver) &&
                         shared_->backend->caps().incremental;
}

CheckOutcome Checker::PairSession::Commutativity(CheckStats* stats) {
  Stopwatch watch;
  if (prefiltered_) {
    if (stats != nullptr) {
      stats->prefiltered = true;
      stats->seconds = watch.ElapsedSeconds();
    }
    return CheckOutcome::kPass;
  }
  EnsureShared();
  if (!shared_->incremental) {
    return checker_.Commutativity(fp_, fq_, com_order_, stats);
  }
  Shared& sh = *shared_;
  if (!sh.com_built) {
    sh.com_built = true;
    obs::ScopedSpan encode_span("encode_com", obs::kCatEncode);

    EncoderOptions enc_options = checker_.options_.encoder;
    enc_options.order_models = com_order_;
    checker_.ApplyProjection(fp_, fq_, &enc_options);
    sh.com_enc = std::make_unique<Encoder>(checker_.schema_, &sh.factory, enc_options);
    Encoder& enc = *sh.com_enc;

    EncState s0 = enc.FreshState("S0");
    Encoder::PathResult pq1 = enc.ApplyPath(p_, s0, "x");
    Encoder::PathResult pq2 = enc.ApplyPath(q_, pq1.post, "y");
    Encoder::PathResult qp1 = enc.ApplyPath(q_, s0, "y");
    Encoder::PathResult qp2 = enc.ApplyPath(p_, qp1.post, "x");
    sh.com_unsupported =
        pq1.unsupported || pq2.unsupported || qp1.unsupported || qp2.unsupported;

    // Same assertion content and order as CheckCommutativity, kept as separate roots so
    // the incremental grounder can cache the ones shared with the NotInvalidate frame
    // (S0's axioms, the unique-id axiom).
    std::vector<Term>& assertions = sh.com_assertions;
    assertions.push_back(sh.factory.Not(enc.StateEq(pq2.post, qp2.post, com_order_)));
    if (checker_.options_.fresh_origin_states) {
      EncState sa = enc.FreshState("Sa");
      EncState sb = enc.FreshState("Sb");
      Encoder::PathResult pre_p = enc.ApplyPath(p_, sa, "x");
      Encoder::PathResult pre_q = enc.ApplyPath(q_, sb, "y");
      sh.com_unsupported = sh.com_unsupported || pre_p.unsupported || pre_q.unsupported;
      assertions.push_back(enc.UniqueIdAxiom(s0));
      assertions.push_back(pre_p.pre);
      assertions.push_back(pre_q.pre);
      assertions.push_back(enc.StateAxioms(sa));
      assertions.push_back(enc.StateAxioms(sb));
    } else {
      assertions.push_back(enc.UniqueIdAxiom(s0));
      assertions.push_back(pq1.pre);
      assertions.push_back(qp1.pre);
    }
    assertions.push_back(pq1.defs);
    assertions.push_back(pq2.defs);
    assertions.push_back(qp1.defs);
    assertions.push_back(qp2.defs);
    assertions.push_back(enc.StateAxioms(s0));
    encode_span.Arg("terms", sh.factory.size());
  }

  CheckOutcome outcome;
  if (sh.com_unsupported) {
    outcome = CheckOutcome::kUnsupported;
  } else {
    if (sh.mode != Shared::Mode::kCom) {
      sh.backend->ResetAssertions();
      sh.backend->AssertAll(sh.com_assertions);
      sh.mode = Shared::Mode::kCom;
    }
    outcome = checker_.RunSolverOn(*sh.backend, sh.factory, false, stats);
  }
  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
  }
  return outcome;
}

CheckOutcome Checker::PairSession::NotInvalidatePQ(CheckStats* stats) {
  return NotInvalidateDir(/*pq=*/true, stats);
}

CheckOutcome Checker::PairSession::NotInvalidateQP(CheckStats* stats) {
  return NotInvalidateDir(/*pq=*/false, stats);
}

void Checker::PairSession::BuildNiFrame() {
  Shared& sh = *shared_;
  if (sh.ni_built) {
    return;
  }
  sh.ni_built = true;
  obs::ScopedSpan encode_span("encode_ni", obs::kCatEncode);

  EncoderOptions enc_options = checker_.options_.encoder;
  enc_options.order_models = ni_order_;
  checker_.ApplyProjection(fp_, fq_, &enc_options);
  sh.ni_enc = std::make_unique<Encoder>(checker_.schema_, &sh.factory, enc_options);
  Encoder& enc = *sh.ni_enc;

  EncState s0 = enc.FreshState("S0");
  Encoder::PathResult p0 = enc.ApplyPath(p_, s0, "x");
  Encoder::PathResult q0 = enc.ApplyPath(q_, s0, "y");
  bool frame_unsupported = p0.unsupported || q0.unsupported;

  // Built after both ApplyPath calls so it covers both argument sets (the fresh-origin
  // re-applications below reuse the cached argument constants and add nothing new).
  Term uid = enc.UniqueIdAxiom(s0);

  if (checker_.options_.fresh_origin_states) {
    // Frame: both effects producible from fresh origin states, plus all state axioms.
    // Relative to the legacy per-direction query this also asserts the *checked* (not
    // replayed) path's origin precondition — satisfiability-preserving, because any
    // legacy witness extends by choosing that origin state to be S0 itself, where the
    // checked precondition already holds.
    EncState sa = enc.FreshState("Sa");
    EncState sb = enc.FreshState("Sb");
    Encoder::PathResult pre_p = enc.ApplyPath(p_, sa, "x");
    Encoder::PathResult pre_q = enc.ApplyPath(q_, sb, "y");
    frame_unsupported =
        frame_unsupported || pre_p.unsupported || pre_q.unsupported;
    sh.ni_frame = {uid,
                   pre_p.pre,
                   pre_q.pre,
                   enc.StateAxioms(sa),
                   enc.StateAxioms(sb),
                   enc.StateAxioms(s0)};
    sh.ni_delta_pq = {nullptr, p0.pre, q0.defs};  // goal filled below
    sh.ni_delta_qp = {nullptr, q0.pre, p0.defs};
  } else {
    // Shared-origin mode: frame + delta is content-identical to the legacy query.
    sh.ni_frame = {uid, p0.pre, q0.pre, enc.StateAxioms(s0)};
    sh.ni_delta_pq = {nullptr, q0.defs};
    sh.ni_delta_qp = {nullptr, p0.defs};
  }

  // Direction goals: replay the other path's effect on S0 and negate the checked path's
  // precondition there. Goal first — the innermost frame is asserted before the shared
  // frame, preserving the legacy goal-first search heuristic.
  Encoder::PathResult p_after = enc.ApplyPath(p_, q0.post, "x");
  sh.ni_unsupported_pq = frame_unsupported || p_after.unsupported;
  sh.ni_delta_pq[0] = sh.factory.Not(p_after.pre);

  Encoder::PathResult q_after = enc.ApplyPath(q_, p0.post, "y");
  sh.ni_unsupported_qp = frame_unsupported || q_after.unsupported;
  sh.ni_delta_qp[0] = sh.factory.Not(q_after.pre);

  encode_span.Arg("terms", sh.factory.size());
}

CheckOutcome Checker::PairSession::NotInvalidateDir(bool pq, CheckStats* stats) {
  Stopwatch watch;
  if (prefiltered_) {
    if (stats != nullptr) {
      stats->prefiltered = true;
      stats->seconds = watch.ElapsedSeconds();
    }
    return CheckOutcome::kPass;
  }
  EnsureShared();
  if (!shared_->incremental) {
    return pq ? checker_.NotInvalidate(fp_, fq_, stats) : checker_.NotInvalidate(fq_, fp_, stats);
  }
  Shared& sh = *shared_;
  BuildNiFrame();

  bool unsupported = pq ? sh.ni_unsupported_pq : sh.ni_unsupported_qp;
  CheckOutcome outcome;
  if (unsupported) {
    outcome = CheckOutcome::kUnsupported;
  } else {
    if (sh.mode != Shared::Mode::kNi) {
      sh.backend->ResetAssertions();
      sh.backend->AssertAll(sh.ni_frame);
      sh.mode = Shared::Mode::kNi;
    }
    sh.backend->Push();
    for (const Term& t : (pq ? sh.ni_delta_pq : sh.ni_delta_qp)) {
      sh.backend->AddAssertion(t);
    }
    outcome = checker_.RunSolverOn(*sh.backend, sh.factory, false, stats);
    sh.backend->Pop();
  }
  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
  }
  return outcome;
}

}  // namespace noctua::verifier
