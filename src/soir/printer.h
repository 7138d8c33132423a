// Pretty printer for SOIR expressions, commands and code paths, plus the canonical
// printer used to fingerprint verification queries for the verdict cache.
#ifndef SRC_SOIR_PRINTER_H_
#define SRC_SOIR_PRINTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/soir/ast.h"
#include "src/soir/schema.h"

namespace noctua::soir {

std::string PrintExpr(const Schema& schema, const Expr& e);
std::string PrintCommand(const Schema& schema, const Command& c);

// Renders the full path: header, arguments, then one command per line.
std::string PrintCodePath(const Schema& schema, const CodePath& path);

// --- Canonical fingerprints ---------------------------------------------------------------
//
// CanonicalPath renders a code path with every schema-dependent identifier replaced by a
// dense canonical id assigned in first-use order: models become m0, m1, ..., relations
// r0, r1, ..., arguments a0, a1, ... (declaration order), and field names become tuple
// slot indices. Two paths that are isomorphic up to model/relation/argument/field *names*
// — e.g. the per-model CRUD endpoints a viewset stamps out — therefore render to the
// same string, which is what lets the verifier share one solver verdict between them.
//
// The renaming context is shared across the two paths of a pair (and across repeated
// mentions within one path), so cross-path identity of models and relations is preserved:
// "both paths touch the same model" and "the paths touch different models of the same
// shape" fingerprint differently, as they must.
//
// Everything the SMT encoding depends on beyond the path text — field sorts, unique
// flags, relation kinds and delete behavior — is captured by SchemaSignature(), which
// renders the schema fragment for exactly the models/relations mentioned so far, in
// canonical order. A fingerprint is only valid as (canonical paths + schema signature).
//
// Printing is split from numbering. CanonicalPathTemplate prints a path once, with no
// context: its text has a hole wherever a canonical id goes, and it records the
// ModelId/RelationId calls the printer made, with their absolute ids, in call order.
// Printing a path makes the same calls whatever the context holds; only the returned
// ids differ. So Render, which replays the calls on a context and fills each hole with
// its call's result, reproduces the context-bound rendering byte for byte. The verifier
// prints each path's template once per run and renders a pair's fingerprint from the
// two templates; CanonicalPath is the same thing for one path.
class CanonicalizationCtx {
 public:
  explicit CanonicalizationCtx(const Schema& schema) : schema_(schema) {}

  // Canonical id for an absolute model/relation id, assigned on first use.
  int ModelId(int m);
  int RelationId(int r);

  // Schema fragment signature for every model/relation assigned so far (canonical
  // order): field sort kinds + unique flags per model, kind/on-delete/endpoints per
  // relation.
  std::string SchemaSignature() const;

  // Absolute ids in canonical (first-use) order.
  const std::vector<int>& models() const { return models_; }
  const std::vector<int>& relations() const { return relations_; }

  const Schema& schema() const { return schema_; }

 private:
  const Schema& schema_;
  // Absolute id -> canonical id (-1 = unassigned), sized to the schema on first use.
  std::vector<int> model_map_;
  std::vector<int> relation_map_;
  std::vector<int> models_;
  std::vector<int> relations_;
};

// One path's canonical rendering, independent of any renaming context (see above).
class CanonicalTemplate {
 public:
  // One ModelId (relation = false) or RelationId call, by absolute id.
  struct Call {
    int id = 0;
    bool relation = false;
  };

  // Replays the recorded calls on `ctx`, in call order, and appends the text with every
  // hole filled by the canonical id its call returned.
  void Render(CanonicalizationCtx* ctx, std::string* out) const;

 private:
  friend CanonicalTemplate CanonicalPathTemplate(const Schema& schema, const CodePath& path);

  // The id of calls_[call] goes at byte `offset` of text_.
  struct Hole {
    size_t offset = 0;
    uint32_t call = 0;
  };

  std::vector<Call> calls_;
  std::string text_;         // the rendering with the ids cut out; exact, any bytes
  std::vector<Hole> holes_;  // ascending offset
};

// Prints `path` canonically (see above). Argument names are canonicalized per path in
// declaration order, mirroring the encoder's pre-registration order.
CanonicalTemplate CanonicalPathTemplate(const Schema& schema, const CodePath& path);

// Renders `path` canonically under `ctx`: CanonicalPathTemplate(schema, path).Render(ctx).
std::string CanonicalPath(const Schema& schema, const CodePath& path, CanonicalizationCtx* ctx);

}  // namespace noctua::soir

#endif  // SRC_SOIR_PRINTER_H_
