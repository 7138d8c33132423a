// What the ledger benchmark feeds the program and what it expects back.
//
// Inputs are built only from the public app registry (apps::EvaluatedApps) plus the
// scripted developer edits of bench/incremental_sweep.cc, reproduced here so the
// benchmark depends on nothing but public headers. Expected outputs live in
// ledger/expected.json: one restriction-set digest per app, per edit and per
// revision, computed at width 1 under the deterministic budget (`--write-expected`
// regenerates them).
#ifndef LEDGER_SCENARIO_H_
#define LEDGER_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/verifier/report.h"

namespace ledger {

// The six evaluated apps, in registry order.
std::vector<std::string> AppNames();
noctua::app::App MakeApp(const std::string& name);

// The view each app's revision omits (the serve workload's omit_views revision and the
// edit workload's omit/restore pair).
std::string RevisionView(const std::string& app);
// The registry app minus `omit_view`, built the way the daemon builds an omit_views
// revision ("" = the app itself).
noctua::app::App MakeRevision(const std::string& app, const std::string& omit_view);
// Expected-output key of a revision: "App" or "App/omit:View".
std::string RevisionKey(const std::string& app, const std::string& omit_view);

// Gives every view a version tag so the incremental engine can memoize analysis per
// endpoint (real extraction layers hash the handler source).
void StampFingerprints(noctua::app::App& app);

// One op of the edit workload: re-analyze `make()` against a copy of a primed store.
struct EditVariant {
  std::string app;   // "Zhihu" or "OwnPhotos"
  std::string name;  // add_endpoint, edit_handler, rename_model, noop, omit_view, restore_view
  std::string expected_key;
  // Start from the store primed with RevisionView(app) omitted (restore_view), instead
  // of the store primed with the full app.
  bool from_omitted = false;
  std::function<noctua::app::App()> make;
};
std::vector<std::string> EditApps();
std::vector<EditVariant> EditVariants();

// Expected-output keys of the scripted edits whose restriction set differs from a base
// app or revision, with the functions that make them (for --write-expected).
std::vector<std::pair<std::string, std::function<noctua::app::App()>>> EditExpectations();

// FNV-1a 64 over the restricted pair names, one per line, as "fnv1a64:<16 hex>".
std::string RestrictionDigest(const std::vector<std::string>& restricted_pair_names);

struct ExpectedSet {
  size_t restrictions = 0;
  std::string digest;
  // Exact width-1 tallies; present for the six base apps only (0 otherwise).
  uint64_t solver_checks = 0;
  uint64_t smt_nodes = 0;
};

class Expected {
 public:
  bool Load(const std::string& path, std::string* error);
  // nullptr when `key` has no committed expectation.
  const ExpectedSet* Find(const std::string& key) const;

 private:
  std::map<std::string, ExpectedSet> sets_;
};

// "" when the restriction set matches `expected` and no verdict exhausted its budget;
// otherwise a one-line reason.
std::string CheckReport(const noctua::verifier::RestrictionReport& report,
                        const ExpectedSet* expected);
std::string CheckNames(const std::vector<std::string>& restricted_pair_names,
                       const ExpectedSet* expected);

// Verdicts of `report` that ran out of budget (timeout outcomes).
size_t BudgetExhausted(const noctua::verifier::RestrictionReport& report);

}  // namespace ledger

#endif  // LEDGER_SCENARIO_H_
