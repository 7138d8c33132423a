#include "scenario.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/analyzer/sym.h"
#include "src/analyzer/view_ctx.h"
#include "src/apps/apps.h"
#include "src/obs/json.h"

namespace ledger {

using noctua::analyzer::Sym;
using noctua::analyzer::SymObj;
using noctua::analyzer::SymSet;
using noctua::analyzer::ViewCtx;
using noctua::app::App;

std::vector<std::string> AppNames() {
  std::vector<std::string> names;
  for (const noctua::apps::AppEntry& e : noctua::apps::EvaluatedApps()) {
    names.push_back(e.name);
  }
  return names;
}

App MakeApp(const std::string& name) {
  for (const noctua::apps::AppEntry& e : noctua::apps::EvaluatedApps()) {
    if (e.name == name) {
      return e.make();
    }
  }
  std::fprintf(stderr, "ledger: unknown app %s\n", name.c_str());
  std::exit(2);
}

std::string RevisionView(const std::string& app) {
  static const std::map<std::string, std::string> kViews = {
      {"Todo", "reprioritize"},    {"PostGraduation", "drop_student"},
      {"Zhihu", "ReportAnswer"},   {"OwnPhotos", "block_user"},
      {"SmallBank", "Amalgamate"}, {"Courseware", "DeleteCourse"},
  };
  return kViews.at(app);
}

App MakeRevision(const std::string& app, const std::string& omit_view) {
  App base = MakeApp(app);
  if (omit_view.empty()) {
    return base;
  }
  App rev(base.name(), base.source_file());
  rev.schema() = base.schema();
  for (const noctua::app::View& view : base.views()) {
    if (view.name != omit_view) {
      rev.AddView(view.name, view.fn, view.fingerprint);
    }
  }
  return rev;
}

std::string RevisionKey(const std::string& app, const std::string& omit_view) {
  return omit_view.empty() ? app : app + "/omit:" + omit_view;
}

void StampFingerprints(App& app) {
  for (const noctua::app::View& view : app.views()) {
    app.SetViewFingerprint(view.name, view.name + "@v1");
  }
}

namespace {

// The scripted developer edits of bench/incremental_sweep.cc. Each mutates a freshly
// built, fingerprint-stamped app in place.
struct Edit {
  const char* name;
  std::function<void(App&)> apply;
};

std::vector<Edit> ZhihuEdits() {
  std::vector<Edit> edits;
  // A brand-new endpoint: discard the user's draft for a question.
  edits.push_back({"add_endpoint", [](App& app) {
    app.AddView(
        "DeleteDraft",
        [](ViewCtx& v) {
          SymObj author = v.Deref("User", v.ParamRef("user", "User"));
          SymObj q = v.Deref("Question", v.ParamRef("question", "Question"));
          SymSet drafts = v.M("Draft").filter("author", author).filter("question", q);
          v.Guard(drafts.exists());
          drafts.del();
        },
        "DeleteDraft@v1");
  }});
  // One handler body edited: upvotes are now worth 25 reputation instead of 10.
  edits.push_back({"edit_handler", [](App& app) {
    app.ReplaceView(
        "VoteAnswer",
        [](ViewCtx& v) {
          SymObj user = v.Deref("User", v.ParamRef("user", "User"));
          SymObj answer = v.M("Answer").get("id", v.ParamRef("answer", "Answer"));
          v.GuardUniqueTogether("Vote", {{"user", user}, {"answer", answer}});
          if (v.PostBool("positive")) {
            v.Create("Vote", {{"positive", Sym(true)}}, {{"user", user}, {"answer", answer}});
            answer.with("votes", answer.attr("votes") + 1).save();
            SymObj author = answer.rel("author");
            author.with("reputation", author.attr("reputation") + 25).save();
          } else {
            v.Create("Vote", {{"positive", Sym(false)}}, {{"user", user}, {"answer", answer}});
            answer.with("votes", answer.attr("votes") - 1).save();
          }
        },
        "VoteAnswer@v2");
  }});
  // A codebase-wide rename: model Draft becomes DraftPost and every handler mentioning
  // it is rewritten; nothing behavioral changed.
  edits.push_back({"rename_model", [](App& app) {
    noctua::soir::Schema& s = app.schema();
    s.RenameModel(s.ModelId("Draft"), "DraftPost");
    app.ReplaceView(
        "PostAnswer",
        [](ViewCtx& v) {
          SymObj author = v.Deref("User", v.ParamRef("user", "User"));
          SymObj q = v.Deref("Question", v.ParamRef("question", "Question"));
          if (v.PostBool("from_draft")) {
            SymObj draft =
                v.M("DraftPost").filter("author", author).filter("question", q).any();
            v.Create("Answer", {{"content", draft.attr("content")}, {"votes", Sym(0)}},
                     {{"question", q}, {"author", author}});
            v.M("DraftPost").filter("author", author).filter("question", q).del();
          } else {
            v.Create("Answer", {{"content", v.Post("content")}, {"votes", Sym(0)}},
                     {{"question", q}, {"author", author}});
          }
        },
        "PostAnswer@v1-renamed");
    app.ReplaceView(
        "SaveDraft",
        [](ViewCtx& v) {
          SymObj author = v.Deref("User", v.ParamRef("user", "User"));
          SymObj q = v.Deref("Question", v.ParamRef("question", "Question"));
          v.M("DraftPost").filter("author", author).filter("question", q).del();
          v.Create("DraftPost", {{"content", v.Post("content")}},
                   {{"author", author}, {"question", q}});
        },
        "SaveDraft@v1-renamed");
  }});
  return edits;
}

std::vector<Edit> OwnPhotosEdits() {
  std::vector<Edit> edits;
  // A brand-new endpoint: un-hide everything the user hid.
  edits.push_back({"add_endpoint", [](App& app) {
    app.AddView(
        "unhide_all",
        [](ViewCtx& v) {
          SymObj user = v.Deref("User", v.ParamRef("user", "User"));
          v.ClearLinks("hidden_photos", user);
        },
        "unhide_all@v1");
  }});
  // One handler body edited: ratings now go up to 10 stars.
  edits.push_back({"edit_handler", [](App& app) {
    app.ReplaceView(
        "rate_photo",
        [](ViewCtx& v) {
          SymObj user = v.Deref("User", v.ParamRef("user", "User"));
          SymObj photo = v.M("Photo").get("id", v.ParamRef("pk", "Photo"));
          if (!(photo.rel("owner").ref() == user.ref())) {
            v.Abort();
          }
          Sym rating = v.PostInt("rating");
          v.Guard(rating >= 0);
          v.Guard(rating <= 10);
          photo.with("rating", rating).save();
        },
        "rate_photo@v2");
  }});
  // Schema-only rename: no handler mentions Cluster by name.
  edits.push_back({"rename_model", [](App& app) {
    noctua::soir::Schema& s = app.schema();
    s.RenameModel(s.ModelId("Cluster"), "FaceCluster");
  }});
  return edits;
}

std::vector<Edit> EditsFor(const std::string& app) {
  return app == "Zhihu" ? ZhihuEdits() : OwnPhotosEdits();
}

std::function<App()> EditedApp(const std::string& app, const Edit& edit) {
  return [app, apply = edit.apply] {
    App a = MakeApp(app);
    StampFingerprints(a);
    apply(a);
    return a;
  };
}

uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::vector<std::string> EditApps() { return {"Zhihu", "OwnPhotos"}; }

std::vector<EditVariant> EditVariants() {
  std::vector<EditVariant> out;
  for (const std::string& app : EditApps()) {
    for (const Edit& edit : EditsFor(app)) {
      out.push_back({app, edit.name, app + "/" + edit.name, false, EditedApp(app, edit)});
    }
    auto stamped = [app](const std::string& omit) {
      return [app, omit] {
        App a = MakeRevision(app, omit);
        StampFingerprints(a);
        return a;
      };
    };
    // A re-run with nothing changed: a pure replay.
    out.push_back({app, "noop", app, false, stamped("")});
    // Omit one view, and restore it on top of the store that lacked it.
    const std::string view = RevisionView(app);
    out.push_back({app, "omit_view", RevisionKey(app, view), false, stamped(view)});
    out.push_back({app, "restore_view", app, true, stamped("")});
  }
  return out;
}

std::vector<std::pair<std::string, std::function<App()>>> EditExpectations() {
  std::vector<std::pair<std::string, std::function<App()>>> out;
  for (const std::string& app : EditApps()) {
    for (const Edit& edit : EditsFor(app)) {
      out.emplace_back(app + "/" + edit.name, EditedApp(app, edit));
    }
  }
  return out;
}

std::string RestrictionDigest(const std::vector<std::string>& names) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& n : names) {
    h = Fnv1a(n + "\n", h);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a64:%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool Expected::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  noctua::obs::JsonPtr doc = noctua::obs::ParseJson(text.str(), error);
  noctua::obs::JsonPtr sets = doc == nullptr ? nullptr : doc->Get("sets");
  if (sets == nullptr || !sets->is_object()) {
    *error = path + ": no \"sets\" object " + *error;
    return false;
  }
  for (const auto& [key, v] : sets->AsObject()) {
    ExpectedSet e;
    noctua::obs::JsonPtr count = v->Get("restrictions");
    noctua::obs::JsonPtr digest = v->Get("digest");
    if (count == nullptr || !count->is_number() || digest == nullptr || !digest->is_string()) {
      *error = path + ": set " + key + " lacks restrictions/digest";
      return false;
    }
    e.restrictions = static_cast<size_t>(count->AsInt());
    e.digest = digest->AsString();
    if (noctua::obs::JsonPtr c = v->Get("solver_checks"); c != nullptr && c->is_number()) {
      e.solver_checks = static_cast<uint64_t>(c->AsInt());
    }
    if (noctua::obs::JsonPtr n = v->Get("smt_nodes"); n != nullptr && n->is_number()) {
      e.smt_nodes = static_cast<uint64_t>(n->AsInt());
    }
    sets_[key] = e;
  }
  return true;
}

const ExpectedSet* Expected::Find(const std::string& key) const {
  auto it = sets_.find(key);
  return it == sets_.end() ? nullptr : &it->second;
}

std::string CheckNames(const std::vector<std::string>& names, const ExpectedSet* expected) {
  if (expected == nullptr) {
    return "no committed expected restriction set";
  }
  std::string digest = RestrictionDigest(names);
  if (names.size() != expected->restrictions || digest != expected->digest) {
    return std::to_string(names.size()) + " restrictions " + digest + ", expected " +
           std::to_string(expected->restrictions) + " " + expected->digest;
  }
  return "";
}

size_t BudgetExhausted(const noctua::verifier::RestrictionReport& report) {
  size_t n = 0;
  for (const noctua::verifier::PairVerdict& v : report.pairs) {
    n += (v.commutativity == noctua::verifier::CheckOutcome::kTimeout ? 1 : 0) +
         (v.semantic == noctua::verifier::CheckOutcome::kTimeout ? 1 : 0);
  }
  return n;
}

std::string CheckReport(const noctua::verifier::RestrictionReport& report,
                        const ExpectedSet* expected) {
  if (size_t n = BudgetExhausted(report); n > 0) {
    return std::to_string(n) + " verdicts exhausted their budget";
  }
  return CheckNames(report.RestrictedPairNames(), expected);
}

}  // namespace ledger
