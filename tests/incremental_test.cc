// Tests for the incremental analysis engine: stable serialization of schemas, code
// paths, analyses, and verdicts; renaming-invariant content digests; the on-disk
// artifact store with its fail-closed loader; and O(change) re-verification — a warm
// run must produce the byte-identical restriction set of a cold run while replaying
// every verdict the edit did not touch.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/pipeline.h"
#include "src/pipeline/session.h"
#include "src/soir/printer.h"
#include "src/soir/serialize.h"
#include "src/support/hash.h"
#include "src/verifier/cache.h"

namespace noctua {
namespace {

using analyzer::Sym;
using analyzer::SymObj;
using analyzer::SymSet;
using analyzer::ViewCtx;
using soir::FieldDef;
using soir::FieldType;
using soir::OnDelete;
using soir::RelationKind;

// ------------------------------------------------------------------ parameterized app
//
// A small lending app whose every name is a parameter captured by the handlers, so a
// "codebase-wide rename" edit is literally the same program under different names —
// the scenario the renaming-invariant digests must see through.

struct LibraryNames {
  std::string book = "Book";
  std::string member = "Member";
  std::string loan = "Loan";
  std::string title = "title";
  std::string copies = "copies";
  std::string borrower = "borrower";
  std::string of_book = "of_book";
};

struct LibraryConfig {
  LibraryNames names;
  // Guard constant in the checkout handler: changing it is the "developer edited a
  // handler body" scenario (the fingerprint tracks it).
  int min_copies = 1;
  // Registers one extra endpoint (the "developer added an endpoint" scenario).
  bool with_review = false;
  // Appended to every handler fingerprint — models "the rename rewrote every handler's
  // source" without changing any handler's behavior.
  std::string fp_suffix;
};

app::App MakeLibraryApp(const LibraryConfig& cfg) {
  app::App app("library", __FILE__);
  soir::Schema& s = app.schema();
  const LibraryNames n = cfg.names;

  s.AddModel(n.book);
  s.AddField(n.book, FieldDef{.name = n.title, .type = FieldType::kString});
  s.AddField(n.book, FieldDef{.name = n.copies, .type = FieldType::kInt});
  s.AddModel(n.member);
  s.AddField(n.member, FieldDef{.name = "name", .type = FieldType::kString});
  s.AddModel(n.loan);
  s.AddField(n.loan, FieldDef{.name = "created", .type = FieldType::kDatetime});
  s.AddRelation(n.borrower, n.loan, n.member, RelationKind::kManyToOne, OnDelete::kCascade,
                "loans");
  s.AddRelation(n.of_book, n.loan, n.book, RelationKind::kManyToOne, OnDelete::kCascade,
                "book_loans");

  app.AddView(
      "add_book",
      [n](ViewCtx& v) {
        v.Create(n.book, {{n.title, v.Post("title")}, {n.copies, v.PostInt("copies")}});
      },
      "add_book@v1" + cfg.fp_suffix);

  const int min_copies = cfg.min_copies;
  app.AddView(
      "checkout",
      [n, min_copies](ViewCtx& v) {
        SymObj member = v.Deref(n.member, v.ParamRef("member", n.member));
        SymObj book = v.M(n.book).get("id", v.ParamRef("book", n.book));
        v.Guard(book.attr(n.copies) >= min_copies);
        v.Create(n.loan, {{"created", v.PostInt("now")}},
                 {{n.borrower, member}, {n.of_book, book}});
        book.with(n.copies, book.attr(n.copies) - 1).save();
      },
      "checkout@min" + std::to_string(min_copies) + cfg.fp_suffix);

  app.AddView(
      "return_book",
      [n](ViewCtx& v) {
        SymObj member = v.Deref(n.member, v.ParamRef("member", n.member));
        SymObj book = v.M(n.book).get("id", v.ParamRef("book", n.book));
        SymSet loan = v.M(n.loan).filter(n.borrower, member).filter(n.of_book, book);
        v.Guard(loan.exists());
        loan.del();
        book.with(n.copies, book.attr(n.copies) + 1).save();
      },
      "return_book@v1" + cfg.fp_suffix);

  if (cfg.with_review) {
    app.AddView(
        "review",
        [n](ViewCtx& v) {
          SymObj book = v.M(n.book).get("id", v.ParamRef("book", n.book));
          book.with(n.title, v.Post("title")).save();
        },
        "review@v1" + cfg.fp_suffix);
  }
  return app;
}

LibraryConfig RenamedConfig(const std::string& fp_suffix) {
  LibraryConfig cfg;
  cfg.names.book = "Tome";
  cfg.names.member = "Patron";
  cfg.names.loan = "Lending";
  cfg.names.title = "headline";
  cfg.names.copies = "stock";
  cfg.names.borrower = "holder";
  cfg.names.of_book = "of_tome";
  cfg.fp_suffix = fp_suffix;
  return cfg;
}

// --------------------------------------------------------------------------- helpers

std::string TempStore(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/noctua_incremental_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

IncrementalOptions Opts(int threads = 2) {
  IncrementalOptions o;
  o.pipeline.parallel.threads = threads;
  // Pin the solver to its node budget so verdicts are identical run-to-run even on a
  // loaded machine — the identity assertions below are exact.
  o.pipeline.checker.solver.budget.deterministic = true;
  return o;
}

std::vector<std::string> VerdictLines(const verifier::RestrictionReport& report) {
  std::vector<std::string> out;
  out.reserve(report.pairs.size());
  for (const auto& v : report.pairs) {
    out.push_back(v.p + "|" + v.q + "|" + verifier::CheckOutcomeName(v.commutativity) +
                  "|" + verifier::CheckOutcomeName(v.semantic));
  }
  return out;
}

// The strict O(change) property: any pair not involving a view in `changed` must have
// been replayed (or prefiltered) — never solved this run.
void ExpectUnchangedPairsReplayed(const verifier::RestrictionReport& report,
                                  const std::set<std::string>& changed) {
  auto view_of = [](const std::string& op) { return op.substr(0, op.find('#')); };
  for (const auto& v : report.pairs) {
    if (changed.count(view_of(v.p)) != 0 || changed.count(view_of(v.q)) != 0) {
      continue;
    }
    EXPECT_NE(v.provenance, verifier::PairProvenance::kComputed)
        << "(" << v.p << ", " << v.q << ") was re-verified but neither endpoint changed";
  }
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  ASSERT_TRUE(out.good()) << path;
}

// -------------------------------------------------------------- serialization round-trips

TEST(SerializeTest, SchemaRoundTripsToIdenticalDigests) {
  app::App a = apps::MakeZhihuApp();
  soir::ArtifactWriter w;
  soir::SerializeSchema(a.schema(), &w);

  soir::ArtifactReader r(w.str());
  soir::Schema copy;
  ASSERT_TRUE(soir::DeserializeSchema(&r, &copy));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(copy.ToString(), a.schema().ToString());
  EXPECT_EQ(soir::SchemaContentDigest(copy), soir::SchemaContentDigest(a.schema()));
  EXPECT_EQ(soir::SchemaStructuralDigest(copy), soir::SchemaStructuralDigest(a.schema()));
}

TEST(SerializeTest, StructuralDigestSurvivesRenamesOnly) {
  app::App b = MakeLibraryApp(RenamedConfig(""));
  app::App base = MakeLibraryApp(LibraryConfig{});
  // Renaming every model/field/relation preserves structure but changes exact content.
  EXPECT_EQ(soir::SchemaStructuralDigest(b.schema()),
            soir::SchemaStructuralDigest(base.schema()));
  EXPECT_NE(soir::SchemaContentDigest(b.schema()),
            soir::SchemaContentDigest(base.schema()));
  // A real structural edit (extra field) changes both.
  app::App extra = MakeLibraryApp(LibraryConfig{});
  extra.schema().AddField("Member",
                          FieldDef{.name = "email", .type = FieldType::kString});
  EXPECT_NE(soir::SchemaStructuralDigest(extra.schema()),
            soir::SchemaStructuralDigest(base.schema()));
}

TEST(SerializeTest, CodePathsRoundTripWithIdenticalDigestsAndCanonicalForm) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);
  ASSERT_FALSE(analysis.paths.empty());
  for (const soir::CodePath& p : analysis.paths) {
    soir::ArtifactWriter w;
    soir::SerializeCodePath(p, &w);
    soir::ArtifactReader r(w.str());
    soir::CodePath copy;
    ASSERT_TRUE(soir::DeserializeCodePath(&r, a.schema(), &copy)) << p.op_name;
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(copy.op_name, p.op_name);
    EXPECT_EQ(soir::PathDigest(a.schema(), copy), soir::PathDigest(a.schema(), p));
    soir::CanonicalizationCtx c1(a.schema());
    soir::CanonicalizationCtx c2(a.schema());
    EXPECT_EQ(soir::CanonicalPath(a.schema(), copy, &c1),
              soir::CanonicalPath(a.schema(), p, &c2));
  }
}

TEST(SerializeTest, AnalysisRoundTripValidates) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);
  soir::ArtifactWriter w;
  analyzer::SerializeAnalysis(analysis, &w);

  soir::ArtifactReader r(w.str());
  analyzer::AnalysisResult copy;
  ASSERT_TRUE(analyzer::DeserializeAnalysis(&r, a.schema(), &copy));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(copy.paths.size(), analysis.paths.size());
  EXPECT_EQ(copy.num_code_paths, analysis.num_code_paths);
  EXPECT_EQ(copy.num_effectful, analysis.num_effectful);
  EXPECT_EQ(copy.endpoint_digests, analysis.endpoint_digests);
  EXPECT_EQ(copy.endpoint_code_paths, analysis.endpoint_code_paths);
  EXPECT_TRUE(analyzer::ValidateAnalysisDigests(a.schema(), copy));
}

TEST(SerializeTest, VerdictCachePersistsAndMarksReplayed) {
  verifier::VerdictCache cache;
  cache.Insert("com|a \"quoted\" key\nwith newline", verifier::CheckOutcome::kFail);
  cache.Insert("ni|simple", verifier::CheckOutcome::kPass);
  std::string file = TempStore("verdicts") + ".verdicts";
  ASSERT_TRUE(cache.SaveToFile(file));

  verifier::VerdictCache loaded;
  ASSERT_TRUE(loaded.LoadFromFile(file));
  EXPECT_EQ(loaded.size(), 2u);
  auto entry = loaded.LookupEntry("com|a \"quoted\" key\nwith newline");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->outcome, verifier::CheckOutcome::kFail);
  EXPECT_TRUE(entry->replayed);

  // Corruption fails closed and leaves the cache untouched.
  std::string data = ReadAll(file);
  for (const std::string& bad :
       {data.substr(0, data.size() / 2), std::string("garbage"),
        std::string("noctua-verdicts 999 0"), data + " trailing"}) {
    WriteAll(file, bad);
    verifier::VerdictCache fresh;
    EXPECT_FALSE(fresh.LoadFromFile(file));
    EXPECT_EQ(fresh.size(), 0u);
  }
}

// ----------------------------------------------------------- fingerprint anti-collision

TEST(FingerprintAntiCollisionTest, DifferentGuardLiteralsGetDifferentKeys) {
  LibraryConfig one;
  LibraryConfig five;
  five.min_copies = 5;
  app::App a1 = MakeLibraryApp(one);
  app::App a5 = MakeLibraryApp(five);
  analyzer::AnalysisResult r1 = analyzer::AnalyzeApp(a1);
  analyzer::AnalysisResult r5 = analyzer::AnalyzeApp(a5);
  // Only the guard constant differs; the digests and the verdict keys must separate.
  EXPECT_NE(r1.endpoint_digests.at("checkout"), r5.endpoint_digests.at("checkout"));
  EXPECT_EQ(r1.endpoint_digests.at("add_book"), r5.endpoint_digests.at("add_book"));

  auto path_of = [](const analyzer::AnalysisResult& r, const std::string& view) {
    for (const soir::CodePath& p : r.EffectfulPaths()) {
      if (p.view_name == view) {
        return p;
      }
    }
    ADD_FAILURE() << "no effectful path for " << view;
    return soir::CodePath{};
  };
  soir::CodePath p1 = path_of(r1, "checkout");
  soir::CodePath p5 = path_of(r5, "checkout");
  EXPECT_NE(verifier::CommutativityKey(a1.schema(), p1, p1, {}),
            verifier::CommutativityKey(a5.schema(), p5, p5, {}));
  EXPECT_NE(verifier::NotInvalidateKey(a1.schema(), p1, p1),
            verifier::NotInvalidateKey(a5.schema(), p5, p5));
}

TEST(FingerprintAntiCollisionTest, DirectionOrderAndPairingChangeKeys) {
  app::App a = MakeLibraryApp(LibraryConfig{});
  analyzer::AnalysisResult r = analyzer::AnalyzeApp(a);
  const soir::CodePath* checkout = nullptr;
  const soir::CodePath* add_book = nullptr;
  const soir::CodePath* ret = nullptr;
  for (const soir::CodePath& p : r.EffectfulPaths()) {
    if (p.view_name == "checkout") checkout = &p;
    if (p.view_name == "add_book") add_book = &p;
    if (p.view_name == "return_book") ret = &p;
  }
  ASSERT_TRUE(checkout != nullptr && add_book != nullptr && ret != nullptr);

  // NotInvalidate is directed: (p, q) and (q, p) are different queries.
  EXPECT_NE(verifier::NotInvalidateKey(a.schema(), *checkout, *add_book),
            verifier::NotInvalidateKey(a.schema(), *add_book, *checkout));
  // Pairing the same path with different partners separates.
  EXPECT_NE(verifier::CommutativityKey(a.schema(), *checkout, *add_book, {}),
            verifier::CommutativityKey(a.schema(), *checkout, *ret, {}));
  // Order membership of a mentioned model is part of the commutativity fingerprint.
  int book = a.schema().ModelId("Book");
  EXPECT_NE(verifier::CommutativityKey(a.schema(), *checkout, *add_book, {}),
            verifier::CommutativityKey(a.schema(), *checkout, *add_book, {book}));
}

TEST(FingerprintAntiCollisionTest, SmallBankDigestsSeparateFieldSlots) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult r = analyzer::AnalyzeApp(a);
  std::map<std::string, std::string> digest = r.endpoint_digests;
  // SendPayment and Amalgamate are canonically the same operation (the cache's win)...
  EXPECT_EQ(digest.at("SendPayment"), digest.at("Amalgamate"));
  // ...but operations over different field slots must keep distinct digests.
  EXPECT_NE(digest.at("DepositChecking"), digest.at("TransactSavings"));
  EXPECT_NE(digest.at("DepositChecking"), digest.at("SendPayment"));
}

// ------------------------------------------------------------------- composed key texts

// The scripted developer edits that add new path shapes to Zhihu and OwnPhotos (the
// edit workload of the benchmark): one added endpoint and one edited handler each,
// plus a schema-only model rename.
std::vector<app::App> EditedApps() {
  std::vector<app::App> out;
  auto stamped = [](app::App a) {
    for (const app::View& view : a.views()) {
      a.SetViewFingerprint(view.name, view.name + "@v1");
    }
    return a;
  };
  {
    app::App a = stamped(apps::MakeZhihuApp());
    a.AddView(
        "DeleteDraft",
        [](ViewCtx& v) {
          SymObj author = v.Deref("User", v.ParamRef("user", "User"));
          SymObj q = v.Deref("Question", v.ParamRef("question", "Question"));
          SymSet drafts = v.M("Draft").filter("author", author).filter("question", q);
          v.Guard(drafts.exists());
          drafts.del();
        },
        "DeleteDraft@v1");
    a.ReplaceView(
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
    out.push_back(std::move(a));
  }
  {
    app::App a = stamped(apps::MakeOwnPhotosApp());
    a.AddView(
        "unhide_all",
        [](ViewCtx& v) {
          SymObj user = v.Deref("User", v.ParamRef("user", "User"));
          v.ClearLinks("hidden_photos", user);
        },
        "unhide_all@v1");
    a.ReplaceView(
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
    a.schema().RenameModel(a.schema().ModelId("Cluster"), "FaceCluster");
    out.push_back(std::move(a));
  }
  return out;
}

// A pair's key text is composed from the two paths' templates, printed once per run;
// it must equal the rendering of both paths on one shared context plus the order part
// and the schema signature, byte for byte, for every ordered pair.
TEST(ComposedKeyTest, EveryOrderedPairMatchesTheSharedContextRendering) {
  std::vector<app::App> all;
  for (const apps::AppEntry& entry : apps::EvaluatedApps()) {
    all.push_back(entry.make());
  }
  for (app::App& a : EditedApps()) {
    all.push_back(std::move(a));
  }
  LibraryConfig edited;
  edited.min_copies = 5;
  edited.with_review = true;
  all.push_back(MakeLibraryApp(edited));
  all.push_back(MakeLibraryApp(RenamedConfig("")));

  for (const app::App& a : all) {
    SCOPED_TRACE(a.name());
    const soir::Schema& schema = a.schema();
    const std::vector<soir::CodePath> paths = analyzer::AnalyzeApp(a).EffectfulPaths();
    std::vector<verifier::PathFacts> facts;
    std::set<int> app_order;
    for (const soir::CodePath& p : paths) {
      facts.emplace_back(schema, p);
      app_order.insert(facts.back().order_models.begin(), facts.back().order_models.end());
    }
    size_t mismatches = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
      for (size_t j = 0; j < paths.size(); ++j) {
        std::set<int> ni_order = facts[i].order_models;
        ni_order.insert(facts[j].order_models.begin(), facts[j].order_models.end());
        soir::CanonicalizationCtx ctx(schema);
        std::string body = soir::CanonicalPath(schema, paths[i], &ctx);  // p first
        body += "|" + soir::CanonicalPath(schema, paths[j], &ctx);
        auto bits = [&](const std::set<int>& order) {
          std::string out = "|ord:";
          for (int m : ctx.models()) {
            out += order.count(m) != 0 ? '1' : '0';
          }
          return out + "|" + ctx.SchemaSignature();
        };
        const std::string com = "com|" + body + bits(app_order);
        const std::string ni = "ni|" + body + bits(ni_order);

        verifier::PairKeyText composed(schema, facts[i].canon, facts[j].canon);
        bool ok = composed.Text("com", app_order) == com && composed.Text("ni", ni_order) == ni &&
                  composed.ctx().models() == ctx.models() &&
                  composed.ctx().relations() == ctx.relations();
        // The public wrappers are the same composition.
        if (i == j || (i + j) % 7 == 0) {
          ok = ok && verifier::CommutativityKey(schema, paths[i], paths[j], app_order) == com &&
               verifier::NotInvalidateKey(schema, paths[i], paths[j]) == ni;
        }
        if (!ok && ++mismatches <= 3) {
          ADD_FAILURE() << "(" << paths[i].op_name << ", " << paths[j].op_name
                        << ") composes a different key text";
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

// The template cuts ids out of the printed text with a marker byte; a string literal
// carrying that byte (or anything that looks like an escaped marker) must come back
// exactly.
TEST(ComposedKeyTest, StringLiteralsWithTheMarkerByteRoundTrip) {
  app::App a = apps::MakeSmallBankApp();
  const std::string literals[] = {
      std::string("\x01"),
      std::string("a\x01\xff\xff\xff\xff" "b"),
      std::string("\x01\x00\x00\x00\x00", 5),
      std::string("\x01\x01\x01"),
      std::string("plain"),
  };
  for (const std::string& lit : literals) {
    soir::CodePath path;
    path.op_name = "probe";
    path.args.push_back(soir::ArgDef{"r", soir::Type::Ref(0), false});
    path.args.push_back(soir::ArgDef{"s", soir::Type::String(), false});
    soir::Command guard;
    guard.kind = soir::CommandKind::kGuard;
    guard.a = soir::MakeCmp(soir::CmpOp::kEq, soir::MakeArg("s", soir::Type::String()),
                            soir::MakeStrLit(lit));
    path.commands.push_back(guard);

    soir::CanonicalizationCtx ctx(a.schema());
    EXPECT_EQ(soir::CanonicalPath(a.schema(), path, &ctx),
              "args(a0:R0;a1:s;) guard((a1 ==/s \"" + lit + "\"));")
        << lit.size();
    EXPECT_EQ(ctx.models(), std::vector<int>{0});
  }
}

// --------------------------------------------------------------------- verdict key digests

TEST(KeyDigestTest, Murmur3MatchesReferenceVectors) {
  struct Vector {
    std::string data;
    const char* hex;
  };
  // The fox line is the algorithm's published vector (bytes 6c1b07bc...437a, read here
  // as two little-endian words); the others cover every tail-length branch.
  const Vector vectors[] = {
      {"", "00000000000000000000000000000000"},
      {"The quick brown fox jumps over the lazy dog", "e34bbc7bbc071b6c7a433ca9c49a9347"},
      {"hello", "cbd8a7b341bd9b025b1e906a48ae1d19"},
      {std::string(15, 'a'), "7d07a8dbfd2e7fbc8fa8044aa85ff959"},
      {std::string(16, 'a'), "f2c1180d62aaa6ce6af6f3032bb23942"},
      {std::string(17, 'a'), "6f7214c7cef2d698a4fdbc534edea5bb"},
      {std::string(33, 'a'), "e02ec376f433d4bdaee356bb9dde9f01"},
  };
  for (const Vector& v : vectors) {
    Hash128 h = Murmur3x64_128(v.data);
    EXPECT_EQ(h.Hex(), v.hex) << v.data.size() << " bytes";
    Hash128 back;
    ASSERT_TRUE(Hash128::FromHex(h.Hex(), &back));
    EXPECT_EQ(back, h);
  }
  Hash128 untouched{1, 2};
  EXPECT_FALSE(Hash128::FromHex("abc", &untouched));
  EXPECT_FALSE(Hash128::FromHex(std::string(32, 'g'), &untouched));
  EXPECT_FALSE(Hash128::FromHex(std::string(32, 'A'), &untouched));
  EXPECT_EQ(untouched, (Hash128{1, 2}));
}

TEST(KeyDigestTest, GoldenDigestOfAFixedKeyText) {
  const std::string text =
      "com|args(a0:R0;) guard(exists(filter(fpk ==/R0 a0, all<m0>)));|args(a0:R0;) "
      "delete(filter(fpk ==/R0 a0, all<m0>))[];|ord:0|m0[i];";
  EXPECT_EQ(verifier::VerdictKey(text).digest.Hex(), "18989f5c6f9f41fd63e9bb33315c2ad3");

  // Under default options the digested text is the option prefix plus the key text.
  verifier::CheckerOptions options;
  app::App a = apps::MakeSmallBankApp();
  soir::CanonicalizationCtx ctx(a.schema());
  verifier::VerdictKeyer keyer(options);
  EXPECT_EQ(keyer.Material(text, ctx), "opt:k2,i8,s6,o1,u1,f1,p1|" + text);
  EXPECT_EQ(keyer.Key(text, ctx).digest.Hex(), "b50b62b91598b1d315871456be48670f");
}

TEST(KeyDigestTest, OnlyVerdictDecidingOptionsSeparateKeys) {
  app::App a = apps::MakeSmallBankApp();
  soir::CanonicalizationCtx ctx(a.schema());
  ctx.ModelId(0);
  const std::string text = "com|x";
  verifier::CheckerOptions base;
  const verifier::VerdictKey reference = verifier::VerdictKeyer(base).Key(text, ctx);
  auto key_with = [&](const std::function<void(verifier::CheckerOptions&)>& change) {
    verifier::CheckerOptions o = base;
    change(o);
    return verifier::VerdictKeyer(o).Key(text, ctx);
  };

  const std::vector<std::function<void(verifier::CheckerOptions&)>> deciding = {
      [](verifier::CheckerOptions& o) { o.solver.scope = smt::Scope(3); },
      [](verifier::CheckerOptions& o) { o.solver.scope.SetModelSize(0, 3); },
      [](verifier::CheckerOptions& o) { o.solver.max_int_domain = 9; },
      [](verifier::CheckerOptions& o) { o.solver.max_string_domain = 7; },
      [](verifier::CheckerOptions& o) { o.encoder.use_order = false; },
      [](verifier::CheckerOptions& o) { o.encoder.unique_id_optimization = false; },
      [](verifier::CheckerOptions& o) { o.fresh_origin_states = false; },
      [](verifier::CheckerOptions& o) { o.project_footprint = false; },
  };
  std::set<std::string> seen = {reference.digest.Hex()};
  for (const auto& change : deciding) {
    EXPECT_TRUE(seen.insert(key_with(change).digest.Hex()).second);
  }
  // A size override of a model the pair does not mention cannot change its verdict.
  EXPECT_EQ(key_with([](verifier::CheckerOptions& o) { o.solver.scope.SetModelSize(1, 2); }),
            reference);

  // Speed-only options and the budget share verdicts.
  const std::vector<std::function<void(verifier::CheckerOptions&)>> speed_only = {
      [](verifier::CheckerOptions& o) { o.solver.symmetry = smt::Toggle::kOff; },
      [](verifier::CheckerOptions& o) { o.solver.incremental = smt::Toggle::kOff; },
      [](verifier::CheckerOptions& o) { o.independence_prefilter = false; },
      [](verifier::CheckerOptions& o) { o.solver.budget.max_nodes = 10; },
      [](verifier::CheckerOptions& o) { o.solver.budget.deterministic = true; },
  };
  for (const auto& change : speed_only) {
    EXPECT_EQ(key_with(change), reference);
  }
}

TEST(KeyDigestTest, TimeoutsAreNeverCachedAndAStoreCarryingOneFailsClosed) {
  verifier::VerdictCache cache;
  cache.Insert("slow", verifier::CheckOutcome::kTimeout);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.computed(), 0u);
  cache.Insert("fast", verifier::CheckOutcome::kPass);
  EXPECT_EQ(cache.computed(), 1u);

  std::string file = TempStore("timeout_store") + ".verdicts";
  soir::ArtifactWriter w;
  w.Atom("noctua-verdicts");
  w.Int(soir::kArtifactVersion);
  w.Int(1);
  w.Str(verifier::VerdictKey("slow").digest.Hex());
  w.Int(static_cast<int64_t>(verifier::CheckOutcome::kTimeout));
  WriteAll(file, w.str());
  verifier::VerdictCache loaded;
  EXPECT_FALSE(loaded.LoadFromFile(file));
  EXPECT_EQ(loaded.size(), 0u);
}

// ------------------------------------------------------------------- incremental engine

TEST(IncrementalTest, WarmRunReplaysEverythingWhenNothingChanged) {
  std::string store = TempStore("unchanged");
  app::App a = MakeLibraryApp(LibraryConfig{});
  IncrementalResult cold = Pipeline::RunIncremental(a, store, Opts());
  EXPECT_TRUE(cold.cold);
  EXPECT_EQ(cold.pairs_replayed, 0u);
  ASSERT_FALSE(cold.run.restrictions.pairs.empty());

  app::App again = MakeLibraryApp(LibraryConfig{});
  IncrementalResult warm = Pipeline::RunIncremental(again, store, Opts());
  EXPECT_FALSE(warm.cold);
  EXPECT_TRUE(warm.changed_endpoints.empty());
  EXPECT_EQ(warm.endpoints_reused, again.views().size());
  EXPECT_EQ(warm.pairs_computed, 0u);
  ExpectUnchangedPairsReplayed(warm.run.restrictions, {});
  EXPECT_EQ(VerdictLines(warm.run.restrictions), VerdictLines(cold.run.restrictions));
}

TEST(IncrementalTest, HandlerEditReverifiesOnlyPairsTouchingIt) {
  std::string store = TempStore("handler_edit");
  Pipeline::RunIncremental(MakeLibraryApp(LibraryConfig{}), store, Opts());

  LibraryConfig edited;
  edited.min_copies = 5;  // checkout's guard changed (and so did its fingerprint)
  app::App b = MakeLibraryApp(edited);
  IncrementalResult warm = Pipeline::RunIncremental(b, store, Opts());
  EXPECT_FALSE(warm.cold);
  EXPECT_EQ(warm.changed_endpoints, std::vector<std::string>{"checkout"});
  EXPECT_EQ(warm.endpoints_reused, b.views().size() - 1);
  EXPECT_GT(warm.pairs_replayed, 0u);
  ExpectUnchangedPairsReplayed(warm.run.restrictions, {"checkout"});

  // Byte-identical to a from-scratch run of the edited app.
  std::string cold_store = TempStore("handler_edit_cold");
  IncrementalResult cold = Pipeline::RunIncremental(MakeLibraryApp(edited), cold_store, Opts());
  EXPECT_EQ(VerdictLines(warm.run.restrictions), VerdictLines(cold.run.restrictions));
}

TEST(IncrementalTest, AddedEndpointReverifiesOnlyItsPairs) {
  std::string store = TempStore("add_endpoint");
  Pipeline::RunIncremental(MakeLibraryApp(LibraryConfig{}), store, Opts());

  LibraryConfig with_review;
  with_review.with_review = true;
  app::App b = MakeLibraryApp(with_review);
  IncrementalResult warm = Pipeline::RunIncremental(b, store, Opts());
  EXPECT_FALSE(warm.cold);
  EXPECT_EQ(warm.changed_endpoints, std::vector<std::string>{"review"});
  ExpectUnchangedPairsReplayed(warm.run.restrictions, {"review"});

  std::string cold_store = TempStore("add_endpoint_cold");
  IncrementalResult cold =
      Pipeline::RunIncremental(MakeLibraryApp(with_review), cold_store, Opts());
  EXPECT_EQ(VerdictLines(warm.run.restrictions), VerdictLines(cold.run.restrictions));
}

TEST(IncrementalTest, RenameOnlyEditReplaysEveryVerdict) {
  std::string store = TempStore("rename");
  app::App a = MakeLibraryApp(LibraryConfig{});
  IncrementalResult cold = Pipeline::RunIncremental(a, store, Opts());

  // The rename rewrote every handler's source (fingerprints change), so analysis re-runs
  // — but every digest and every verdict fingerprint is renaming-invariant: nothing is
  // re-verified and the restriction set is byte-identical.
  app::App renamed = MakeLibraryApp(RenamedConfig("@renamed"));
  IncrementalResult warm = Pipeline::RunIncremental(renamed, store, Opts());
  EXPECT_FALSE(warm.cold);
  EXPECT_EQ(warm.endpoints_reused, 0u);
  EXPECT_TRUE(warm.changed_endpoints.empty())
      << "a pure rename must not change any endpoint digest";
  EXPECT_EQ(warm.pairs_computed, 0u) << "a pure rename must replay 100% of verdicts";
  ExpectUnchangedPairsReplayed(warm.run.restrictions, {});
  EXPECT_EQ(VerdictLines(warm.run.restrictions), VerdictLines(cold.run.restrictions));

  // Schema-only rename with untouched handlers (fingerprints equal): analysis memoizes
  // on top of the verdict replay.
  app::App renamed_again = MakeLibraryApp(RenamedConfig("@renamed"));
  IncrementalResult memo = Pipeline::RunIncremental(renamed_again, store, Opts());
  EXPECT_FALSE(memo.cold);
  EXPECT_EQ(memo.endpoints_reused, renamed_again.views().size());
  EXPECT_EQ(memo.pairs_computed, 0u);
  EXPECT_EQ(VerdictLines(memo.run.restrictions), VerdictLines(cold.run.restrictions));
}

TEST(IncrementalTest, StructuralSchemaEditFallsBackToCold) {
  std::string store = TempStore("schema_edit");
  Pipeline::RunIncremental(MakeLibraryApp(LibraryConfig{}), store, Opts());

  app::App b = MakeLibraryApp(LibraryConfig{});
  b.schema().AddField("Member", FieldDef{.name = "email", .type = FieldType::kString});
  IncrementalResult warm = Pipeline::RunIncremental(b, store, Opts());
  EXPECT_TRUE(warm.cold) << "model ids cannot be trusted across structural edits";
}

TEST(IncrementalTest, CorruptedArtifactsFallBackToColdWithIdenticalVerdicts) {
  std::string store = TempStore("corrupt");
  app::App a = MakeLibraryApp(LibraryConfig{});
  IncrementalResult reference = Pipeline::RunIncremental(a, store, Opts());
  std::vector<std::string> expected = VerdictLines(reference.run.restrictions);

  struct Corruption {
    const char* file;
    enum { kTruncate, kGarbage, kVersion, kDelete } kind;
  };
  const Corruption kCorruptions[] = {
      {"analysis", Corruption::kTruncate},
      {"verdicts", Corruption::kGarbage},
      {"manifest", Corruption::kVersion},
      {"schema", Corruption::kDelete},
  };
  for (const Corruption& c : kCorruptions) {
    std::string path = store + "/" + c.file;
    switch (c.kind) {
      case Corruption::kTruncate:
        WriteAll(path, ReadAll(path).substr(0, ReadAll(path).size() / 2));
        break;
      case Corruption::kGarbage:
        WriteAll(path, "not an artifact at all {{{");
        break;
      case Corruption::kVersion:
        WriteAll(path, "noctua-manifest 9999 \"library\" \"x\" \"y\"");
        break;
      case Corruption::kDelete:
        std::filesystem::remove(path);
        break;
    }
    IncrementalResult warm = Pipeline::RunIncremental(a, store, Opts());
    EXPECT_TRUE(warm.cold) << c.file << " corruption must degrade to a cold run";
    EXPECT_EQ(VerdictLines(warm.run.restrictions), expected) << c.file;
    // The run re-saved good artifacts; prove the store recovered.
    IncrementalResult recovered = Pipeline::RunIncremental(a, store, Opts());
    EXPECT_FALSE(recovered.cold) << c.file;
  }
}

TEST(IncrementalTest, RealAppsReplayByteIdentical) {
  for (const apps::AppEntry& entry : {apps::AppEntry{"SmallBank", apps::MakeSmallBankApp},
                                      apps::AppEntry{"Courseware", apps::MakeCoursewareApp}}) {
    std::string store = TempStore(std::string("real_") + entry.name);
    app::App a = entry.make();
    IncrementalResult cold = Pipeline::RunIncremental(a, store, Opts());
    EXPECT_TRUE(cold.cold) << entry.name;

    app::App b = entry.make();
    IncrementalResult warm = Pipeline::RunIncremental(b, store, Opts());
    EXPECT_FALSE(warm.cold) << entry.name;
    EXPECT_TRUE(warm.changed_endpoints.empty()) << entry.name;
    EXPECT_EQ(warm.pairs_computed, 0u) << entry.name;
    EXPECT_EQ(VerdictLines(warm.run.restrictions), VerdictLines(cold.run.restrictions))
        << entry.name;
  }
}

TEST(IncrementalTest, PureReplayWritesNothingAndAnEditRewritesWhatChanged) {
  std::string store = TempStore("write_skip");
  Pipeline::RunIncremental(MakeLibraryApp(LibraryConfig{}), store, Opts());

  // Backdate every file: a rewrite would move its modification time to now.
  const char* files[] = {"manifest", "schema", "analysis", "verdicts"};
  const auto backdated = std::filesystem::file_time_type::clock::now() - std::chrono::hours(1);
  std::map<std::string, std::string> bytes;
  for (const char* f : files) {
    std::filesystem::last_write_time(store + "/" + f, backdated);
    bytes[f] = ReadAll(store + "/" + f);
  }
  auto untouched = [&](const char* f) {
    return std::filesystem::last_write_time(store + "/" + f) == backdated;
  };

  IncrementalResult replay = Pipeline::RunIncremental(MakeLibraryApp(LibraryConfig{}), store,
                                                      Opts());
  EXPECT_FALSE(replay.cold);
  EXPECT_TRUE(replay.artifacts_saved);
  EXPECT_EQ(replay.pairs_computed, 0u);
  for (const char* f : files) {
    EXPECT_TRUE(untouched(f)) << f << " was rewritten by a pure replay";
    EXPECT_EQ(ReadAll(store + "/" + f), bytes[f]) << f;
  }

  // A handler edit computes new verdicts: the verdict store and the analysis are
  // rewritten; the schema, and so the manifest, did not change.
  LibraryConfig edited;
  edited.min_copies = 5;
  IncrementalResult edit = Pipeline::RunIncremental(MakeLibraryApp(edited), store, Opts());
  EXPECT_FALSE(edit.cold);
  EXPECT_GT(edit.pairs_computed, 0u);
  EXPECT_FALSE(untouched("verdicts"));
  EXPECT_NE(ReadAll(store + "/verdicts"), bytes["verdicts"]);
  EXPECT_FALSE(untouched("analysis"));
  EXPECT_TRUE(untouched("schema"));
  EXPECT_TRUE(untouched("manifest"));

  // The rewritten store replays the edited app completely.
  IncrementalResult next = Pipeline::RunIncremental(MakeLibraryApp(edited), store, Opts());
  EXPECT_FALSE(next.cold);
  EXPECT_EQ(next.pairs_computed, 0u);
  ExpectUnchangedPairsReplayed(next.run.restrictions, {});
  EXPECT_EQ(VerdictLines(next.run.restrictions), VerdictLines(edit.run.restrictions));
}

// Runs on one engine lock only their own store: two runs on the same store take turns,
// runs on different stores do not wait, and the lock table forgets a store once no run
// holds or waits for its lock.

TEST(IncrementalConcurrencyTest, TwoRunsOnOneStoreSerializeAndLeaveItWarm) {
  std::string store = TempStore("same_store");
  Engine engine{EngineConfig{}};
  std::vector<IncrementalResult> results(2);
  std::latch start(2);
  std::vector<std::thread> threads;
  for (size_t k = 0; k < results.size(); ++k) {
    threads.emplace_back([&, k] {
      app::App a = MakeLibraryApp(LibraryConfig{});
      start.arrive_and_wait();
      results[k] = engine.RunIncremental(a, store, Opts());
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Whichever run got the store first ran cold and saved it; the other waited, loaded
  // that store and replayed every pair.
  ASSERT_NE(results[0].cold, results[1].cold);
  const IncrementalResult& second = results[0].cold ? results[1] : results[0];
  EXPECT_EQ(second.pairs_computed, 0u);
  EXPECT_TRUE(results[0].artifacts_saved && results[1].artifacts_saved);
  EXPECT_EQ(VerdictLines(results[0].run.restrictions),
            VerdictLines(results[1].run.restrictions));

  IncrementalResult third =
      engine.RunIncremental(MakeLibraryApp(LibraryConfig{}), store, Opts());
  EXPECT_FALSE(third.cold);
  EXPECT_EQ(third.pairs_computed, 0u);
  EXPECT_EQ(VerdictLines(third.run.restrictions), VerdictLines(results[0].run.restrictions));
  EXPECT_EQ(engine.StoreLocksInUse(), 0u);
}

TEST(IncrementalConcurrencyTest, StoreLockTableIsEmptyAfterABurstOfFreshTenants) {
  EngineConfig config;
  config.threads = 2;
  config.artifact_root = TempStore("tenant_burst");
  Engine engine(config);
  const int callers = 4;
  const int per_caller = 6;
  std::latch start(callers);
  std::vector<std::thread> threads;
  std::atomic<int> cold_runs{0};
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      app::App a = MakeLibraryApp(LibraryConfig{});
      start.arrive_and_wait();
      for (int i = 0; i < per_caller; ++i) {
        std::string tenant = "fresh" + std::to_string(c) + "_" + std::to_string(i);
        IncrementalResult r =
            engine.RunIncremental(a, engine.TenantStoreDir(tenant, a.name()), Opts());
        cold_runs += r.cold ? 1 : 0;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(cold_runs.load(), callers * per_caller);
  EXPECT_EQ(engine.StoreLocksInUse(), 0u);
}

TEST(IncrementalTest, VersionOneStoreReadsColdAndIsRewrittenAtVersionTwo) {
  ASSERT_EQ(soir::kArtifactVersion, 2);
  std::string store = TempStore("v1_store");
  app::App a = MakeLibraryApp(LibraryConfig{});
  IncrementalResult reference = Pipeline::RunIncremental(a, store, Opts());

  // The same store as the previous format wrote it: version 1 throughout, verdicts keyed
  // by their full text.
  const std::pair<const char*, const char*> headed[] = {{"manifest", "noctua-manifest"},
                                                         {"analysis", "noctua-analysis"}};
  for (const auto& [file, head] : headed) {
    std::string data = ReadAll(store + "/" + file);
    const std::string v2 = std::string(head) + " 2 ";
    ASSERT_EQ(data.rfind(v2, 0), 0u) << file;
    WriteAll(store + "/" + file, std::string(head) + " 1 " + data.substr(v2.size()));
  }
  WriteAll(store + "/verdicts",
           "noctua-verdicts 1 1 \"com|args() update(all<m0>);|args() update(all<m0>);"
           "|ord:0|m0[];\" 0");

  IncrementalResult v1 = Pipeline::RunIncremental(a, store, Opts());
  EXPECT_TRUE(v1.cold);
  EXPECT_TRUE(v1.artifacts_saved);
  EXPECT_EQ(VerdictLines(v1.run.restrictions), VerdictLines(reference.run.restrictions));
  for (const auto& [file, head] : headed) {
    EXPECT_EQ(ReadAll(store + "/" + file).rfind(std::string(head) + " 2 ", 0), 0u) << file;
  }
  EXPECT_EQ(ReadAll(store + "/verdicts").rfind("noctua-verdicts 2 ", 0), 0u);

  IncrementalResult warm = Pipeline::RunIncremental(a, store, Opts());
  EXPECT_FALSE(warm.cold);
  EXPECT_EQ(warm.pairs_computed, 0u);
}

// --------------------------------------------------------------- verdict cache soundness

// One engine shares one verdict cache across runs, so a verdict computed under one set
// of checker options must never answer a run under another.
TEST(VerdictCacheSoundnessTest, OptionsChangeOnOneEngineDoesNotReplayStaleVerdicts) {
  EngineConfig config;
  config.solver = smt::BackendKind::kDfs;
  Engine engine(config);
  app::App zhihu = apps::MakeZhihuApp();
  PipelineOptions options;
  options.checker.solver.budget.deterministic = true;
  PipelineResult with_uid = engine.Run(zhihu, options);
  EXPECT_EQ(with_uid.restrictions.num_restrictions(), 44u);

  options.checker.encoder.unique_id_optimization = false;
  PipelineResult without_uid = engine.Run(zhihu, options);
  EXPECT_EQ(without_uid.restrictions.num_restrictions(), 52u);
  // §6.4: without the unique-ID assertion, CreateQuestion conflicts with itself.
  bool create_self = false;
  for (const verifier::PairVerdict& v : without_uid.restrictions.pairs) {
    create_self = create_self || (v.Restricted() && v.p == v.q &&
                                  v.p.rfind("CreateQuestion#", 0) == 0);
  }
  EXPECT_TRUE(create_self);
}

// A budget that ran out says nothing about the query: the timeout restricts this run's
// pair but is neither cached nor written to the store, so the next run solves it.
TEST(VerdictCacheSoundnessTest, TimeoutsAreNotStoredAndTheNextRunSolvesThePair) {
  std::string store = TempStore("timeouts");
  EngineConfig config;
  config.solver = smt::BackendKind::kDfs;
  Engine engine(config);
  app::App zhihu = apps::MakeZhihuApp();
  const std::string op = "DeleteAnswer#p1";
  auto find_pair = [&](const verifier::RestrictionReport& report) {
    for (const verifier::PairVerdict& v : report.pairs) {
      if (v.p == op && v.q == op) {
        return v;
      }
    }
    ADD_FAILURE() << "no (" << op << ", " << op << ") pair";
    return verifier::PairVerdict{};
  };

  IncrementalOptions starved = Opts();
  starved.pipeline.checker.solver.budget.max_nodes = 20000;
  IncrementalResult first = engine.RunIncremental(zhihu, store, starved);
  ASSERT_EQ(find_pair(first.run.restrictions).commutativity, verifier::CheckOutcome::kTimeout);

  // The store loads — one carrying a timeout would not — and lacks the query's key.
  verifier::VerdictCache on_disk;
  ASSERT_TRUE(on_disk.LoadFromFile(store + "/verdicts"));
  const soir::Schema& schema = zhihu.schema();
  std::vector<verifier::PathFacts> facts;
  std::set<int> order;
  for (const soir::CodePath& p : first.run.analysis.EffectfulPaths()) {
    facts.emplace_back(schema, p);
    order.insert(facts.back().order_models.begin(), facts.back().order_models.end());
  }
  const verifier::PathFacts* delete_answer = nullptr;
  for (const verifier::PathFacts& f : facts) {
    delete_answer = f.path->op_name == op ? &f : delete_answer;
  }
  ASSERT_NE(delete_answer, nullptr);
  verifier::PairKeyText text(schema, delete_answer->canon, delete_answer->canon);
  verifier::VerdictKeyer keyer(starved.pipeline.checker);
  EXPECT_FALSE(on_disk.Lookup(keyer.Key(text.Text("com", order), text.ctx())).has_value());

  IncrementalOptions full = Opts();
  full.paranoia = 1.0;
  IncrementalResult next = engine.RunIncremental(zhihu, store, full);
  EXPECT_FALSE(next.cold);
  verifier::PairVerdict solved = find_pair(next.run.restrictions);
  EXPECT_EQ(solved.provenance, verifier::PairProvenance::kComputed);
  EXPECT_NE(solved.commutativity, verifier::CheckOutcome::kTimeout);
  EXPECT_EQ(next.run.restrictions.stats.paranoia_rechecks, next.run.restrictions.stats.replayed);
}

// ---------------------------------------------------------------------------- paranoia

TEST(IncrementalTest, FullParanoiaAgreesOnAnHonestStore) {
  std::string store = TempStore("paranoia_honest");
  app::App a = MakeLibraryApp(LibraryConfig{});
  Pipeline::RunIncremental(a, store, Opts());

  IncrementalOptions opts = Opts();
  opts.paranoia = 1.0;
  opts.paranoia_seed = 7;
  IncrementalResult warm = Pipeline::RunIncremental(a, store, opts);
  EXPECT_FALSE(warm.cold);
  const verifier::ReportStats& stats = warm.run.restrictions.stats;
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_EQ(stats.paranoia_rechecks, stats.replayed)
      << "paranoia=1.0 must re-solve every replayed verdict";
  EXPECT_EQ(warm.pairs_computed, 0u);
}

TEST(IncrementalDeathTest, ParanoiaCatchesAPoisonedStore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string store = TempStore("paranoia_poison");
  app::App a = MakeLibraryApp(LibraryConfig{});
  Pipeline::RunIncremental(a, store, Opts(1));

  // Flip the first stored verdict — the silent corruption FNV fingerprints can't catch.
  std::string file = store + "/verdicts";
  soir::ArtifactReader r(ReadAll(file));
  r.ExpectAtom("noctua-verdicts");
  int64_t version = r.Int();
  size_t n = r.Count(1000000);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(n, 0u);
  soir::ArtifactWriter w;
  w.Atom("noctua-verdicts");
  w.Int(version);
  w.Int(static_cast<int64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    std::string key = r.Str();
    int64_t outcome = r.Int();
    if (i == 0) {
      outcome = outcome == 0 ? 1 : 0;
    }
    w.Str(key);
    w.Int(outcome);
  }
  ASSERT_TRUE(r.ok());
  WriteAll(file, w.str());

  IncrementalOptions opts = Opts(1);
  opts.paranoia = 1.0;
  EXPECT_DEATH(Pipeline::RunIncremental(a, store, opts), "paranoia recheck disagrees");
}

}  // namespace
}  // namespace noctua
