#include "src/pipeline/session.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/soir/serialize.h"
#include "src/support/check.h"
#include "src/support/env.h"

namespace noctua {

namespace {

constexpr const char* kManifestFile = "manifest";
constexpr const char* kSchemaFile = "schema";
constexpr const char* kAnalysisFile = "analysis";
constexpr const char* kVerdictsFile = "verdicts";

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << data;
  return static_cast<bool>(out);
}

// Writes `data` unless `*known` (what the file is known to hold) already equals it, and
// remembers what the file holds now.
bool WriteIfChanged(const std::string& path, const std::string& data, std::string* known) {
  if (!known->empty() && *known == data) {
    return true;
  }
  if (!WriteFile(path, data)) {
    known->clear();
    return false;
  }
  *known = data;
  return true;
}

}  // namespace

bool Session::LoadPrior(const app::App& app, analyzer::AnalysisResult* analysis,
                        verifier::VerdictCache* verdicts) {
  known_manifest_.clear();
  known_schema_.clear();
  known_analysis_.clear();
  known_verdicts_ = nullptr;
  const std::string app_structure = soir::SchemaStructuralDigest(app.schema());

  // Manifest: version + app name + schema digests. The gate is the *structural* digest:
  // stored paths carry model/relation ids and verdict fingerprints cover the canonical
  // (renaming-invariant) schema fragment, so both survive a rename-only schema edit —
  // but nothing else. The exact digest is informational (it additionally distinguishes
  // renames from no-ops).
  if (!ReadFile(Path(kManifestFile), &known_manifest_)) {
    return false;
  }
  {
    soir::ArtifactReader r(known_manifest_);
    r.ExpectAtom("noctua-manifest");
    if (r.Int() != soir::kArtifactVersion) {
      return false;
    }
    std::string name = r.Str();
    r.Str();  // exact content digest, not gated on
    std::string structure = r.Str();
    if (!r.ok() || !r.AtEnd() || name != app.name() || structure != app_structure) {
      return false;
    }
  }

  // Stored schema must round-trip to the same structural digest the manifest promised.
  // It is kept around: the stored paths reference fields by the *stored* names, which a
  // rename-only edit may have moved.
  if (!ReadFile(Path(kSchemaFile), &known_schema_)) {
    return false;
  }
  soir::Schema stored;
  {
    soir::ArtifactReader r(known_schema_);
    if (!soir::DeserializeSchema(&r, &stored) || !r.AtEnd() ||
        soir::SchemaStructuralDigest(stored) != app_structure) {
      return false;
    }
  }

  if (!ReadFile(Path(kAnalysisFile), &known_analysis_)) {
    return false;
  }
  {
    soir::ArtifactReader r(known_analysis_);
    r.ExpectAtom("noctua-analysis");
    if (r.Int() != soir::kArtifactVersion) {
      return false;
    }
    if (!analyzer::DeserializeAnalysis(&r, app.schema(), analysis) || !r.AtEnd()) {
      return false;
    }
  }
  // Follow any rename-only schema edit: rewrite the stored paths' field names to the
  // current ones (by model/slot correspondence). Ambiguous renames degrade to cold.
  if (!soir::AdaptPathsToSchema(stored, app.schema(), &analysis->paths)) {
    return false;
  }
  // Digests must recompute from the stored paths: catches artifacts whose paths and
  // metadata were corrupted consistently enough to parse.
  if (!analyzer::ValidateAnalysisDigests(app.schema(), *analysis)) {
    return false;
  }

  if (!verdicts->LoadFromFile(Path(kVerdictsFile))) {
    return false;
  }
  known_verdicts_ = verdicts;
  known_computed_ = verdicts->computed();
  known_size_ = verdicts->size();
  return true;
}

bool Session::Save(const app::App& app, const analyzer::AnalysisResult& analysis,
                   const verifier::VerdictCache& verdicts) {
  std::error_code ec;
  std::filesystem::create_directories(store_dir_, ec);
  if (ec) {
    return false;
  }

  soir::ArtifactWriter manifest;
  manifest.Atom("noctua-manifest");
  manifest.Int(soir::kArtifactVersion);
  manifest.Str(app.name());
  manifest.Str(soir::SchemaContentDigest(app.schema()));
  manifest.Str(soir::SchemaStructuralDigest(app.schema()));

  soir::ArtifactWriter schema;
  soir::SerializeSchema(app.schema(), &schema);

  soir::ArtifactWriter analysis_w;
  analysis_w.Atom("noctua-analysis");
  analysis_w.Int(soir::kArtifactVersion);
  analyzer::SerializeAnalysis(analysis, &analysis_w);

  // The verdict store is unchanged when it is the cache LoadPrior filled (or Save last
  // wrote) and nothing was computed into it since: no need to even serialize it.
  auto save_verdicts = [&] {
    if (known_verdicts_ == &verdicts && verdicts.computed() == known_computed_ &&
        verdicts.size() == known_size_) {
      return true;
    }
    known_verdicts_ = nullptr;
    if (!verdicts.SaveToFile(Path(kVerdictsFile))) {
      return false;
    }
    known_verdicts_ = &verdicts;
    known_computed_ = verdicts.computed();
    known_size_ = verdicts.size();
    return true;
  };
  return WriteIfChanged(Path(kSchemaFile), schema.str(), &known_schema_) &&
         WriteIfChanged(Path(kAnalysisFile), analysis_w.str(), &known_analysis_) &&
         save_verdicts() &&
         // Manifest last: a crash mid-save leaves a store whose manifest (if any) is the
         // old one, which then fails the schema/analysis cross-checks and reads as cold.
         WriteIfChanged(Path(kManifestFile), manifest.str(), &known_manifest_);
}

std::string ArtifactDirFromEnv() {
  if (!env::IsSet("NOCTUA_ARTIFACT_DIR")) {
    return "";
  }
  std::string dir(env::Raw("NOCTUA_ARTIFACT_DIR"));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  NOCTUA_CHECK_MSG(!ec, "NOCTUA_ARTIFACT_DIR is set to \""
                            << dir << "\" but the directory cannot be created ("
                            << ec.message()
                            << ") — fix the path or unset the variable; refusing to "
                               "silently run cold");
  // Probe with a real write: create_directories succeeding does not imply writability
  // (read-only mounts, permission bits).
  const std::string probe = dir + "/.noctua-write-probe";
  bool writable = WriteFile(probe, "probe");
  if (writable) {
    std::filesystem::remove(probe, ec);
  }
  NOCTUA_CHECK_MSG(writable, "NOCTUA_ARTIFACT_DIR is set to \""
                                 << dir
                                 << "\" but the directory is not writable — fix the "
                                    "permissions or unset the variable; refusing to "
                                    "silently run cold");
  return dir;
}

}  // namespace noctua
