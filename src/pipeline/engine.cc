#include "src/pipeline/engine.h"

#include <cstdio>
#include <memory>

#include "src/support/env.h"
#include "src/support/stopwatch.h"

namespace noctua {

EngineConfig EngineConfig::FromEnv() {
  env::Snapshot snap = env::CaptureSnapshot();
  EngineConfig config;
  config.threads = snap.threads;
  config.symmetry = snap.symmetry;
  config.incremental = snap.incremental;
  // Verbatim, unprobed: Run/Verify never touch the artifact root, and the throwaway
  // engines inside the static facade must not suddenly mkdir (or die on) a directory
  // the old facade never looked at. Daemons that DO persist call ArtifactDirFromEnv
  // for the fail-fast create-and-probe before constructing their engine.
  config.artifact_root = snap.artifact_dir;
  config.verdict_cache_capacity = snap.verdict_cache_capacity;
  return config;
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      pool_(std::make_unique<ThreadPool>(config_.threads > 0
                                             ? config_.threads
                                             : ThreadPool::DefaultThreads())),
      counters_(std::make_unique<smt::SolverCounterSink>()),
      verdicts_(std::make_unique<verifier::VerdictCache>(config_.verdict_cache_capacity)) {}

Engine::~Engine() = default;

PipelineOptions Engine::ResolveOptions(const PipelineOptions& options) const {
  PipelineOptions o = options;
  smt::SolverOptions& solver = o.checker.solver;
  if (solver.symmetry == smt::Toggle::kAuto) {
    solver.symmetry = config_.symmetry ? smt::Toggle::kOn : smt::Toggle::kOff;
  }
  if (solver.incremental == smt::Toggle::kAuto) {
    solver.incremental = config_.incremental ? smt::Toggle::kOn : smt::Toggle::kOff;
  }
  if (o.parallel.counters == nullptr) {
    o.parallel.counters = counters_.get();
  }
  // The engine pool has a fixed width; a caller that pinned a different `threads` gets
  // the classic run-local pool so the requested width is honored exactly.
  if (o.parallel.pool == nullptr &&
      (o.parallel.threads == 0 || o.parallel.threads == pool_->threads())) {
    o.parallel.pool = pool_.get();
  }
  // The shared warm cache steps in only where the old facade used an unbounded
  // run-local cache; an explicit store or a bounded run-local cache wins.
  if (o.parallel.store == nullptr && o.parallel.cache && o.parallel.cache_capacity == 0) {
    o.parallel.store = verdicts_.get();
  }
  return o;
}

verifier::RestrictionReport Engine::Verify(const app::App& app,
                                           const analyzer::AnalysisResult& analysis,
                                           const PipelineOptions& options) {
  return VerifyResolved(app, analysis, ResolveOptions(options));
}

verifier::RestrictionReport Engine::VerifyResolved(const app::App& app,
                                                   const analyzer::AnalysisResult& analysis,
                                                   const PipelineOptions& resolved) {
  verifier::Checker checker(app.schema(), resolved.checker);
  static const std::vector<soir::CodePath> kNoObservers;
  const std::vector<soir::CodePath>& observers =
      resolved.order_observers ? analysis.paths : kNoObservers;
  return verifier::AnalyzeRestrictions(checker, analysis.EffectfulPaths(), resolved.parallel,
                                       observers);
}

// Holds one store's lock for its lifetime, creating the table entry on first use and
// erasing it when the last run holding or waiting for it leaves.
class Engine::StoreGuard {
 public:
  StoreGuard(Engine& engine, const std::string& store_dir)
      : engine_(engine), store_dir_(store_dir) {
    {
      std::lock_guard<std::mutex> lk(engine_.store_locks_mu_);
      std::unique_ptr<StoreLock>& slot = engine_.store_locks_[store_dir_];
      if (slot == nullptr) {
        slot = std::make_unique<StoreLock>();
      }
      lock_ = slot.get();
      ++lock_->users;
    }
    lock_->mu.lock();
  }
  ~StoreGuard() {
    lock_->mu.unlock();
    std::lock_guard<std::mutex> lk(engine_.store_locks_mu_);
    if (--lock_->users == 0) {
      engine_.store_locks_.erase(store_dir_);
    }
  }
  StoreGuard(const StoreGuard&) = delete;
  StoreGuard& operator=(const StoreGuard&) = delete;

 private:
  Engine& engine_;
  const std::string store_dir_;
  StoreLock* lock_ = nullptr;
};

size_t Engine::StoreLocksInUse() const {
  std::lock_guard<std::mutex> lk(store_locks_mu_);
  return store_locks_.size();
}

PipelineResult Engine::Run(const app::App& app, const PipelineOptions& options) {
  // Own a collector only when asked *and* nobody owns one already — a bench that
  // installed its own collector, or a concurrent run that installed first, gets this
  // run's spans recorded into it instead, and this run reports none.
  std::unique_ptr<obs::Collector> collector =
      options.obs.enabled ? obs::Collector::TryInstall(options.obs) : nullptr;

  Stopwatch watch;
  PipelineResult result;
  double analyze_seconds = 0;
  double verify_seconds = 0;
  {
    // One parent span for the whole engine pass, so a request-scoped trace shows the
    // analyze/verify phases nested under a single "engine_run" node.
    obs::ScopedSpan engine_span("engine_run", obs::kCatPipeline);
    {
      obs::ScopedSpan span("analyze", obs::kCatPipeline);
      Stopwatch phase;
      result.analysis = analyzer::AnalyzeApp(app, options.analyzer);
      analyze_seconds = phase.ElapsedSeconds();
      span.Arg("paths", result.analysis.paths.size());
      span.Arg("effectful", result.analysis.num_effectful);
    }
    if (options.verify) {
      obs::ScopedSpan span("verify", obs::kCatPipeline);
      Stopwatch phase;
      result.restrictions = Verify(app, result.analysis, options);
      verify_seconds = phase.ElapsedSeconds();
      span.Arg("restrictions", result.restrictions.num_restrictions());
    }
  }
  result.total_seconds = watch.ElapsedSeconds();

  if (collector) {
    collector->Stop();
    result.has_report = true;
    result.report = obs::BuildRunReport(*collector, app.name(), result.total_seconds,
                                        analyze_seconds, verify_seconds);
    if (!options.obs.trace_out.empty() &&
        !collector->WriteChromeTrace(options.obs.trace_out)) {
      std::fprintf(stderr, "noctua: failed to write trace to %s\n",
                   options.obs.trace_out.c_str());
    }
  }
  return result;
}

IncrementalResult Engine::RunIncremental(const app::App& app, const std::string& store_dir,
                                         const IncrementalOptions& options) {
  // Pool, counters, and knob resolutions carry into the verify stage through the option
  // structs; the store loaded below replaces the engine cache injection.
  PipelineOptions popts = ResolveOptions(options.pipeline);
  StoreGuard store_lock(*this, store_dir);
  obs::ScopedSpan engine_span("engine_run", obs::kCatPipeline);
  // Same ownership rule as Run: install a collector only when asked and none is active,
  // so a bench wrapping several incremental runs can own one collector.
  std::unique_ptr<obs::Collector> collector =
      options.pipeline.obs.enabled ? obs::Collector::TryInstall(options.pipeline.obs)
                                   : nullptr;

  Stopwatch watch;
  IncrementalResult result;
  Session session(store_dir);

  analyzer::AnalysisResult prior;
  verifier::VerdictCache store;
  bool have_prior = false;
  {
    obs::ScopedSpan span("load_prior", obs::kCatIncremental);
    have_prior = session.LoadPrior(app, &prior, &store);
    span.Arg("loaded", have_prior ? 1 : 0);
    span.Arg("verdicts", store.size());
  }
  obs::Add(have_prior ? obs::Counter::kArtifactLoads
                      : obs::Counter::kArtifactLoadFailures);
  result.cold = !have_prior;

  double analyze_seconds = 0;
  {
    obs::ScopedSpan span("analyze", obs::kCatPipeline);
    Stopwatch phase;
    result.run.analysis = analyzer::AnalyzeAppIncremental(
        app, have_prior ? &prior : nullptr, options.pipeline.analyzer);
    analyze_seconds = phase.ElapsedSeconds();
    span.Arg("endpoints_reused", result.run.analysis.endpoints_reused);
  }
  result.endpoints_reused = result.run.analysis.endpoints_reused;

  // Digest diff against the prior artifact: edited, added, and removed endpoints.
  if (have_prior) {
    for (const auto& [view, digest] : result.run.analysis.endpoint_digests) {
      auto it = prior.endpoint_digests.find(view);
      if (it == prior.endpoint_digests.end() || it->second != digest) {
        result.changed_endpoints.push_back(view);
      }
    }
    for (const auto& [view, digest] : prior.endpoint_digests) {
      if (result.run.analysis.endpoint_digests.find(view) ==
          result.run.analysis.endpoint_digests.end()) {
        result.changed_endpoints.push_back(view);
      }
    }
  }

  double verify_seconds = 0;
  if (options.pipeline.verify) {
    obs::ScopedSpan span("verify", obs::kCatPipeline);
    Stopwatch phase;
    popts.parallel.store = &store;
    popts.parallel.paranoia = options.paranoia;
    popts.parallel.paranoia_seed = options.paranoia_seed;
    result.run.restrictions = VerifyResolved(app, result.run.analysis, popts);
    verify_seconds = phase.ElapsedSeconds();
    result.pairs_replayed = result.run.restrictions.stats.pairs_replayed;
    result.pairs_computed = result.run.restrictions.stats.pairs_computed;
  }

  {
    obs::ScopedSpan span("save_artifacts", obs::kCatIncremental);
    result.artifacts_saved = session.Save(app, result.run.analysis, store);
    span.Arg("saved", result.artifacts_saved ? 1 : 0);
  }
  obs::Add(result.artifacts_saved ? obs::Counter::kArtifactSaves
                                  : obs::Counter::kArtifactSaveFailures);
  if (!result.artifacts_saved) {
    std::fprintf(stderr,
                 "noctua: failed to save artifacts to %s — this run's results are "
                 "valid, but the next run will be cold\n",
                 store_dir.c_str());
  }
  result.run.total_seconds = watch.ElapsedSeconds();

  if (collector) {
    collector->Stop();
    result.run.has_report = true;
    result.run.report =
        obs::BuildRunReport(*collector, app.name(), result.run.total_seconds,
                            analyze_seconds, verify_seconds);
    const std::string& trace_out = options.pipeline.obs.trace_out;
    if (!trace_out.empty() && !collector->WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "noctua: failed to write trace to %s\n", trace_out.c_str());
    }
  }
  return result;
}

bool Engine::ValidTenantName(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 128) {
    return false;
  }
  // No separators and no leading dot: "..", ".", and dotfile-shaped names are all
  // rejected, so a tenant string can never escape (or hide inside) its subtree.
  if (tenant[0] == '.') {
    return false;
  }
  for (char c : tenant) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '.' || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

std::string Engine::TenantStoreDir(const std::string& tenant,
                                   const std::string& app_name) const {
  if (config_.artifact_root.empty() || !ValidTenantName(tenant) ||
      !ValidTenantName(app_name)) {
    return "";
  }
  return config_.artifact_root + "/" + tenant + "/" + app_name;
}

// ---- The static facade, now thin wrappers over a throwaway Engine. ----

PipelineResult Pipeline::Run(const app::App& app, const PipelineOptions& options) {
  Engine engine;
  return engine.Run(app, options);
}

verifier::RestrictionReport Pipeline::Verify(const app::App& app,
                                             const analyzer::AnalysisResult& analysis,
                                             const PipelineOptions& options) {
  Engine engine;
  return engine.Verify(app, analysis, options);
}

IncrementalResult Pipeline::RunIncremental(const app::App& app,
                                           const std::string& store_dir,
                                           const IncrementalOptions& options) {
  Engine engine;
  return engine.RunIncremental(app, store_dir, options);
}

}  // namespace noctua
