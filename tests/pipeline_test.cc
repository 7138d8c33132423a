// Tests for the parallel, cached verification engine and the noctua::Pipeline facade:
// the thread pool itself, determinism of the restriction set across thread counts, and
// agreement between every engine configuration (cache on/off, projection on/off,
// cheapest-first on/off) — the redesign must change how fast verdicts are produced,
// never which verdicts.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/pipeline.h"
#include "src/soir/printer.h"
#include "src/support/thread_pool.h"
#include "src/verifier/cache.h"

namespace noctua {
namespace {

// ---------------------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(counts.size(), [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, SerialPoolHonorsDispatchOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order = {4, 2, 0, 1, 3};
  std::vector<size_t> executed;
  pool.ParallelFor(5, [&](size_t i) { executed.push_back(i); }, &order);
  EXPECT_EQ(executed, order);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  std::atomic<uint64_t> sum{0};
  const size_t n = 10000;
  pool.ParallelFor(n, [&](size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> ran{0};
    pool.ParallelFor(17, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 17);
  }
}

TEST(ThreadPoolTest, DefaultThreadsReadsEnvironment) {
  ASSERT_EQ(setenv("NOCTUA_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3);
  ASSERT_EQ(unsetenv("NOCTUA_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, DefaultThreadsRejectsMalformedEnvironment) {
  // atoi-style lenient parsing would turn "8x" into 8 and "abc" into 0; the variable
  // must parse as a whole positive integer or be ignored entirely.
  const int fallback = [] {
    unsetenv("NOCTUA_THREADS");
    return ThreadPool::DefaultThreads();
  }();
  for (const char* bad : {"abc", "-3", "0", "12abc", "3.5", "", "99999999999999999999"}) {
    ASSERT_EQ(setenv("NOCTUA_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::DefaultThreads(), fallback) << "NOCTUA_THREADS=\"" << bad << '"';
  }
  ASSERT_EQ(unsetenv("NOCTUA_THREADS"), 0);
}

TEST(ThreadPoolTest, DefaultThreadsClampsAbsurdValues) {
  ASSERT_EQ(setenv("NOCTUA_THREADS", "100000", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 256);
  ASSERT_EQ(setenv("NOCTUA_THREADS", "256", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 256);
  ASSERT_EQ(unsetenv("NOCTUA_THREADS"), 0);
}

// Lifecycle tests for the long-lived pool an Engine owns. Workers start lazily, so an
// idle pool must construct and destruct without ever spinning up (or busy-waiting in) a
// worker thread, and a working pool must survive arbitrarily many submit/drain cycles.
// All of these run under TSan in CI.

TEST(ThreadPoolTest, IdlePoolConstructsAndDestructsWithoutWork) {
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(8);
    EXPECT_EQ(pool.threads(), 8);
    EXPECT_EQ(pool.stats().tasks, 0u);  // lazy start: nothing ran, nothing spun
  }
}

TEST(ThreadPoolTest, ManySubmitDrainCyclesOnOnePool) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  const int batches = 200;
  const size_t per_batch = 16;
  for (int b = 0; b < batches; ++b) {
    pool.ParallelFor(per_batch,
                     [&](size_t i) { total.fetch_add(i + 1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), batches * (per_batch * (per_batch + 1) / 2));
  EXPECT_EQ(pool.stats().tasks, batches * per_batch);
}

TEST(ThreadPoolTest, RepeatedConstructRunDestroyIsClean) {
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    pool.ParallelFor(8, [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_EQ(ran.load(), 8);
  }
}

TEST(ThreadPoolTest, PoolDrivenAndDestroyedOffTheOwningThread) {
  // A daemon constructs its Engine (and thus its pool) on main but serves requests from
  // worker threads; the pool must not care which thread runs ParallelFor or deletes it.
  auto pool = std::make_unique<ThreadPool>(4);
  std::atomic<int> ran{0};
  std::thread driver([&] {
    pool->ParallelFor(32, [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.reset();
  });
  driver.join();
  EXPECT_EQ(ran.load(), 32);
}

// Concurrent batches: many threads share one pool, each ParallelFor a task group of its
// own. Run repeatedly under TSan in CI.

// Spins (with short sleeps) until `flag` is set or `timeout` passes; returns the flag.
bool WaitFor(const std::atomic<bool>& flag,
             std::chrono::milliseconds timeout = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TEST(ThreadPoolTest, ConcurrentCallersRunEveryIndexOfEveryBatchOnce) {
  ThreadPool pool(4);
  const ThreadPool::Stats before = pool.stats();
  const int callers = 4;
  const int rounds = 20;
  std::vector<std::vector<std::atomic<int>>> counts(callers);
  std::vector<ThreadPool::Stats> totals(callers);
  std::latch start(callers);
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    counts[c] = std::vector<std::atomic<int>>(100 + 37 * c);
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      for (int r = 0; r < rounds; ++r) {
        ThreadPool::Stats s = pool.ParallelFor(counts[c].size(), [&](size_t i) {
          counts[c][i].fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(s.tasks, counts[c].size());
        totals[c].tasks += s.tasks;
        totals[c].steals += s.steals;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ThreadPool::Stats sum;
  for (int c = 0; c < callers; ++c) {
    for (size_t i = 0; i < counts[c].size(); ++i) {
      ASSERT_EQ(counts[c][i].load(), rounds) << "caller " << c << " index " << i;
    }
    sum.tasks += totals[c].tasks;
    sum.steals += totals[c].steals;
  }
  // Per-batch stats partition the pool's lifetime totals exactly.
  const ThreadPool::Stats after = pool.stats();
  EXPECT_EQ(after.tasks - before.tasks, sum.tasks);
  EXPECT_EQ(after.steals - before.steals, sum.steals);
}

TEST(ThreadPoolTest, ConcurrentBatchesShareWorkers) {
  // One worker plus the callers. Batch A's caller blocks in A's task 0 and its worker
  // sits in A's task 1 until batch B is running; after that the worker must move to B
  // rather than start A's task 3, which also waits for B to get a worker. B's caller
  // cannot finish B alone: its task waits until some other thread has run a B task. A
  // pool that lets a worker serve only one batch until it drains times out here.
  ThreadPool pool(2);
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_started{false};
  std::atomic<bool> b_helped{false};
  std::atomic<bool> a_ok{true};
  std::atomic<bool> b_ok{true};
  std::thread a_caller([&] {
    pool.ParallelFor(4, [&](size_t i) {
      if (i == 0) {
        a_started = true;
      }
      if (i == 0 || i == 3) {
        a_ok = WaitFor(b_helped) && a_ok;
      } else if (i == 1) {
        a_ok = WaitFor(b_started) && a_ok;
      }
    });
  });
  EXPECT_TRUE(WaitFor(a_started));
  std::thread b_caller([&] {
    const std::thread::id caller = std::this_thread::get_id();
    pool.ParallelFor(2, [&](size_t) {
      if (std::this_thread::get_id() == caller) {
        b_started = true;
        b_ok = WaitFor(b_helped) && b_ok;
      } else {
        b_helped = true;
      }
    });
  });
  a_caller.join();
  b_caller.join();
  EXPECT_TRUE(b_helped.load());
  EXPECT_TRUE(a_ok.load());
  EXPECT_TRUE(b_ok.load());
}

TEST(ThreadPoolTest, NestedParallelForFromInsideATaskCompletes) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> inner(8 * 16);
  ThreadPool::Stats outer = pool.ParallelFor(8, [&](size_t i) {
    ThreadPool::Stats s = pool.ParallelFor(16, [&](size_t j) {
      inner[i * 16 + j].fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(s.tasks, 16u);
  });
  EXPECT_EQ(outer.tasks, 8u);
  for (size_t k = 0; k < inner.size(); ++k) {
    EXPECT_EQ(inner[k].load(), 1) << "inner task " << k;
  }
  EXPECT_EQ(pool.stats().tasks, 8u + 8u * 16u);
}

// ------------------------------------------------------------------- canonical fingerprint

TEST(CanonicalFingerprintTest, CopiedEndpointsShareFingerprints) {
  // The cache's bread and butter: a copied endpoint is isomorphic to its original, so
  // every pair involving the copy must produce the same cache key as the original pair.
  app::App a = apps::MakeSmallBankApp();
  app::App copied = apps::MakeSmallBankApp();
  for (const app::View& v : a.views()) {
    copied.AddView(v.name + "_twin", v.fn);
  }
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(copied);
  const std::vector<soir::CodePath>& eff = analysis.EffectfulPaths();

  std::set<std::string> originals;
  std::set<std::string> twins;
  for (const soir::CodePath& p : eff) {
    soir::CanonicalizationCtx ctx(copied.schema());
    std::string canon = soir::CanonicalPath(copied.schema(), p, &ctx);
    (p.view_name.find("_twin") != std::string::npos ? twins : originals).insert(canon);
  }
  EXPECT_EQ(originals, twins);
}

TEST(CanonicalFingerprintTest, SeparatesAndMergesSmallBankPaths) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);
  std::map<std::string, std::string> canon;
  for (const soir::CodePath& p : analysis.EffectfulPaths()) {
    soir::CanonicalizationCtx ctx(a.schema());
    canon[p.view_name] = soir::CanonicalPath(a.schema(), p, &ctx);
  }
  ASSERT_EQ(canon.size(), 4u);
  // SendPayment and Amalgamate are the same operation shape in this modeling (move a2
  // from a0's checking to a1's checking under the same guards) — the fingerprint must
  // identify them, which is where SmallBank's cache hits come from...
  EXPECT_EQ(canon.at("SendPayment"), canon.at("Amalgamate"));
  // ...while operations over different field slots or guard shapes stay distinct.
  EXPECT_NE(canon.at("DepositChecking"), canon.at("TransactSavings"));
  EXPECT_NE(canon.at("DepositChecking"), canon.at("SendPayment"));
  EXPECT_NE(canon.at("TransactSavings"), canon.at("SendPayment"));
}

// ------------------------------------------------------------------------- verdict cache

TEST(VerdictCacheTest, LookupInsertAndCounters) {
  verifier::VerdictCache cache;
  EXPECT_FALSE(cache.Lookup("k").has_value());
  cache.Insert("k", verifier::CheckOutcome::kFail);
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, verifier::CheckOutcome::kFail);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// -------------------------------------------------------------- determinism & agreement

std::vector<std::string> VerdictLines(const verifier::RestrictionReport& report) {
  std::vector<std::string> out;
  out.reserve(report.pairs.size());
  for (const auto& v : report.pairs) {
    out.push_back(v.p + "|" + v.q + "|" + verifier::CheckOutcomeName(v.commutativity) +
                  "|" + verifier::CheckOutcomeName(v.semantic));
  }
  return out;
}

// Pipeline configurations whose verdicts must all agree. `deterministic_budget` pins the
// solver to its node budget (no wall-clock dependence), so the comparison is exact even
// on a loaded machine.
PipelineOptions AgreementOptions(int threads, bool cache, bool cheapest_first,
                             bool projection) {
  PipelineOptions options;
  options.parallel.threads = threads;
  options.parallel.cache = cache;
  options.parallel.cheapest_first = cheapest_first;
  options.checker.project_footprint = projection;
  options.checker.solver.budget.deterministic = true;
  return options;
}

class EngineAgreementTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(EngineAgreementTest, VerdictsIdenticalAcrossThreadCounts) {
  app::App a = GetParam().make();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;

  verifier::RestrictionReport reference =
      Pipeline::Verify(a, analysis, AgreementOptions(1, true, true, true));
  std::vector<std::string> expected = VerdictLines(reference);
  ASSERT_FALSE(expected.empty());

  for (int threads : {2, 8}) {
    verifier::RestrictionReport report =
        Pipeline::Verify(a, analysis, AgreementOptions(threads, true, true, true));
    EXPECT_EQ(report.stats.threads_used, threads);
    EXPECT_EQ(VerdictLines(report), expected) << "threads=" << threads;
  }
}

TEST_P(EngineAgreementTest, CacheAndScheduleDoNotChangeVerdicts) {
  app::App a = GetParam().make();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;

  std::vector<std::string> expected =
      VerdictLines(Pipeline::Verify(a, analysis, AgreementOptions(1, true, true, true)));
  // Cache off, schedule off (report order), both at 2 threads.
  EXPECT_EQ(VerdictLines(Pipeline::Verify(a, analysis, AgreementOptions(2, false, true, true))),
            expected);
  EXPECT_EQ(VerdictLines(Pipeline::Verify(a, analysis, AgreementOptions(2, true, false, true))),
            expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, EngineAgreementTest,
    ::testing::Values(apps::AppEntry{"Blog", apps::MakeBlogApp},
                      apps::AppEntry{"Todo", apps::MakeTodoApp},
                      apps::AppEntry{"SmallBank", apps::MakeSmallBankApp},
                      apps::AppEntry{"Courseware", apps::MakeCoursewareApp}),
    [](const ::testing::TestParamInfo<apps::AppEntry>& info) { return info.param.name; });

// The big apps get the full thread sweep too, but only one extra engine config each so
// the suite stays within the tier-1 budget (their pair matrices dominate the runtime).
TEST(EngineAgreementBigApps, PostGraduationIdenticalAcrossThreads) {
  app::App a = apps::MakePostGraduationApp();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;
  std::vector<std::string> expected =
      VerdictLines(Pipeline::Verify(a, analysis, AgreementOptions(1, true, true, true)));
  EXPECT_EQ(VerdictLines(Pipeline::Verify(a, analysis, AgreementOptions(8, true, true, true))),
            expected);
}

TEST(EngineAgreementBigApps, ZhihuIdenticalAcrossThreadsAndCache) {
  app::App a = apps::MakeZhihuApp();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;
  verifier::RestrictionReport reference =
      Pipeline::Verify(a, analysis, AgreementOptions(1, true, true, true));
  std::vector<std::string> expected = VerdictLines(reference);
  EXPECT_GT(reference.stats.cache_hits, 0u);
  EXPECT_EQ(VerdictLines(Pipeline::Verify(a, analysis, AgreementOptions(8, true, true, true))),
            expected);
  EXPECT_EQ(VerdictLines(Pipeline::Verify(a, analysis, AgreementOptions(2, false, true, true))),
            expected);
}

TEST(EngineAgreementTestExtra, ProjectionDoesNotChangeVerdicts) {
  app::App a = apps::MakeCoursewareApp();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;
  EXPECT_EQ(VerdictLines(Pipeline::Verify(a, analysis, AgreementOptions(1, true, true, false))),
            VerdictLines(Pipeline::Verify(a, analysis, AgreementOptions(1, true, true, true))));
}

// ----------------------------------------------------------------------------- Pipeline

TEST(PipelineTest, RunMatchesHandRolledDance) {
  app::App a = apps::MakeSmallBankApp();
  PipelineResult result = Pipeline::Run(a);

  analyzer::AnalysisResult manual = analyzer::AnalyzeApp(a);
  verifier::RestrictionReport expected =
      verifier::AnalyzeRestrictions(verifier::Checker(a.schema()), manual.EffectfulPaths());

  EXPECT_EQ(result.analysis.num_effectful, manual.num_effectful);
  EXPECT_EQ(VerdictLines(result.restrictions), VerdictLines(expected));
  EXPECT_EQ(result.stats().pairs, expected.stats.pairs);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(PipelineTest, VerifyFalseSkipsTheVerifier) {
  app::App a = apps::MakeSmallBankApp();
  PipelineOptions options;
  options.verify = false;
  PipelineResult result = Pipeline::Run(a, options);
  EXPECT_GT(result.analysis.num_effectful, 0u);
  EXPECT_TRUE(result.restrictions.pairs.empty());
}

TEST(PipelineTest, StatsReportCacheAndPrefilterActivity) {
  app::App a = apps::MakeSmallBankApp();
  PipelineResult result = Pipeline::Run(a);
  const verifier::ReportStats& stats = result.stats();
  EXPECT_EQ(stats.pairs, result.restrictions.pairs.size());
  // SmallBank's self-pairs guarantee NotInvalidate cache hits.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.solver_checks, 0u);
  EXPECT_GT(stats.CacheHitRate(), 0.0);
}

TEST(PipelineTest, ThreadsOptionFlowsThrough) {
  app::App a = apps::MakeCoursewareApp();
  PipelineOptions options;
  options.parallel.threads = 2;
  PipelineResult result = Pipeline::Run(a, options);
  EXPECT_EQ(result.stats().threads_used, 2);
}

// ------------------------------------------------------------------------------- Engine

TEST(EngineTest, MatchesStaticPipelineFacade) {
  app::App todo = apps::MakeTodoApp();
  PipelineResult direct = Pipeline::Run(todo);
  Engine engine{EngineConfig{}};
  PipelineResult engined = engine.Run(todo);
  EXPECT_EQ(engined.restrictions.RestrictedPairNames(),
            direct.restrictions.RestrictedPairNames());
  EXPECT_EQ(engined.restrictions.num_checks(), direct.restrictions.num_checks());
}

TEST(EngineTest, WarmEngineAnswersRepeatRunsFromItsVerdictCache) {
  Engine engine{EngineConfig{}};
  app::App todo = apps::MakeTodoApp();
  PipelineResult cold = engine.Run(todo);
  PipelineResult warm = engine.Run(todo);
  EXPECT_GT(cold.restrictions.stats.solver_checks, 0u);
  EXPECT_EQ(warm.restrictions.stats.solver_checks, 0u);
  EXPECT_GT(warm.restrictions.stats.cache_hits, 0u);
  EXPECT_EQ(warm.restrictions.RestrictedPairNames(),
            cold.restrictions.RestrictedPairNames());
}

TEST(EngineTest, IncrementalRunVerifiesOnTheEnginePool) {
  // The verify stage of an incremental run must run on the calling engine: every pair is
  // one task of the engine's own pool, and no throwaway engine (or pool) is built.
  Engine engine{EngineConfig{}};
  std::string store = ::testing::TempDir() + "/noctua_engine_pool";
  std::filesystem::remove_all(store);
  IncrementalOptions options;
  options.pipeline.checker.solver.budget.deterministic = true;
  const uint64_t before = engine.pool().stats().tasks;
  IncrementalResult r = engine.RunIncremental(apps::MakeTodoApp(), store, options);
  ASSERT_FALSE(r.run.restrictions.pairs.empty());
  EXPECT_EQ(engine.pool().stats().tasks - before, r.run.restrictions.pairs.size());
  EXPECT_EQ(r.run.restrictions.stats.pool_tasks, r.run.restrictions.pairs.size());
}

TEST(EngineTest, SequentialEnginesKeepIndependentSolverTallies) {
  // Regression for the cross-run counter bleed: solver tallies used to live in
  // process-wide globals, so a second pipeline's lifetime counters started wherever the
  // first left off. Each Engine owns its sink now — its tally is exactly its own work.
  // One thread, so both engines solve exactly the same queries (no twin-query race).
  EngineConfig config;
  config.threads = 1;
  app::App todo = apps::MakeTodoApp();

  Engine first(config);
  PipelineResult r1 = first.Run(todo);
  const smt::SolverSharedCounts c1 = first.counters().Shared();

  Engine second(config);
  PipelineResult r2 = second.Run(todo);
  const smt::SolverSharedCounts c2 = second.counters().Shared();

  ASSERT_GT(r1.restrictions.stats.incremental_reuse_hits, 0u);
  EXPECT_EQ(c1.incremental_reuse_hits, r1.restrictions.stats.incremental_reuse_hits);
  EXPECT_EQ(c2.incremental_reuse_hits, r2.restrictions.stats.incremental_reuse_hits);
  // Identical work, not first's tally plus second's.
  EXPECT_EQ(c1.incremental_reuse_hits, c2.incremental_reuse_hits);
  EXPECT_EQ(c1.symmetry_pruned, c2.symmetry_pruned);
  // Running the second engine must not have moved the first engine's counters.
  EXPECT_EQ(first.counters().Shared().incremental_reuse_hits, c1.incremental_reuse_hits);
}

TEST(EngineTest, IdleEngineConstructsAndDestructsCleanly) {
  Engine engine{EngineConfig{}};
  EXPECT_EQ(engine.verdicts().size(), 0u);
  EXPECT_EQ(engine.counters().Shared().incremental_reuse_hits, 0u);
}

TEST(EngineTest, VerdictCacheCapacityKnobReachesTheEngineCache) {
  ASSERT_EQ(unsetenv("NOCTUA_VERDICT_CACHE"), 0);
  // Unset = unbounded, preserving the throwaway per-call facade's old behavior.
  EXPECT_EQ(EngineConfig::FromEnv().verdict_cache_capacity, 0u);

  ASSERT_EQ(setenv("NOCTUA_VERDICT_CACHE", "123", 1), 0);
  EngineConfig config = EngineConfig::FromEnv();
  EXPECT_EQ(config.verdict_cache_capacity, 123u);
  Engine engine(config);
  EXPECT_EQ(engine.verdicts().capacity(), 123u);
  ASSERT_EQ(unsetenv("NOCTUA_VERDICT_CACHE"), 0);
}

TEST(EngineTest, ResolveOptionsPinsAutoKnobsAndInjectsEngineState) {
  EngineConfig config;
  config.symmetry = false;
  Engine engine(config);

  PipelineOptions defaults;
  PipelineOptions resolved = engine.ResolveOptions(defaults);
  EXPECT_EQ(resolved.checker.solver.symmetry, smt::Toggle::kOff);
  EXPECT_EQ(resolved.parallel.pool, &engine.pool());
  EXPECT_EQ(resolved.parallel.counters, &engine.counters());
  EXPECT_EQ(resolved.parallel.store, &engine.verdicts());

  // A caller that brought its own store (or asked for a bounded run-local cache, or a
  // different pool width) keeps it — the engine never overrides explicit choices.
  verifier::VerdictCache mine;
  PipelineOptions custom;
  custom.parallel.store = &mine;
  custom.parallel.threads = engine.pool().threads() + 1;
  PipelineOptions kept = engine.ResolveOptions(custom);
  EXPECT_EQ(kept.parallel.store, &mine);
  EXPECT_EQ(kept.parallel.pool, nullptr);
}

// Concurrent runs on one engine: no engine-wide lock, so runs overlap on the shared pool
// and each must still report exactly what it reports alone.

// The schedule-independent figures of a run: at width 1 all of these are exact.
std::vector<uint64_t> ExactStats(const verifier::ReportStats& st) {
  return {st.pairs,           st.prefiltered,    st.solver_checks,
          st.cache_hits,      st.cache_misses,   st.cache_evictions,
          st.replayed,        st.solver_nodes,   st.pool_tasks,
          st.pool_steals,     st.pairs_computed, st.pairs_replayed,
          st.incremental_reuse_hits, st.symmetry_pruned};
}

// Runs fn(0) and fn(1) on two threads released together.
template <typename Fn>
void RunOverlapped(Fn fn) {
  std::latch start(2);
  std::thread t0([&] {
    start.arrive_and_wait();
    fn(0);
  });
  std::thread t1([&] {
    start.arrive_and_wait();
    fn(1);
  });
  t0.join();
  t1.join();
}

TEST(EngineConcurrencyTest, OverlappingRunsReportTheirSoloStats) {
  // Width 1, so every figure is deterministic; two tenants' stores, so cache sharing
  // between the apps cannot differ between the solo and the overlapped runs.
  EngineConfig config;
  config.threads = 1;
  config.artifact_root = ::testing::TempDir() + "/noctua_concurrent_stats";
  std::filesystem::remove_all(config.artifact_root);
  const std::vector<app::App> apps = {apps::MakeCoursewareApp(), apps::MakeBlogApp()};
  IncrementalOptions options;
  options.pipeline.checker.solver.budget.deterministic = true;

  auto stats_of = [&](Engine& engine, const std::string& tenant, size_t k) {
    return engine.RunIncremental(apps[k], engine.TenantStoreDir(tenant, apps[k].name()), options)
        .run.restrictions.stats;
  };

  Engine solo(config);
  std::vector<verifier::ReportStats> alone;
  for (size_t k = 0; k < apps.size(); ++k) {
    alone.push_back(stats_of(solo, "solo", k));
  }

  Engine shared(config);
  std::vector<verifier::ReportStats> together(apps.size());
  RunOverlapped([&](size_t k) { together[k] = stats_of(shared, "t" + std::to_string(k), k); });
  uint64_t reuse = 0;
  for (size_t k = 0; k < apps.size(); ++k) {
    EXPECT_EQ(ExactStats(together[k]), ExactStats(alone[k])) << apps[k].name();
    reuse += together[k].incremental_reuse_hits;
  }
  // The engine's sink holds exactly the sum of what the runs reported.
  EXPECT_GT(reuse, 0u);
  EXPECT_EQ(shared.counters().Shared().incremental_reuse_hits, reuse);
}

TEST(EngineConcurrencyTest, TwoTenantsOverlapOnOneEngineWithTheirSoloRestrictionSets) {
  EngineConfig config;
  config.threads = 4;
  config.artifact_root = ::testing::TempDir() + "/noctua_concurrent_tenants";
  std::filesystem::remove_all(config.artifact_root);
  const std::vector<app::App> apps = {apps::MakeSmallBankApp(), apps::MakeCoursewareApp()};
  std::vector<std::vector<std::string>> solo;
  for (const app::App& a : apps) {
    solo.push_back(Pipeline::Run(a).restrictions.RestrictedPairNames());
  }
  Engine engine(config);
  std::vector<IncrementalResult> results(apps.size());
  RunOverlapped([&](size_t k) {
    results[k] = engine.RunIncremental(
        apps[k], engine.TenantStoreDir("tenant" + std::to_string(k), apps[k].name()));
  });
  for (size_t k = 0; k < apps.size(); ++k) {
    EXPECT_EQ(results[k].run.restrictions.RestrictedPairNames(), solo[k]) << apps[k].name();
    EXPECT_EQ(results[k].run.restrictions.stats.pool_tasks,
              results[k].run.restrictions.pairs.size());
  }
  EXPECT_EQ(engine.StoreLocksInUse(), 0u);
}

TEST(EngineConcurrencyTest, ConcurrentObservedRunsDoNotAbort) {
  // Both runs ask for a report; only one can own the process's recording session. The
  // other records into it or reports nothing — it must not die installing a second one.
  Engine engine{EngineConfig{}};
  const app::App bank = apps::MakeSmallBankApp();
  const std::vector<std::string> expected =
      Pipeline::Run(bank).restrictions.RestrictedPairNames();
  PipelineOptions options;
  options.obs.enabled = true;
  options.parallel.cache_capacity = 1024;  // run-local caches: both runs really solve
  for (int round = 0; round < 5; ++round) {
    std::vector<PipelineResult> results(2);
    RunOverlapped([&](size_t k) { results[k] = engine.Run(bank, options); });
    for (const PipelineResult& r : results) {
      EXPECT_EQ(r.restrictions.RestrictedPairNames(), expected);
    }
    EXPECT_TRUE(results[0].has_report || results[1].has_report);
  }
  EXPECT_FALSE(obs::Active());
}

}  // namespace
}  // namespace noctua
