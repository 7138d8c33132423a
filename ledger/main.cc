// noctua_ledger: the repository benchmark. Three workloads, each one unit of
// user-visible work per op, every op checked against ledger/expected.json:
//
//   cold   all six apps analyzed and verified from scratch, each on a fresh Engine
//   edit   incremental re-analysis of Zhihu and OwnPhotos after scripted edits
//   serve  an in-process service::Server under three closed-loop client connections
//
// Untraced runs print the end-to-end metrics; a traced run (--trace 1) prints the
// per-layer ledger instead. See ledger/README.md for what each metric is and why each
// workload exists.
//
//   noctua_ledger --workload cold|edit|serve --seed N --seconds S --trace 0|1
//                 --expected ledger/expected.json --work-dir DIR
//   noctua_ledger --write-expected ledger/expected.json --work-dir DIR
//
// The last line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Lines before it stamp the configuration and
// list every metric with its sample count.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "scenario.h"
#include "src/analyzer/analyzer.h"
#include "src/obs/json.h"
#include "src/obs/obs.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/session.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/support/rng.h"
#include "src/support/stopwatch.h"
#include "src/verifier/cache.h"
#include "src/verifier/encoder.h"
#include "stats.h"

namespace fs = std::filesystem;
using noctua::Stopwatch;

namespace ledger {
namespace {

// Set-up repetitions per run; setup_s is their median. Cold's set-up (building the
// apps) takes well under a millisecond, so it repeats more to steady the median.
constexpr int kSetupReps = 3;
constexpr int kColdSetupReps = 15;
// The serve workload's closed-loop client connections.
constexpr int kServeConnections = 3;
// A serve round: one shuffled block of kServeBlockOps ops per connection.
constexpr int kServeBlockOps = 28;
// Blocks per connection in the traced run's serve segment (>= 200 analyze requests).
constexpr int kLedgerServeBlocks = 3;
// Session::LoadPrior / Save repetitions in the traced run's edit segment.
constexpr int kStoreIoReps = 5;

struct Ctx {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;
  int width = 1;  // every pool: min(4, nproc)
  std::string work;
  Expected expected;
  std::string backend = "unknown";
};

// Ops attempted/failed; thread-safe so serve connections can share it.
class Tally {
 public:
  void Op(const std::string& what, const std::string& why) {
    std::lock_guard<std::mutex> lk(mu_);
    ++attempted_;
    if (!why.empty()) {
      ++failed_;
      Note(what + ": " + why);
    }
  }
  // A failed set-up step: not an op, but the run is not correct.
  void Setup(const std::string& what, const std::string& why) {
    if (why.empty()) {
      return;
    }
    std::lock_guard<std::mutex> lk(mu_);
    ++setup_failed_;
    Note("set-up " + what + ": " + why);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && setup_failed_ == 0 && attempted_ > 0; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  void Note(const std::string& s) {
    if (notes_.size() < 20) {
      notes_.push_back(s);
    }
  }
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t setup_failed_ = 0;
  std::vector<std::string> notes_;
};

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return std::max(1, CPU_COUNT(&set));
}

noctua::EngineConfig EngineConfigFor(int threads) {
  noctua::EngineConfig c;
  c.threads = threads;
  c.solver = noctua::smt::BackendKind::kDfs;
  c.symmetry = true;
  c.incremental = true;
  return c;
}

noctua::PipelineOptions RunOptions(int threads) {
  noctua::PipelineOptions o;
  o.checker.solver.budget.deterministic = true;
  o.parallel.threads = threads;
  return o;
}

noctua::IncrementalOptions IncOptions(int threads) {
  noctua::IncrementalOptions o;
  o.pipeline = RunOptions(threads);
  return o;
}

template <typename T>
void Shuffle(std::vector<T>* v, noctua::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBelow(i)]);
  }
}

std::vector<size_t> Permutation(size_t n, noctua::Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  Shuffle(&order, rng);
  return order;
}

void CopyTree(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::create_directories(fs::path(to).parent_path());
  fs::copy(from, to, fs::copy_options::recursive);
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) {
      bytes += e.file_size();
    }
  }
  return bytes;
}

// Time and CPU of one measured round.
struct RoundClock {
  Stopwatch wall;
  double cpu0 = ProcessCpuSeconds();
  void Finish(std::vector<double>* walls, std::vector<double>* cpus) const {
    walls->push_back(wall.ElapsedSeconds());
    cpus->push_back(ProcessCpuSeconds() - cpu0);
  }
};

void AddRoundMetrics(MetricSet* m, const std::vector<double>& setups,
                     const std::vector<double>& walls, const std::vector<double>& cpus,
                     size_t ops, double measured_s) {
  m->Add("setup_s", Median(setups), "s", setups.size());
  m->Add("wall_s", Median(walls), "s", walls.size());
  m->Add("cpu_s", Median(cpus), "s", cpus.size());
  m->Add("ops_per_s", static_cast<double>(ops) / measured_s, "1/s", ops);
}

void AddOpPercentiles(MetricSet* m, const std::vector<double>& op_ms) {
  m->Add("op_p50_ms", NearestRank(op_ms, 0.50), "ms", op_ms.size());
  m->Add("op_p99_ms", NearestRank(op_ms, 0.99), "ms", op_ms.size());
}

// Means, not medians: a serve request either waits in the admission queue or not, and a
// median of such a two-valued mix jumps when the share that waits crosses one half.
void AddAppSeconds(MetricSet* m, std::map<std::string, std::vector<double>>& per_app) {
  m->Add("zhihu_s", Mean(per_app["Zhihu"]), "s", per_app["Zhihu"].size());
  m->Add("ownphotos_s", Mean(per_app["OwnPhotos"]), "s", per_app["OwnPhotos"].size());
}

// One artifact store to prime: `app` at each revision in `omits`, in order.
struct PrimeJob {
  std::string app;
  std::string store;
  std::vector<std::string> omits;
  bool stamp = false;  // StampFingerprints, so analysis memoizes per endpoint
};

// Primes stores under the deterministic budget, each lane on its own Engine: Zhihu's
// stores on one thread (its time is one long pair, leaving the pool room), all others on
// the calling thread. Set-up only; measured ops never overlap.
void PrimeStores(Ctx& ctx, const std::vector<PrimeJob>& jobs, Tally* tally) {
  std::string backends[2];
  auto lane = [&](int id) {
    noctua::Engine engine(EngineConfigFor(ctx.width));
    for (const PrimeJob& job : jobs) {
      if ((job.app == "Zhihu") != (id == 0)) {
        continue;
      }
      for (const std::string& omit : job.omits) {
        noctua::app::App app = MakeRevision(job.app, omit);
        if (job.stamp) {
          StampFingerprints(app);
        }
        noctua::IncrementalResult r =
            engine.RunIncremental(app, job.store, IncOptions(ctx.width));
        backends[id] = r.run.stats().solver_backend;
        tally->Setup("prime " + RevisionKey(job.app, omit),
                     CheckReport(r.run.restrictions,
                                 ctx.expected.Find(RevisionKey(job.app, omit))));
      }
    }
  };
  {
    std::jthread zhihu(lane, 0);
    lane(1);
  }
  ctx.backend = backends[1].empty() ? backends[0] : backends[1];
}

// ---------------------------------------------------------------------------------------
// cold: one op = one app analyzed and verified from scratch on a fresh Engine.

struct ColdOp {
  std::string app;
  double seconds = 0;
  noctua::PipelineResult result;
};

ColdOp RunColdOp(Ctx& ctx, const std::string& name, const noctua::app::App& app,
                 int threads, Tally* tally) {
  ColdOp op;
  op.app = name;
  Stopwatch watch;
  noctua::Engine engine(EngineConfigFor(threads));
  op.result = engine.Run(app, RunOptions(threads));
  op.seconds = watch.ElapsedSeconds();
  ctx.backend = op.result.stats().solver_backend;
  tally->Op("cold " + op.app,
            CheckReport(op.result.restrictions, ctx.expected.Find(op.app)));
  return op;
}

std::vector<noctua::app::App> MakeAllApps() {
  std::vector<noctua::app::App> apps;
  for (const std::string& name : AppNames()) {
    apps.push_back(MakeApp(name));
  }
  return apps;
}

void RunCold(Ctx& ctx, MetricSet* m, Tally* tally) {
  std::vector<double> setup;
  std::vector<noctua::app::App> apps;
  for (int rep = 0; rep < kColdSetupReps; ++rep) {
    Stopwatch watch;
    apps = MakeAllApps();
    setup.push_back(watch.ElapsedSeconds());
  }

  const std::vector<std::string> names = AppNames();
  noctua::Rng rng(ctx.seed);
  std::vector<double> walls, cpus, op_ms;
  std::map<std::string, std::vector<double>> per_app;
  // Whole rounds until --seconds have passed, and at least two, so that no per-round
  // median rests on a single round.
  Stopwatch measured;
  do {
    RoundClock round;
    for (size_t i : Permutation(apps.size(), &rng)) {
      ColdOp op = RunColdOp(ctx, names[i], apps[i], ctx.width, tally);
      op_ms.push_back(op.seconds * 1e3);
      per_app[op.app].push_back(op.seconds);
      std::fprintf(stderr, "ledger: cold %-14s %8.3fs\n", op.app.c_str(), op.seconds);
    }
    round.Finish(&walls, &cpus);
  } while (walls.size() < 2 || measured.ElapsedSeconds() < ctx.seconds);

  AddRoundMetrics(m, setup, walls, cpus, op_ms.size(), measured.ElapsedSeconds());
  AddOpPercentiles(m, op_ms);
  AddAppSeconds(m, per_app);
}

// ---------------------------------------------------------------------------------------
// edit: one op = one RunIncremental of an edited app against a copy of a primed store.

struct EditFixture {
  // Per app: the store primed with the full app, and the one primed with the
  // revision view omitted (the starting point of restore_view).
  std::map<std::string, std::string> primed, omitted;
  std::vector<EditVariant> variants;
  std::vector<noctua::app::App> apps;  // variants[i].make(), built once
};

void PrimeEditStores(Ctx& ctx, const std::string& dir, EditFixture* f, Tally* tally) {
  std::vector<PrimeJob> primed, omitted;
  for (const std::string& app : EditApps()) {
    f->primed[app] = dir + "/" + app + "/primed";
    f->omitted[app] = dir + "/" + app + "/omitted";
    primed.push_back({app, f->primed[app], {""}, true});
    omitted.push_back({app, f->omitted[app], {RevisionView(app)}, true});
  }
  PrimeStores(ctx, primed, tally);
  for (const std::string& app : EditApps()) {
    CopyTree(f->primed[app], f->omitted[app]);
  }
  PrimeStores(ctx, omitted, tally);
}

// Builds the fixture into a fresh directory.
void SetUpEdit(Ctx& ctx, const std::string& dir, EditFixture* f, Tally* tally) {
  fs::remove_all(dir);
  *f = EditFixture{};
  PrimeEditStores(ctx, dir, f, tally);
  f->variants = EditVariants();
  for (const EditVariant& v : f->variants) {
    f->apps.push_back(v.make());
  }
}

struct EditOp {
  double seconds = 0;
  double cpu_seconds = 0;
  noctua::IncrementalResult result;
};

EditOp RunEditOp(Ctx& ctx, noctua::Engine& engine, const EditFixture& f, size_t i,
                 Tally* tally) {
  const EditVariant& v = f.variants[i];
  const std::string store = ctx.work + "/edit-op";
  CopyTree(v.from_omitted ? f.omitted.at(v.app) : f.primed.at(v.app), store);
  EditOp op;
  double cpu0 = ProcessCpuSeconds();
  Stopwatch watch;
  op.result = engine.RunIncremental(f.apps[i], store, IncOptions(ctx.width));
  op.seconds = watch.ElapsedSeconds();
  op.cpu_seconds = ProcessCpuSeconds() - cpu0;
  ctx.backend = op.result.run.stats().solver_backend;
  std::string why = CheckReport(op.result.run.restrictions, ctx.expected.Find(v.expected_key));
  if (why.empty() && op.result.cold) {
    why = "primed store was not reused";
  }
  if (why.empty() && !op.result.artifacts_saved) {
    why = "artifacts were not saved";
  }
  tally->Op("edit " + v.app + "/" + v.name, why);
  return op;
}

// The run alternates set-up and measurement: each of the kSetupReps set-ups is followed
// by a third of the measured time on the fixture it built, so the measured rounds are
// spread over the whole run rather than one window of it.
void RunEdit(Ctx& ctx, MetricSet* m, Tally* tally) {
  noctua::Engine engine(EngineConfigFor(ctx.width));
  noctua::Rng rng(ctx.seed);
  std::vector<double> setup, walls, cpus, op_ms;
  std::map<std::string, std::vector<double>> per_app;
  double measured_s = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    EditFixture f;
    Stopwatch watch;
    SetUpEdit(ctx, ctx.work + "/edit-setup-" + std::to_string(rep), &f, tally);
    setup.push_back(watch.ElapsedSeconds());
    do {
      // Restoring a store happens between ops and is not part of the measurement.
      double round_s = 0;
      double round_cpu = 0;
      for (size_t i : Permutation(f.variants.size(), &rng)) {
        EditOp op = RunEditOp(ctx, engine, f, i, tally);
        round_cpu += op.cpu_seconds;
        round_s += op.seconds;
        op_ms.push_back(op.seconds * 1e3);
        per_app[f.variants[i].app].push_back(op.seconds);
      }
      walls.push_back(round_s);
      cpus.push_back(round_cpu);
      measured_s += round_s;
    } while (measured_s < ctx.seconds * (rep + 1) / kSetupReps);
  }

  AddRoundMetrics(m, setup, walls, cpus, op_ms.size(), measured_s);
  AddOpPercentiles(m, op_ms);
  AddAppSeconds(m, per_app);
}

// ---------------------------------------------------------------------------------------
// serve: one op = one HTTP request to an in-process daemon.

struct ServeOp {
  enum Kind { kWarm, kFresh, kMetrics } kind = kWarm;
  std::string app;
  std::string omit;  // revision view ("" = the app itself)
};

// One block: every app x revision twice (warm, primed tenant), one fresh-tenant cold
// request, and three /metrics scrapes — shuffled. The fresh request's app rotates over
// Todo, SmallBank and Courseware from block to block: cold solving runs on the whole
// engine pool, and more of it would leave most requests' latency to queueing behind it.
std::vector<ServeOp> ServeBlock(int block, noctua::Rng* rng) {
  static const char* const kFreshApps[] = {"Todo", "SmallBank", "Courseware"};
  std::vector<ServeOp> ops;
  for (int twice = 0; twice < 2; ++twice) {
    for (const std::string& app : AppNames()) {
      ops.push_back({ServeOp::kWarm, app, ""});
      ops.push_back({ServeOp::kWarm, app, RevisionView(app)});
    }
  }
  ops.push_back({ServeOp::kFresh, kFreshApps[block % 3], ""});
  for (int i = 0; i < 3; ++i) {
    ops.push_back({ServeOp::kMetrics, "", ""});
  }
  Shuffle(&ops, rng);
  return ops;
}

struct ServeSample {
  ServeOp op;
  std::string trace_id;
  double ms = 0;
  int status = 0;
};

std::string WarmTenant(int conn) { return "warm" + std::to_string(conn); }

// The daemon as noctua-serve configures it by default, over a primed artifact root.
struct ServeFixture {
  std::string access_log;
  std::unique_ptr<noctua::service::Server> server;
};

void SetUpServeOnce(Ctx& ctx, const std::string& root, int connections, ServeFixture* f,
                    Tally* tally) {
  f->server.reset();  // its collector must be gone before priming
  fs::remove_all(root);
  fs::create_directories(root);
  noctua::service::ServiceOptions opts;
  opts.workers = 2;
  opts.readers = 2;
  opts.max_queue = 8;
  opts.log_level = noctua::obs::LogLevel::kInfo;
  opts.log_file = root + "/access.log";
  opts.engine = EngineConfigFor(ctx.width);
  opts.engine.artifact_root = root;
  opts.engine.verdict_cache_capacity = 65536;
  f->access_log = opts.log_file;
  f->server = std::make_unique<noctua::service::Server>(opts);

  // Prime every app x revision for the first warm tenant, in the daemon's own store
  // layout, then give each other connection its own copy.
  std::vector<PrimeJob> jobs;
  for (const std::string& app : AppNames()) {
    jobs.push_back({app, f->server->engine().TenantStoreDir(WarmTenant(0), app),
                    {"", RevisionView(app)}, false});
  }
  PrimeStores(ctx, jobs, tally);
  for (int c = 1; c < connections; ++c) {
    CopyTree(root + "/" + WarmTenant(0), root + "/" + WarmTenant(c));
  }

  std::string error;
  if (!f->server->Start(&error)) {
    tally->Setup("server start", error.empty() ? "failed" : error);
    f->server.reset();
  }
}

// Issues one request and checks the answer.
ServeSample ServeRequest(Ctx& ctx, noctua::service::Client& client, int conn,
                         const ServeOp& op, uint64_t n, Tally* tally) {
  ServeSample s;
  s.op = op;
  s.trace_id = "ldg-" + std::to_string(conn) + "-" + std::to_string(n);
  noctua::service::HttpResponse resp;
  std::string error;
  bool sent = false;
  std::string what;
  Stopwatch watch;
  if (op.kind == ServeOp::kMetrics) {
    what = "GET /metrics";
    sent = client.Get("/metrics", &resp, &error);
  } else {
    noctua::service::AnalyzeParams p;
    p.tenant = op.kind == ServeOp::kWarm
                   ? WarmTenant(conn)
                   : "fresh-" + std::to_string(conn) + "-" + std::to_string(n);
    p.app = op.app;
    if (!op.omit.empty()) {
      p.omit_views.push_back(op.omit);
    }
    p.trace_id = s.trace_id;
    what = std::string(op.kind == ServeOp::kWarm ? "warm " : "fresh ") +
           RevisionKey(op.app, op.omit);
    sent = client.Analyze(p, &resp, &error);
  }
  s.ms = watch.ElapsedMillis();
  s.status = sent ? resp.status : 0;

  std::string why;
  noctua::obs::JsonPtr body;
  if (!sent) {
    why = "transport error: " + error;
  } else if (resp.status != 200) {
    why = "HTTP " + std::to_string(resp.status);
  } else if (body = noctua::obs::ParseJson(resp.body, &error); body == nullptr) {
    why = "unparseable body: " + error;
  } else if (op.kind != ServeOp::kMetrics) {
    std::vector<std::string> names;
    noctua::obs::JsonPtr list = body->Get("restrictions");
    noctua::obs::JsonPtr cold = body->Get("cold");
    if (list == nullptr || !list->is_array() || cold == nullptr || !cold->is_bool()) {
      why = "response lacks restrictions/cold";
    } else {
      for (const noctua::obs::JsonPtr& item : list->AsArray()) {
        names.push_back(item->is_string() ? item->AsString() : "?");
      }
      why = CheckNames(names, ctx.expected.Find(RevisionKey(op.app, op.omit)));
      if (why.empty() && cold->AsBool() != (op.kind == ServeOp::kFresh)) {
        why = op.kind == ServeOp::kWarm ? "primed store was not reused"
                                        : "fresh tenant was not cold";
      }
    }
  }
  tally->Op("serve " + what, why);
  return s;
}

// Closed-loop load: each connection issues its shuffled blocks back to back, until
// `seconds` have passed (seconds > 0) or it has finished `blocks` blocks. `segment`
// salts the seed so each measured segment of a run draws its own blocks.
std::vector<ServeSample> DriveServe(Ctx& ctx, int port, int connections, double seconds,
                                    int blocks, int segment, Tally* tally) {
  std::vector<std::vector<ServeSample>> per_conn(connections);
  Stopwatch clock;
  auto connection = [&](int c) {
    noctua::service::Client client("127.0.0.1", port);
    noctua::Rng rng(ctx.seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<uint64_t>(segment * kServeConnections + c) + 1);
    uint64_t n = 0;
    for (int b = 0; seconds > 0 || b < blocks; ++b) {
      for (const ServeOp& op : ServeBlock(b + c, &rng)) {
        if (seconds > 0 && clock.ElapsedSeconds() >= seconds) {
          return;
        }
        per_conn[c].push_back(ServeRequest(ctx, client, c, op, n++, tally));
      }
    }
  };
  {
    std::vector<std::jthread> threads;  // joined at the end of this scope
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back(connection, c);
    }
  }
  std::vector<ServeSample> all;
  for (auto& v : per_conn) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

int ServeConnections(const Ctx& ctx) { return std::min(kServeConnections, ctx.nproc); }

// Like RunEdit, alternates set-up (a freshly primed daemon) and a third of the
// measured time against it.
void RunServe(Ctx& ctx, MetricSet* m, Tally* tally) {
  const int connections = ServeConnections(ctx);
  std::vector<double> setup;
  std::vector<ServeSample> samples;
  double measured_s = 0, cpu_s = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ServeFixture f;
    Stopwatch watch;
    SetUpServeOnce(ctx, ctx.work + "/serve-" + std::to_string(rep), connections, &f, tally);
    setup.push_back(watch.ElapsedSeconds());
    if (f.server == nullptr) {
      return;
    }
    double cpu0 = ProcessCpuSeconds();
    Stopwatch measured;
    std::vector<ServeSample> part = DriveServe(ctx, f.server->port(), connections,
                                               ctx.seconds / kSetupReps, 0, rep, tally);
    measured_s += measured.ElapsedSeconds();
    cpu_s += ProcessCpuSeconds() - cpu0;
    f.server->Stop();
    samples.insert(samples.end(), part.begin(), part.end());
  }

  std::vector<double> op_ms;
  std::map<std::string, std::vector<double>> per_app;
  for (const ServeSample& s : samples) {
    op_ms.push_back(s.ms);
    if (s.op.kind == ServeOp::kWarm) {
      per_app[s.op.app].push_back(s.ms / 1e3);
    }
  }
  // A round is one block per connection; wall and CPU are per round-equivalent of ops.
  const double round_ops = static_cast<double>(connections * kServeBlockOps);
  const double rounds = static_cast<double>(samples.size()) / round_ops;
  AddRoundMetrics(m, setup, {measured_s / rounds}, {cpu_s / rounds}, samples.size(),
                  measured_s);
  AddOpPercentiles(m, op_ms);
  AddAppSeconds(m, per_app);
}

// ---------------------------------------------------------------------------------------
// The traced run: the per-layer ledger. Times the public entry points itself and reads
// the pipeline's collector for encode and solve span times.

struct SpanTotals {
  double solve_s = 0;
  double encode_s = 0;
};

SpanTotals SumSpans(const noctua::obs::Collector& c) {
  SpanTotals t;
  for (const noctua::obs::TraceEvent& e : c.events()) {
    if (e.category == nullptr) {
      continue;
    }
    if (std::strcmp(e.category, noctua::obs::kCatSolve) == 0) {
      t.solve_s += static_cast<double>(e.dur_us) * 1e-6;
    } else if (std::strcmp(e.category, noctua::obs::kCatEncode) == 0) {
      t.encode_s += static_cast<double>(e.dur_us) * 1e-6;
    }
  }
  return t;
}

double PairSeconds(const noctua::verifier::PairVerdict& v) {
  return v.com_seconds + v.sem_seconds;
}

// Times CommutativityKey/NotInvalidateKey over every non-prefiltered pair of a run, in
// the verifier's pair order. Returns milliseconds; sets *why if the report's pairs are
// not in that order.
double KeyMillis(const noctua::PipelineResult& r, const noctua::app::App& app,
                 std::string* why) {
  const std::vector<noctua::soir::CodePath>& paths = r.analysis.EffectfulPaths();
  std::set<int> order_models;
  for (const noctua::soir::CodePath& p : paths) {
    std::set<int> m = noctua::verifier::Encoder::OrderRelevantModels(p);
    order_models.insert(m.begin(), m.end());
  }
  const std::vector<noctua::verifier::PairVerdict>& pairs = r.restrictions.pairs;
  size_t k = 0;
  Stopwatch watch;
  for (size_t i = 0; i < paths.size(); ++i) {
    for (size_t j = i; j < paths.size(); ++j, ++k) {
      if (k >= pairs.size() || pairs[k].p != paths[i].op_name ||
          pairs[k].q != paths[j].op_name) {
        *why = "pair order differs from the effectful path order";
        return 0;
      }
      if (pairs[k].prefiltered) {
        continue;
      }
      const noctua::soir::Schema& s = app.schema();
      noctua::verifier::CommutativityKey(s, paths[i], paths[j], order_models);
      noctua::verifier::NotInvalidateKey(s, paths[i], paths[j]);
      noctua::verifier::NotInvalidateKey(s, paths[j], paths[i]);
    }
  }
  return watch.ElapsedMillis();
}

struct ColdLedger {
  uint64_t pairs = 0, prefiltered = 0, checks_w1 = 0, nodes_w1 = 0, hits = 0, lookups = 0;
  uint64_t checks_wn = 0, expected_checks_w1 = 0, steals = 0;
  size_t budget_exhausted = 0;
  double solve_s = 0, encode_s = 0, pair_s_w1 = 0, key_ms = 0;
  double pair_s_wn = 0, verify_s_wn = 0, untraced_s = 0, traced_s = 0;
  std::vector<double> ownphotos_pair_ms;
  double zhihu_top_s = 0, zhihu_verify_s = 0;
};

void LedgerCold(Ctx& ctx, ColdLedger* L, Tally* tally) {
  const std::vector<std::string> names = AppNames();
  const std::vector<noctua::app::App> apps = MakeAllApps();
  noctua::obs::ObsOptions obs_on;
  obs_on.enabled = true;

  // Width 1, traced: exact counts, per-pair times free of pool contention.
  for (size_t a = 0; a < apps.size(); ++a) {
    const std::string& name = names[a];
    std::optional<noctua::obs::Collector> collector(std::in_place, obs_on);
    ColdOp op = RunColdOp(ctx, name, apps[a], 1, tally);
    collector->Stop();
    SpanTotals spans = SumSpans(*collector);
    collector.reset();
    const noctua::verifier::ReportStats& st = op.result.stats();
    const ExpectedSet* e = ctx.expected.Find(name);
    if (e != nullptr && (st.solver_checks != e->solver_checks || st.solver_nodes != e->smt_nodes)) {
      tally->Setup("width-1 " + name,
                   "solver_checks " + std::to_string(st.solver_checks) + " / smt.nodes " +
                       std::to_string(st.solver_nodes) + " differ from the committed " +
                       std::to_string(e->solver_checks) + " / " +
                       std::to_string(e->smt_nodes));
    }
    L->expected_checks_w1 += e != nullptr ? e->solver_checks : 0;
    L->pairs += st.pairs;
    L->prefiltered += st.prefiltered;
    L->checks_w1 += st.solver_checks;
    L->nodes_w1 += st.solver_nodes;
    L->hits += st.cache_hits;
    L->lookups += st.cache_hits + st.cache_misses;
    L->solve_s += spans.solve_s;
    L->encode_s += spans.encode_s;
    L->budget_exhausted += BudgetExhausted(op.result.restrictions);
    double top = 0;
    for (const noctua::verifier::PairVerdict& v : op.result.restrictions.pairs) {
      L->pair_s_w1 += PairSeconds(v);
      top = std::max(top, PairSeconds(v));
      if (name == "OwnPhotos" && !v.prefiltered) {
        L->ownphotos_pair_ms.push_back(PairSeconds(v) * 1e3);
      }
    }
    if (name == "Zhihu") {
      L->zhihu_top_s = top;
      L->zhihu_verify_s = op.result.restrictions.total_seconds;
    }
    std::string why;
    L->key_ms += KeyMillis(op.result, apps[a], &why);
    tally->Setup("keys " + name, why);
  }

  // Width N, one untraced and one traced round: pool use, duplicate solves, trace
  // overhead. Pool figures come from the untraced round.
  for (bool traced : {false, true}) {
    Stopwatch round;
    for (size_t a = 0; a < apps.size(); ++a) {
      std::optional<noctua::obs::Collector> collector;
      if (traced) {
        collector.emplace(obs_on);
      }
      ColdOp op = RunColdOp(ctx, names[a], apps[a], ctx.width, tally);
      if (traced) {
        continue;
      }
      const noctua::verifier::ReportStats& st = op.result.stats();
      L->checks_wn += st.solver_checks;
      L->steals += st.pool_steals;
      L->verify_s_wn += op.result.restrictions.total_seconds;
      for (const noctua::verifier::PairVerdict& v : op.result.restrictions.pairs) {
        L->pair_s_wn += PairSeconds(v);
      }
    }
    (traced ? L->traced_s : L->untraced_s) = round.ElapsedSeconds();
  }
}

struct EditLedger {
  std::vector<double> analyze_ms;
  uint64_t endpoints = 0, endpoints_reused = 0, replayed = 0, lookups = 0, computed = 0;
  std::vector<double> load_ms, save_ms;
  uint64_t store_bytes = 0;
};

void LedgerEdit(Ctx& ctx, EditLedger* L, Tally* tally) {
  EditFixture f;
  SetUpEdit(ctx, ctx.work + "/ledger-edit", &f, tally);

  // Store I/O on its own: Session::LoadPrior of each primed store, and Session::Save of
  // what it loaded into a scratch store. Summed over the edit apps per repetition.
  for (int rep = 0; rep < kStoreIoReps; ++rep) {
    double load = 0, save = 0;
    for (const std::string& app_name : EditApps()) {
      noctua::app::App app = MakeRevision(app_name, "");
      StampFingerprints(app);
      noctua::analyzer::AnalysisResult analysis;
      noctua::verifier::VerdictCache verdicts;
      Stopwatch lw;
      bool loaded = noctua::Session(f.primed.at(app_name)).LoadPrior(app, &analysis, &verdicts);
      load += lw.ElapsedMillis();
      const std::string scratch = ctx.work + "/ledger-save/" + app_name;
      fs::remove_all(scratch);
      Stopwatch sw;
      bool saved = noctua::Session(scratch).Save(app, analysis, verdicts);
      save += sw.ElapsedMillis();
      tally->Setup("store i/o " + app_name,
                   loaded && saved ? "" : "LoadPrior/Save of the primed store failed");
    }
    L->load_ms.push_back(load);
    L->save_ms.push_back(save);
  }
  for (const std::string& app_name : EditApps()) {
    L->store_bytes += TreeBytes(f.primed.at(app_name));
  }

  noctua::Engine engine(EngineConfigFor(ctx.width));
  for (size_t i = 0; i < f.variants.size(); ++i) {
    EditOp op = RunEditOp(ctx, engine, f, i, tally);
    const noctua::IncrementalResult& r = op.result;
    const noctua::verifier::ReportStats& st = r.run.stats();
    L->analyze_ms.push_back(r.run.analysis.seconds * 1e3);
    L->endpoints += r.run.analysis.endpoint_digests.size();
    L->endpoints_reused += r.endpoints_reused;
    L->replayed += st.replayed;
    L->lookups += st.cache_hits + st.cache_misses;
    L->computed += r.pairs_computed;
  }
}

struct ServeLedger {
  std::vector<double> queue_ms, handle_ms, overhead_ms, metrics_ms;
  uint64_t rejected = 0;
};

void LedgerServe(Ctx& ctx, ServeLedger* L, Tally* tally) {
  const int connections = ServeConnections(ctx);
  ServeFixture f;
  SetUpServeOnce(ctx, ctx.work + "/ledger-serve", connections, &f, tally);
  if (f.server == nullptr) {
    return;
  }
  std::vector<ServeSample> samples =
      DriveServe(ctx, f.server->port(), connections, 0, kLedgerServeBlocks, 0, tally);
  f.server->Stop();
  f.server.reset();  // flushes and closes the access log

  // The daemon's access log: one json line per request, keyed by our trace ids.
  std::map<std::string, std::pair<double, double>> logged;  // trace id -> (wait, handle) ms
  std::ifstream in(f.access_log);
  std::string line, error;
  while (std::getline(in, line)) {
    noctua::obs::JsonPtr doc = noctua::obs::ParseJson(line, &error);
    if (doc == nullptr || doc->Get("trace_id") == nullptr || doc->Get("service_us") == nullptr ||
        doc->Get("queue_wait_us") == nullptr) {
      continue;
    }
    logged[doc->Get("trace_id")->AsString()] = {doc->Get("queue_wait_us")->AsDouble() / 1e3,
                                                doc->Get("service_us")->AsDouble() / 1e3};
  }
  size_t unmatched = 0;
  for (const ServeSample& s : samples) {
    L->rejected += s.status == 503 ? 1 : 0;
    if (s.op.kind == ServeOp::kMetrics) {
      L->metrics_ms.push_back(s.ms);
      continue;
    }
    auto it = logged.find(s.trace_id);
    if (it == logged.end()) {
      ++unmatched;
      continue;
    }
    L->queue_ms.push_back(it->second.first);
    L->handle_ms.push_back(it->second.second);
    L->overhead_ms.push_back(s.ms - it->second.first - it->second.second);
  }
  tally->Setup("access log", unmatched == 0 ? ""
                                            : std::to_string(unmatched) +
                                                  " requests missing from the access log");
}

double Frac(double num, double den) { return den > 0 ? num / den : 0; }

void RunLedger(Ctx& ctx, MetricSet* m, Tally* tally) {
  ColdLedger c;
  LedgerCold(ctx, &c, tally);
  EditLedger e;
  LedgerEdit(ctx, &e, tally);
  ServeLedger s;
  LedgerServe(ctx, &s, tally);

  m->Add("analyzer.analyze_ms", Median(e.analyze_ms), "ms", e.analyze_ms.size());
  m->Add("analyzer.endpoints_reused_frac", Frac(e.endpoints_reused, e.endpoints), "frac");
  m->Add("verifier.prefiltered_frac", Frac(c.prefiltered, c.pairs), "frac");
  m->Add("verifier.solver_checks", c.checks_w1, "count");
  m->Add("verifier.dup_solve_frac",
         Frac(static_cast<double>(c.checks_wn) - static_cast<double>(c.expected_checks_w1),
              c.checks_wn),
         "frac");
  m->Add("verifier.cache_hit_frac", Frac(c.hits, c.lookups), "frac");
  m->Add("verifier.replayed_frac", Frac(e.replayed, e.lookups), "frac");
  m->Add("verifier.key_ms", c.key_ms, "ms");
  m->Add("verifier.encode_s", c.encode_s, "s");
  m->Add("verifier.pair_p50_ms", NearestRank(c.ownphotos_pair_ms, 0.50), "ms",
         c.ownphotos_pair_ms.size());
  m->Add("verifier.pair_p99_ms", NearestRank(c.ownphotos_pair_ms, 0.99), "ms",
         c.ownphotos_pair_ms.size());
  m->Add("verifier.top_pair_s", c.zhihu_top_s, "s");
  m->Add("verifier.top_pair_frac", Frac(c.zhihu_top_s, c.zhihu_verify_s), "frac");
  m->Add("verifier.budget_exhausted", static_cast<double>(c.budget_exhausted), "count");
  m->Add("smt.solve_s", c.solve_s, "s");
  m->Add("smt.solve_frac", Frac(c.solve_s, c.pair_s_w1), "frac");
  m->Add("smt.nodes", c.nodes_w1, "count");
  m->Add("smt.nodes_per_s", Frac(c.nodes_w1, c.solve_s), "1/s");
  m->Add("support.pool_busy_frac", Frac(c.pair_s_wn, ctx.width * c.verify_s_wn), "frac");
  m->Add("support.pool_steals", c.steals, "count");
  m->Add("pipeline.load_prior_ms", Median(e.load_ms), "ms", e.load_ms.size());
  m->Add("pipeline.save_ms", Median(e.save_ms), "ms", e.save_ms.size());
  m->Add("pipeline.store_bytes", e.store_bytes, "bytes");
  m->Add("pipeline.pairs_computed", e.computed, "count");
  m->Add("service.queue_wait_ms_p50", NearestRank(s.queue_ms, 0.50), "ms", s.queue_ms.size());
  m->Add("service.queue_wait_ms_p99", NearestRank(s.queue_ms, 0.99), "ms", s.queue_ms.size());
  m->Add("service.handle_ms_p50", NearestRank(s.handle_ms, 0.50), "ms", s.handle_ms.size());
  m->Add("service.handle_ms_p99", NearestRank(s.handle_ms, 0.99), "ms", s.handle_ms.size());
  m->Add("service.overhead_ms", Median(s.overhead_ms), "ms", s.overhead_ms.size());
  m->Add("service.metrics_ms", Median(s.metrics_ms), "ms", s.metrics_ms.size());
  m->Add("service.rejected", static_cast<double>(s.rejected), "count");
  m->Add("obs.trace_overhead_frac", Frac(c.traced_s, c.untraced_s) - 1, "frac");
}

// ---------------------------------------------------------------------------------------

int WriteExpected(Ctx& ctx, const std::string& path) {
  std::vector<std::pair<std::string, std::function<noctua::app::App()>>> sets;
  for (const std::string& app : AppNames()) {
    sets.emplace_back(app, [app] { return MakeApp(app); });
    const std::string view = RevisionView(app);
    sets.emplace_back(RevisionKey(app, view), [app, view] { return MakeRevision(app, view); });
  }
  for (auto& e : EditExpectations()) {
    sets.push_back(std::move(e));
  }
  std::string json =
      "{\"about\": \"Restriction sets computed at width 1 under the deterministic budget "
      "(noctua_ledger --write-expected). solver_checks and smt_nodes are exact width-1 "
      "tallies.\",\n \"sets\": {";
  for (size_t i = 0; i < sets.size(); ++i) {
    noctua::app::App app = sets[i].second();
    noctua::Engine engine(EngineConfigFor(1));
    noctua::PipelineResult r = engine.Run(app, RunOptions(1));
    if (size_t n = BudgetExhausted(r.restrictions); n > 0) {
      std::fprintf(stderr, "ledger: %s: %zu verdicts exhausted their budget\n",
                   sets[i].first.c_str(), n);
      return 1;
    }
    std::vector<std::string> names = r.restrictions.RestrictedPairNames();
    json += std::string(i ? ",\n  " : "\n  ") + JsonString(sets[i].first) +
            ": {\"restrictions\": " + std::to_string(names.size()) +
            ", \"digest\": " + JsonString(RestrictionDigest(names));
    if (sets[i].first.find('/') == std::string::npos) {
      json += ", \"solver_checks\": " + std::to_string(r.stats().solver_checks) +
              ", \"smt_nodes\": " + std::to_string(r.stats().solver_nodes);
    }
    json += "}";
    std::fprintf(stderr, "ledger: %-40s %4zu restrictions  %.2fs\n", sets[i].first.c_str(),
                 names.size(), r.total_seconds);
  }
  json += "\n }\n}\n";
  std::ofstream out(path);
  out << json;
  return out ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload cold|edit|serve --seed N --seconds S --trace 0|1 "
               "--expected FILE --work-dir DIR\n"
               "       %s --write-expected FILE --work-dir DIR\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  Ctx ctx;
  std::string expected_path, write_expected;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    std::string val = argv[++i];
    if (arg == "--workload") {
      ctx.workload = val;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      ctx.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      ctx.trace = val == "1";
    } else if (arg == "--expected") {
      expected_path = val;
    } else if (arg == "--work-dir") {
      ctx.work = val;
    } else if (arg == "--write-expected") {
      write_expected = val;
    } else {
      return Usage(argv[0]);
    }
  }
  ctx.nproc = CpuCount();
  ctx.width = std::min(4, ctx.nproc);
  if (ctx.work.empty()) {
    return Usage(argv[0]);
  }
  fs::create_directories(ctx.work);
  if (!write_expected.empty()) {
    return WriteExpected(ctx, write_expected);
  }
  std::string error;
  if (ctx.workload != "cold" && ctx.workload != "edit" && ctx.workload != "serve") {
    return Usage(argv[0]);
  }
  if (!ctx.expected.Load(expected_path, &error)) {
    std::fprintf(stderr, "ledger: %s\n", error.c_str());
    return 2;
  }

  MetricSet metrics;
  Tally tally;
  if (ctx.trace) {
    RunLedger(ctx, &metrics, &tally);
  } else if (ctx.workload == "cold") {
    RunCold(ctx, &metrics, &tally);
  } else if (ctx.workload == "edit") {
    RunEdit(ctx, &metrics, &tally);
  } else {
    RunServe(ctx, &metrics, &tally);
  }
  // Printed with the rest but kept out of the result line (ledger/README.md says why):
  // fail_frac is 0 when the program is correct, and serve's peak RSS is mostly the
  // daemon's span buffers, a step function of how many requests a run completed.
  MetricSet table_only;
  if (!ctx.trace) {
    table_only.Add("peak_rss_mb", PeakRssMb(), "MiB");
  }
  table_only.Add("fail_frac",
                 Frac(static_cast<double>(tally.failed()),
                      static_cast<double>(tally.attempted())),
                 "frac", tally.attempted());
  std::printf("{\"stamp\": {\"workload\": %s, \"trace\": %d, \"seed\": %llu, "
              "\"seconds\": %s, \"backend\": %s, \"pool_width\": %d, \"nproc\": %d, "
              "\"client_connections\": %d, \"build_type\": %s, \"budget\": "
              "\"deterministic\"}}\n",
              JsonString(ctx.workload).c_str(), ctx.trace ? 1 : 0,
              static_cast<unsigned long long>(ctx.seed), JsonNumber(ctx.seconds).c_str(),
              JsonString(ctx.backend).c_str(), ctx.width, ctx.nproc, ServeConnections(ctx),
              JsonString(LEDGER_BUILD_TYPE).c_str());
  std::printf("%s%s", metrics.Table().c_str(), table_only.Table().c_str());
  for (const std::string& note : tally.notes()) {
    std::printf("  FAILED %s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              tally.correct() ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()), metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}
