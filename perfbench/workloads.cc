#include "workloads.h"

#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <shared_mutex>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/sequential_executor.h"
#include "exec/parallel_engine.h"
#include "loadgen.h"
#include "parallel/parallel_tree.h"
#include "server/tcp_server.h"
#include "spans.h"
#include "storage/generation.h"
#include "storage/index_io.h"
#include "storage/mutable_index.h"
#include "storage/page_store.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"
#include "workload/workload.h"

namespace sqp::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupRepeats = 5;
constexpr int kRecoveryRepeats = 21;
constexpr int kPageSize = 4096;
constexpr size_t kClusters = 256;
constexpr size_t kQueryPool = 4096;
constexpr size_t kSampledAnswers = 16;
constexpr size_t kWarmQueries = 100;
constexpr size_t kWoptssSample = 64;
// Commits left un-folded in the WAL before the recovery measurement:
// enough that replaying them, not opening the base image, dominates.
constexpr size_t kTailCommits = 1000;
constexpr double kDeleteShare = 0.2;
// A read past this is a failure, so a stall shows in failed ops instead
// of hanging the run.
constexpr double kReadDeadlineS = 2.0;
// An open-loop phase is invalid when its sends ran this late at p99: the
// generator fell behind. Host stalls of a few hundred ms happen on shared
// machines and drain again; see CheckOpenLoop for the backlog rule.
constexpr double kLateP99BoundMs = 500.0;
// Engine span ring of the traced run (the untraced run keeps the
// default that `sqp_cli serve` runs with).
constexpr size_t kTraceRing = 1 << 18;
// Windows of the best-of-N estimators (harness.h). Host stalls come in
// bursts of tenths of a second to seconds, so short windows let the
// estimate find an undisturbed stretch.
constexpr int kKnnWindows = 10;
constexpr int kPeakWindows = 20;
constexpr int kWriteWindows = 5;
// A write stream may overrun its planned duration by this factor before
// its remaining ops are dropped.
constexpr double kWriteStretch = 3.0;
// Measurements of the read phase before a run whose generator keeps
// falling behind is given up as invalid.
constexpr int kReadAttempts = 3;

int LoadConnections() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw, 1, 4));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Clustered points whose per-query cost varies little from seed to seed:
// kClusters Gaussian clusters of equal population and one spread, plus a
// uniform tenth. (workload::MakeClustered draws heavy-tailed cluster sizes
// and spreads, so the cost of a query mix moves by tens of percent
// between seeds.)
workload::Dataset MakePoints(size_t n, int dim, double spread,
                             uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<double>> centers(kClusters);
  for (auto& c : centers) {
    for (int d = 0; d < dim; ++d) c.push_back(rng.Uniform(0.1, 0.9));
  }
  workload::Dataset data;
  data.name = "perfbench-clustered";
  data.dim = dim;
  data.points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<geometry::Coord> p(static_cast<size_t>(dim));
    const auto& c = centers[i % kClusters];
    for (int d = 0; d < dim; ++d) {
      const double v = i % 10 == 9 ? rng.Uniform()
                                   : rng.Gaussian(c[static_cast<size_t>(d)],
                                                  spread);
      p[static_cast<size_t>(d)] =
          static_cast<geometry::Coord>(std::clamp(v, 0.0, 1.0));
    }
    data.points.push_back(geometry::Point::FromVector(std::move(p)));
  }
  return data;
}

// Points by object id (never change for an id) and the writes a run may
// apply, generated up front from the seed. A run applies a prefix of
// `ops`; LiveAfter gives the live set that prefix leaves.
struct Model {
  std::vector<geometry::Point> points;
  size_t base = 0;  // ids below this are the bulk-loaded points
  struct Op {
    bool insert = true;
    rstar::ObjectId id = 0;
  };
  std::vector<Op> ops;

  // Live flags by id after the first `n` ops.
  std::vector<uint8_t> LiveAfter(size_t n) const {
    std::vector<uint8_t> live(points.size(), 0);
    std::fill(live.begin(), live.begin() + static_cast<long>(base), 1);
    for (size_t i = 0; i < std::min(n, ops.size()); ++i) {
      live[ops[i].id] = ops[i].insert ? 1 : 0;
    }
    return live;
  }
};

// Inserts jittered copies of existing points under fresh ids and deletes
// random live objects, simulating the live set as it goes, so every
// prefix of the stream is valid to apply.
void MakeWrites(size_t n, uint64_t seed, int dim, Model* m) {
  common::Rng rng(seed);
  m->base = m->points.size();
  std::vector<rstar::ObjectId> live(m->base);
  std::iota(live.begin(), live.end(), rstar::ObjectId{0});
  for (size_t i = 0; i < n; ++i) {
    Model::Op op;
    if (rng.Uniform() < kDeleteShare && !live.empty()) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      op.insert = false;
      op.id = live[at];
      live[at] = live.back();
      live.pop_back();
    } else {
      const auto src = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(m->base) - 1));
      std::vector<geometry::Coord> c = m->points[src].coords();
      for (int d = 0; d < dim; ++d) {
        const double v = c[static_cast<size_t>(d)] + rng.Gaussian(0.0, 1e-3);
        c[static_cast<size_t>(d)] =
            static_cast<geometry::Coord>(std::clamp(v, 0.0, 1.0));
      }
      op.id = m->points.size();
      m->points.push_back(geometry::Point::FromVector(std::move(c)));
      live.push_back(op.id);
    }
    m->ops.push_back(op);
  }
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 + 1e-6 * std::fabs(b);
}

// Exact k-NN over the live model by brute force.
std::vector<core::Neighbor> BruteKnn(const Model& m,
                                     const std::vector<uint8_t>& live,
                                     const geometry::Point& q, size_t k) {
  std::vector<core::Neighbor> all;
  all.reserve(live.size());
  for (size_t id = 0; id < live.size(); ++id) {
    if (live[id] == 0) continue;
    all.push_back({id, geometry::DistanceSq(q, m.points[id])});
  }
  const size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(n),
                    all.end(), [](const auto& a, const auto& b) {
                      if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
                      return a.object < b.object;
                    });
  all.resize(n);
  return all;
}

// Same distances position by position (ids may differ only among ties).
bool SameAnswer(const std::vector<core::Neighbor>& got,
                const std::vector<core::Neighbor>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!Close(got[i].dist_sq, want[i].dist_sq)) return false;
  }
  return true;
}

// Cheap check of every streamed answer: k results in distance order, each
// the distance of the object it names.
bool PlausibleAnswer(const Model& m, const geometry::Point& q, size_t k,
                     const std::vector<core::Neighbor>& got) {
  if (got.size() != k) return false;
  double prev = 0.0;
  for (const core::Neighbor& nb : got) {
    if (nb.object >= m.points.size()) return false;
    if (!Close(geometry::DistanceSq(q, m.points[nb.object]), nb.dist_sq)) {
      return false;
    }
    if (nb.dist_sq < prev) return false;
    prev = nb.dist_sq;
  }
  return true;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// Share of CPU time the hypervisor gave to other guests (the `steal`
// column of /proc/stat) since the last call; explains outlier runs.
double StealShare() {
  static uint64_t last_steal = 0, last_total = 0;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  uint64_t v[8] = {};
  const int n = std::fscanf(f, "cpu %lu %lu %lu %lu %lu %lu %lu %lu", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return 0.0;
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  const double share = total > last_total
                           ? static_cast<double>(v[7] - last_steal) /
                                 static_cast<double>(total - last_total)
                           : 0.0;
  last_steal = v[7];
  last_total = total;
  return share;
}

struct Usage {
  double cpu_ms = 0.0;
  double ctx_switches = 0.0;
  double max_rss_mb = 0.0;
};
Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_ms = 1e3 * (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-3 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

// Resident set size of this process now (/proc/self/statm), in MB.
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20)
                : 0.0;
}

// Samples the resident set every 10 ms on a thread of its own, from
// construction until Stop(), and keeps the largest sample.
class RssSampler {
 public:
  RssSampler() : max_mb_(RssMb()), thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  // Ends the sampling; returns the largest sample.
  double Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    max_mb_ = std::max(max_mb_, RssMb());
    ++samples_;
    return max_mb_;
  }
  uint64_t samples() const { return samples_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(10),
                         [this] { return stop_; })) {
      max_mb_ = std::max(max_mb_, RssMb());
      ++samples_;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double max_mb_;
  uint64_t samples_ = 1;
  std::thread thread_;
};

// One served index and everything in front of it. Members are declared
// in dependency order so destruction tears the server down first and the
// registry last.
struct Served {
  obs::MetricsRegistry registry;
  std::unique_ptr<parallel::ParallelRStarTree> index;
  std::unique_ptr<storage::FilePageStore> file_store;
  std::unique_ptr<storage::ThrottledPageStore> throttled;
  std::unique_ptr<ObservedPageStore> observed;
  std::unique_ptr<ObservedGenerationEnv> env;
  std::unique_ptr<storage::MutableIndex> mindex;
  std::unique_ptr<exec::ParallelQueryEngine> engine;
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::TcpServer> server;

  ~Served() { StopServing(); }

  const parallel::ParallelRStarTree& tree() const {
    return mindex != nullptr ? mindex->index() : *index;
  }
  size_t live_pages() const { return tree().tree().NodeCount(); }

  void StopServing() {
    if (server != nullptr) server->Stop();
    server.reset();
    service.reset();
    engine.reset();
  }
};

exec::EngineOptions ServeOptions(const WorkloadSpec& spec, bool trace,
                                 obs::MetricsRegistry* registry) {
  exec::EngineOptions eo;
  eo.cache_pages = spec.cache_pages;
  eo.metrics = registry;
  if (trace) eo.trace_capacity = kTraceRing;
  return eo;
}

common::Status OpenMutable(const std::string& dir, StoreCounters* counters,
                           SpanLog* log, Served* s) {
  s->env = std::make_unique<ObservedGenerationEnv>(
      std::make_unique<storage::FileGenerationEnv>(dir), counters, log);
  auto mi = storage::MutableIndex::Open(s->env.get());
  if (!mi.ok()) return mi.status();
  s->mindex = std::move(*mi);
  s->mindex->EnableMetrics(&s->registry);
  return common::Status::OK();
}

common::Status StartServing(const WorkloadSpec& spec, bool trace, Served* s) {
  auto engine =
      s->mindex != nullptr
          ? exec::ParallelQueryEngine::CreateMutable(
                s->mindex.get(), ServeOptions(spec, trace, &s->registry))
          : exec::ParallelQueryEngine::Create(
                *s->index,
                s->observed != nullptr
                    ? static_cast<const storage::PageStore*>(s->observed.get())
                : s->throttled != nullptr
                    ? static_cast<const storage::PageStore*>(s->throttled.get())
                    : s->file_store.get(),
                ServeOptions(spec, trace, &s->registry));
  if (!engine.ok()) return engine.status();
  s->engine = std::move(*engine);
  s->service = std::make_unique<server::QueryService>(
      s->tree(), s->engine.get(), server::ServiceOptions{});
  auto srv = server::TcpServer::Start(s->service.get(), {});
  if (!srv.ok()) return srv.status();
  s->server = std::move(*srv);
  return common::Status::OK();
}

struct SetupTimes {
  double build_s = 0.0;
  double open_s = 0.0;
  double warm_s = 0.0;
};

// Build, open and warm one serving stack; see workloads.h.
common::Status SetUp(const WorkloadSpec& spec, const RunArgs& args,
                     const std::string& dir, StoreCounters* counters,
                     SpanLog* log, uint64_t parent, Served* s, Model* model,
                     std::vector<geometry::Point>* queries, SetupTimes* t) {
  const double t0 = NowS();
  workload::Dataset data =
      MakePoints(spec.points, spec.dim, spec.cluster_spread, args.seed);
  *queries = workload::MakeQueryPoints(
      data, kQueryPool, workload::QueryDistribution::kDataDistributed,
      args.seed + 1);
  rstar::TreeConfig tc;
  tc.dim = spec.dim;
  tc.page_size_bytes = kPageSize;
  parallel::DeclusterConfig dc;
  dc.num_disks = spec.disks;
  dc.seed = args.seed;
  {
    parallel::ParallelRStarTree built(tc, dc);
    std::vector<rstar::ObjectId> ids(data.points.size());
    std::iota(ids.begin(), ids.end(), rstar::ObjectId{0});
    if (auto st = built.tree().BulkLoad(data.points, ids); !st.ok()) return st;
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (auto st = storage::SaveIndexToDir(built, dir); !st.ok()) return st;
  }
  model->points = std::move(data.points);
  const double t1 = NowS();
  log->Record(log->NewId(), parent, "setup.build", t0, t1);

  if (spec.mutable_serving) {
    if (auto st = OpenMutable(dir, counters, log, s); !st.ok()) return st;
  } else {
    auto loaded = workload::LoadParallelIndex(dir);
    if (!loaded.ok()) return loaded.status();
    s->index = std::move(*loaded);
    auto store = storage::FilePageStore::Open(dir);
    if (!store.ok()) return store.status();
    s->file_store = std::move(*store);
    const storage::PageStore* base = s->file_store.get();
    if (spec.throttle_s > 0) {
      s->throttled =
          std::make_unique<storage::ThrottledPageStore>(base, spec.throttle_s);
      base = s->throttled.get();
    }
    if (args.trace) {
      s->observed = std::make_unique<ObservedPageStore>(base, counters, log);
    }
  }
  if (auto st = StartServing(spec, args.trace, s); !st.ok()) return st;
  const double t2 = NowS();
  log->Record(log->NewId(), parent, "setup.open", t1, t2);

  // Warm-up: a whole-space range query when the cache can hold the index,
  // then k-NN bursts until the cache is (nearly) full.
  const int port = s->server->port();
  const size_t target = std::min(spec.cache_pages, s->live_pages());
  if (spec.cache_pages >= s->live_pages()) {
    auto c = server::Client::Connect("127.0.0.1", port);
    if (!c.ok()) return c.status();
    server::QuerySpec all;
    all.mode = server::QueryMode::kRange;
    all.point = (*queries)[0];
    all.radius = 2.0 * std::sqrt(static_cast<double>(spec.dim));
    const server::StreamOutcome out = (*c)->Run(all);
    if (!out.status.ok()) return out.status;
  }
  ReadLoad warm;
  warm.port = port;
  warm.connections = LoadConnections();
  warm.mode = spec.mode;
  warm.k = spec.k;
  warm.queries = queries;
  warm.first_query = kQueryPool / 2;
  // Stop once the cache is (nearly) at its target or stopped growing.
  int64_t resident = -1;
  for (int round = 0; round < 8; ++round) {
    const auto ops = RunOpenLoop(warm, kWarmQueries, 1e9);  // a burst
    for (const OpRecord& op : ops) {
      if (op.fail != Fail::kNone) {
        return common::Status::Internal("warm-up query failed");
      }
    }
    warm.first_query += kWarmQueries;
    const int64_t now = s->registry.Snapshot().GaugeValue(
        "sqp_cache_resident_pages");
    if (static_cast<double>(now) >= 0.95 * static_cast<double>(target) ||
        now <= resident) {
      break;
    }
    resident = now;
  }
  const double t3 = NowS();
  log->Record(log->NewId(), parent, "setup.warm", t2, t3);
  t->build_s = t1 - t0;
  t->open_s = t2 - t1;
  t->warm_s = t3 - t2;
  return common::Status::OK();
}

// Runs one set-up in a fresh process (this binary with --setup-only) and
// reads back its times.
common::Status SetUpInChild(const WorkloadSpec& spec, const RunArgs& args,
                            int rep, SetupTimes* t) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return common::Status::Internal("cannot find own binary");
  exe[len] = '\0';
  const std::string out =
      args.work_dir + "/setup-" + std::to_string(rep) + ".txt";
  const std::string seed = std::to_string(args.seed);
  const std::string work = args.work_dir + "/setup-" + std::to_string(rep);
  std::vector<std::string> argv_s = {exe,         "--workload", spec.name,
                                     "--seed",    seed,         "--seconds",
                                     "1",         "--trace",    "0",
                                     "--work-dir", work,        "--setup-only",
                                     out};
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, exe, nullptr, nullptr, argv.data(), environ) != 0) {
    return common::Status::Internal("cannot start a set-up process");
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  std::ifstream in(out);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !(in >> t->build_s >> t->open_s >> t->warm_s)) {
    return common::Status::Internal("set-up process failed");
  }
  in.close();
  fs::remove(out, ec);
  return common::Status::OK();
}

// Counter state at a phase boundary.
struct Marks {
  obs::MetricsSnapshot registry;
  storage::MutationStats mutation;
  uint64_t invalidations = 0;
  uint64_t read_calls = 0, read_ns = 0, bytes_written = 0, sync_ns = 0;
  Usage usage;
};
Marks TakeMarks(const Served& s, const StoreCounters& c) {
  Marks m;
  m.registry = s.registry.Snapshot();
  if (s.mindex != nullptr) m.mutation = s.mindex->mutation_stats();
  if (s.engine != nullptr) {
    m.invalidations = s.engine->cache().GetStats().invalidations;
  }
  m.read_calls = c.read_calls.load();
  m.read_ns = c.read_ns.load();
  m.bytes_written = c.bytes_written.load();
  m.sync_ns = c.sync_ns.load();
  m.usage = ReadUsage();
  return m;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> LatenciesMs(const std::vector<OpRecord>& ops) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpRecord& op : ops) v.push_back(op.LatencyMs());
  return v;
}

std::vector<double> LatenessOf(const std::vector<OpRecord>& ops) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpRecord& op : ops) v.push_back(LatenessMs(op.due_s, op.sent_s));
  return v;
}

// Ops completed per second from the first due time to the last
// completion.
double AchievedRate(const std::vector<OpRecord>& ops) {
  if (ops.size() < 2) return 0.0;
  double last = 0.0;
  for (const OpRecord& op : ops) last = std::max(last, op.done_s);
  return Ratio(static_cast<double>(ops.size() - 1), last - ops.front().due_s);
}

size_t CountFailed(const std::vector<OpRecord>& ops, Fail kind) {
  return static_cast<size_t>(std::count_if(
      ops.begin(), ops.end(), [&](const OpRecord& o) { return o.fail == kind; }));
}

size_t CountFailed(const std::vector<OpRecord>& ops) {
  return static_cast<size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [](const OpRecord& o) { return o.fail != Fail::kNone; }));
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec hd;
    hd.name = "warm_highdim";
    hd.dim = 16;
    hd.cluster_spread = 0.05;
    // The cache maps a page to shard (key % 16), and page keys are
    // page-aligned file offsets, so every page lands in one shard holding
    // 1/16 of the capacity. 16 x 8192 keeps the ~4.4k-page index resident
    // under that mapping and under any better one.
    hd.cache_pages = 16 * 8192;
    hd.mode = server::QueryMode::kKnnStream;
    hd.read_rate = 300;
    hd.write_rate = 200;
    v.push_back(hd);
    WorkloadSpec ak;
    ak.name = "array_knn";
    ak.dim = 2;
    ak.cache_pages = 60;  // ~10% of the ~600-page index
    ak.throttle_s = 0.001;
    ak.mode = server::QueryMode::kKnnBatch;
    ak.read_rate = 200;
    ak.write_rate = 200;
    v.push_back(ak);
    WorkloadSpec in;
    in.name = "ingest_mixed";
    in.dim = 2;
    in.mode = server::QueryMode::kKnnStream;
    in.read_rate = 300;
    in.read_connections = 3;
    in.mutable_serving = true;
    in.write_rate = 75;
    in.compact_records = 150;
    in.read_share = 0.8;
    in.peak_share = 0.2;
    in.write_share = 0.0;
    v.push_back(in);
    return v;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int RunSetupOnly(const WorkloadSpec& spec, const RunArgs& args,
                 const std::string& out_path) {
  // Die with the run that started this process.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) return 1;
  SpanLog log(false);
  StoreCounters counters;
  Model model;
  std::vector<geometry::Point> queries;
  SetupTimes t;
  const std::string dir = args.work_dir + "/" + spec.name;
  common::Status st;
  {
    Served s;
    st = SetUp(spec, args, dir, &counters, &log, 0, &s, &model, &queries, &t);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "%.9f %.9f %.9f\n", t.build_s, t.open_s, t.warm_s);
  return std::fclose(f) == 0 ? 0 : 1;
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunArgs& args) {
  RunResult r;
  auto problem = [&](bool* flag, const std::string& what) {
    *flag = false;
    r.problems.push_back(what);
  };
  SpanLog log(args.trace);
  StoreCounters counters;
  StealShare();
  const uint64_t setup_span = log.NewId();
  const double run_start = NowS();
  log.SetAmbientParent(setup_span);

  // --- set-up, repeated; the last stack keeps serving ---------------------
  std::vector<SetupTimes> setups;
  std::unique_ptr<Served> s;
  Model model;
  std::vector<geometry::Point> queries;
  std::string dir;
  // All but the last in fresh processes, so that the serving process's
  // heap holds one set-up's history, as a deployment's does.
  for (int rep = 0; rep + 1 < kSetupRepeats; ++rep) {
    SetupTimes t;
    const common::Status st = SetUpInChild(spec, args, rep, &t);
    if (!st.ok()) {
      problem(&r.correct, "set-up failed: " + st.ToString());
      return r;
    }
    setups.push_back(t);
  }
  {
    dir = args.work_dir + "/" + spec.name;
    s = std::make_unique<Served>();
    SetupTimes t;
    const common::Status st = SetUp(spec, args, dir, &counters, &log,
                                    setup_span, s.get(), &model, &queries, &t);
    if (!st.ok()) {
      problem(&r.correct, "set-up failed: " + st.ToString());
      return r;
    }
    setups.push_back(t);
  }
  log.Record(setup_span, 0, "setup", run_start, NowS());
  const std::string io_backend = s->engine->io_backend_name();
  const std::string io_fallback = s->engine->io_backend_fallback_reason();
  // Serving memory: the resident set over the read and peak phases,
  // starting from a heap trimmed of what the set-up freed (its transient
  // peak is not serving).
  malloc_trim(0);
  const size_t index_pages = s->live_pages();
  const double serving_rss_start_mb = RssMb();
  RssSampler serving_rss;

  // --- the write stream, generated up front ------------------------------
  const double read_s = args.seconds * spec.read_share;
  const double peak_s = args.seconds * spec.peak_share;
  const double write_s = args.seconds * spec.write_share;
  const size_t phase_writes = static_cast<size_t>(
      spec.write_rate * (spec.mutable_serving ? read_s : write_s));
  // Enough ops for every read attempt (and the traced run's untraced
  // share) plus the tail.
  MakeWrites(phase_writes * (kReadAttempts + 1) + kTailCommits, args.seed + 2,
             spec.dim, &model);
  auto apply = [&](size_t i) -> bool {
    const Model::Op& op = model.ops[i];
    const geometry::Point& p = model.points[op.id];
    return (op.insert ? s->mindex->Insert(p, op.id)
                      : s->mindex->Delete(p, op.id))
        .ok();
  };

  // Sampled queries whose answers get the exact check.
  std::set<size_t> sampled;
  {
    common::Rng rng(args.seed + 3);
    while (sampled.size() < kSampledAnswers) {
      sampled.insert(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(kQueryPool) - 1)));
    }
  }
  std::mutex answers_mu;
  std::map<size_t, std::vector<core::Neighbor>> answers;
  const AnswerCheck check = [&](size_t q, const server::StreamOutcome& out) {
    const size_t qi = q % kQueryPool;
    if (!PlausibleAnswer(model, queries[qi], spec.k, out.neighbors)) {
      return false;
    }
    if (!spec.mutable_serving && sampled.count(qi) != 0) {
      std::lock_guard<std::mutex> lock(answers_mu);
      answers.emplace(qi, out.neighbors);
    }
    return true;
  };

  // --- read phase ----------------------------------------------------------
  ReadLoad load;
  load.port = s->server->port();
  load.connections = spec.read_connections;
  load.mode = spec.mode;
  load.k = spec.k;
  load.deadline_s = kReadDeadlineS;
  load.queries = &queries;
  load.check = check;
  load.log = &log;
  if (spec.mutable_serving) {
    storage::CompactionPolicy policy;
    policy.max_wal_records = spec.compact_records;
    s->mindex->StartCompaction(policy);
  }
  size_t next_write = 0;
  size_t next_query = 0;
  std::vector<OpRecord> write_ops;
  auto read_phase = [&](double seconds) {
    const uint64_t span = log.NewId();
    const double start = NowS();
    log.SetAmbientParent(span);
    load.parent_span = span;
    load.first_query = next_query;
    std::vector<OpRecord> writes;
    std::thread writer;
    const size_t first = next_write;
    if (spec.mutable_serving) {
      const size_t n = static_cast<size_t>(spec.write_rate * seconds);
      writer = std::thread([&, n, first] {
        writes = RunPacedWrites(
            n, spec.write_rate, [&](size_t i) { return apply(first + i); },
            kWriteStretch * seconds, &log, span);
      });
    }
    std::vector<OpRecord> reads = RunOpenLoop(
        load, static_cast<size_t>(spec.read_rate * seconds), spec.read_rate);
    if (writer.joinable()) writer.join();
    next_write = first + writes.size();
    next_query += reads.size();
    write_ops.insert(write_ops.end(), writes.begin(), writes.end());
    log.Record(span, 0, "phase.read", start, NowS());
    return std::make_pair(std::move(reads), std::move(writes));
  };
  uint64_t bytes_before_writes = counters.bytes_written.load();
  // The traced run gives a third of the phase to an untraced reference
  // series (for trace.overhead_frac) and traces the rest.
  std::vector<OpRecord> untraced_reads;
  if (args.trace) {
    log.SetEnabled(false);
    untraced_reads = read_phase(read_s / 3).first;
    log.SetEnabled(true);
  }
  const double scored_s = args.trace ? read_s * 2 / 3 : read_s;
  // A phase whose generator fell behind (a host stall backs the open loop
  // up) is not scored; it is measured again, up to kReadAttempts times.
  // Its ops still count as attempted, and their failures and wrong
  // answers still count.
  Marks before, after;
  double traced_start = 0.0;
  std::vector<OpRecord> reads, phase_writes_ops, discarded_reads;
  std::vector<std::string> discarded;
  for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
    discarded_reads.insert(discarded_reads.end(), reads.begin(), reads.end());
    before = TakeMarks(*s, counters);
    traced_start = NowS();
    std::tie(reads, phase_writes_ops) = read_phase(scored_s);
    after = TakeMarks(*s, counters);
    const OpenLoopVerdict v =
        CheckOpenLoop(LatenessOf(reads), kLateP99BoundMs, AchievedRate(reads),
                      spec.read_rate);
    if (v.valid) break;
    discarded.push_back(v.reason);
  }

  // Engine step spans of the traced phase, grouped per query.
  double ring_fetch_s = 0.0, ring_process_s = 0.0, ring_pages = 0.0;
  size_t ring_queries = 0;
  if (args.trace && s->engine->trace() != nullptr) {
    struct PerQuery {
      double fetch = 0, process = 0, pages = 0;
      bool first_step = false, closed = false;
    };
    std::map<uint64_t, PerQuery> per;
    const double epoch = s->engine->trace()->epoch_seconds();
    for (const obs::TraceSpan& sp : s->engine->trace()->Snapshot()) {
      if (epoch + sp.start_s < traced_start) continue;
      PerQuery& q = per[sp.query_id];
      if (std::string(sp.phase) == "query") {
        q.closed = true;
      } else {
        q.fetch += sp.fetch_s;
        q.process += sp.process_s;
        q.pages += sp.pages;
        if (sp.step == 0) q.first_step = true;
      }
    }
    for (const auto& [id, q] : per) {
      if (!q.first_step || !q.closed) continue;
      ++ring_queries;
      ring_fetch_s += q.fetch;
      ring_process_s += q.process;
      ring_pages += q.pages;
    }
  }

  // Sequential WOPTSS on the phase's first queries: the paper's lower
  // bound on pages.
  double woptss_pages = 0.0, engine_pages = 0.0;
  if (args.trace) {
    std::shared_lock<std::shared_mutex> lock;
    if (s->mindex != nullptr) {
      lock = std::shared_lock<std::shared_mutex>(s->mindex->reader_mutex());
    }
    const rstar::RStarTree& tree = s->tree().tree();
    for (size_t i = 0; i < std::min(kWoptssSample, reads.size()); ++i) {
      if (reads[i].fail != Fail::kNone) continue;
      auto algo = core::MakeAlgorithm(core::AlgorithmKind::kWoptss, tree,
                                      queries[reads[i].query % kQueryPool],
                                      spec.k, spec.disks);
      woptss_pages += static_cast<double>(
          core::RunToCompletion(tree, algo.get()).pages_fetched);
      engine_pages += static_cast<double>(reads[i].pages);
    }
  }

  // --- peak phase ------------------------------------------------------
  ReadLoad peak = load;
  peak.connections = LoadConnections();
  peak.deadline_s = 0.0;
  peak.first_query = next_query;
  peak.parent_span = log.NewId();
  log.SetAmbientParent(peak.parent_span);
  const double peak_start = NowS();
  const ClosedLoopResult closed = RunClosedLoop(peak, peak_s);
  log.Record(peak.parent_span, 0, "phase.peak", peak_start, NowS());
  std::vector<double> peak_done;
  for (const OpRecord& op : closed.ops) {
    if (op.fail == Fail::kNone) peak_done.push_back(op.done_s);
  }
  const double peak_qps = BestWindowRate(peak_done, closed.start_s,
                                         closed.elapsed_s, kPeakWindows);
  const double serving_rss_mb = serving_rss.Stop();
  const double peak_qps_run =
      Ratio(static_cast<double>(peak_done.size()), closed.elapsed_s);

  // --- write phase (read-only served workloads) ---------------------------
  common::Status st;
  if (!spec.mutable_serving) {
    s->StopServing();
    s->observed.reset();
    s->throttled.reset();
    s->file_store.reset();
    s->index.reset();
    st = OpenMutable(dir, &counters, &log, s.get());
    if (!st.ok()) {
      problem(&r.correct, "mutable open failed: " + st.ToString());
      return r;
    }
    const uint64_t span = log.NewId();
    const double start = NowS();
    log.SetAmbientParent(span);
    bytes_before_writes = counters.bytes_written.load();
    write_ops = RunPacedWrites(phase_writes, spec.write_rate, apply,
                               kWriteStretch * write_s, &log, span);
    next_write = write_ops.size();
    log.Record(span, 0, "phase.write", start, NowS());
  }
  s->mindex->StopCompaction();
  const std::vector<uint8_t> live_after_phase = model.LiveAfter(next_write);
  const uint64_t bytes_by_writes =
      counters.bytes_written.load() - bytes_before_writes;
  const storage::MutationStats mstats = s->mindex->mutation_stats();

  // --- final: checkpoint, space, quiescent answers, tail -------------------
  st = s->mindex->Checkpoint();
  if (!st.ok()) problem(&r.correct, "final checkpoint failed: " + st.ToString());
  const uint64_t live_objects = static_cast<uint64_t>(
      std::count(live_after_phase.begin(), live_after_phase.end(), 1));
  const double space_amp = SpaceAmp(DirBytes(dir), live_objects, spec.dim);
  if (s->engine == nullptr) {
    auto engine = exec::ParallelQueryEngine::CreateMutable(
        s->mindex.get(), ServeOptions(spec, false, &s->registry));
    if (!engine.ok()) {
      problem(&r.correct, "engine failed: " + engine.status().ToString());
      return r;
    }
    s->engine = std::move(*engine);
  }
  // Runs the sampled queries in the workload's mode through a service on
  // `engine` and compares them with brute force over `live`.
  auto check_quiescent = [&](exec::ParallelQueryEngine* engine,
                             const parallel::ParallelRStarTree& index,
                             const std::vector<uint8_t>& live,
                             const char* when) {
    server::QueryService service(index, engine, server::ServiceOptions{});
    for (size_t qi : sampled) {
      server::QuerySpec q;
      q.mode = spec.mode;
      q.point = queries[qi];
      q.k = spec.k;
      const exec::QueryOutcome out = service.RunBlocking(q);
      if (!out.status.ok() ||
          !SameAnswer(out.neighbors, BruteKnn(model, live, q.point, spec.k))) {
        problem(&r.correct, std::string("wrong answer ") + when +
                                " for query " + std::to_string(qi));
        return;
      }
    }
  };
  check_quiescent(s->engine.get(), s->tree(), live_after_phase,
                  "after the phase");
  for (size_t i = 0; i < kTailCommits; ++i) {
    if (!apply(next_write + i)) {
      problem(&r.correct, "tail commit failed");
      break;
    }
  }
  s.reset();  // no checkpoint: the tail stays in the WAL

  // --- recovery --------------------------------------------------------
  std::vector<double> recovery;
  uint64_t replayed = 0;
  for (int rep = 0; rep < kRecoveryRepeats; ++rep) {
    // Hand back what the last reopen freed, so each one faults its
    // memory in as a restarted process does instead of reusing a warm
    // heap in whatever state the earlier phases left it.
    malloc_trim(0);
    const double t0 = NowS();
    auto mi = storage::MutableIndex::OpenFromDir(dir);
    if (!mi.ok()) {
      problem(&r.correct, "recovery open failed: " + mi.status().ToString());
      break;
    }
    exec::EngineOptions eo;
    eo.cache_pages = spec.cache_pages;
    auto engine = exec::ParallelQueryEngine::CreateMutable(mi->get(), eo);
    if (!engine.ok()) {
      problem(&r.correct, "recovery engine failed");
      break;
    }
    exec::EngineQuery q;
    q.point = queries[*sampled.begin()];
    q.k = spec.k;
    const exec::QueryOutcome first = (*engine)->RunQuery(q);
    recovery.push_back(NowS() - t0);
    if (!first.status.ok()) problem(&r.correct, "first recovered query failed");
    obs::MetricsRegistry reg;
    (*mi)->EnableMetrics(&reg);
    const obs::MetricsSnapshot snap = reg.Snapshot();
    const uint64_t records = snap.CounterValue("sqp_wal_records_total");
    if (records != snap.CounterValue("sqp_wal_applied_total") +
                       snap.CounterValue("sqp_wal_replayed_total") +
                       snap.CounterValue("sqp_wal_torn_tail_dropped_total") ||
        (*mi)->recovery_stats().replayed != kTailCommits) {
      problem(&r.correct, "WAL conservation identity violated on recovery");
    }
    replayed = (*mi)->recovery_stats().replayed;
    if (rep == kRecoveryRepeats - 1) {
      check_quiescent(engine->get(), (*mi)->index(),
                      model.LiveAfter(next_write + kTailCommits),
                      "after recovery");
    }
  }
  {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  // --- answers sampled from the read phase ---------------------------------
  // Each stored answer is one op of the phase; a wrong one is a failed op.
  size_t wrong_sampled = 0;
  for (const auto& [qi, got] : answers) {
    if (!SameAnswer(got, BruteKnn(model, std::vector<uint8_t>(
                                             spec.points, 1),
                                  queries[qi], spec.k))) {
      ++wrong_sampled;
      problem(&r.correct, "wrong streamed answer for query " +
                              std::to_string(qi));
    }
  }
  std::vector<OpRecord> all_reads = untraced_reads;
  all_reads.insert(all_reads.end(), discarded_reads.begin(),
                   discarded_reads.end());
  all_reads.insert(all_reads.end(), reads.begin(), reads.end());
  all_reads.insert(all_reads.end(), closed.ops.begin(), closed.ops.end());
  const size_t wrong = CountFailed(all_reads, Fail::kWrong);
  if (wrong > 0) {
    problem(&r.correct, std::to_string(wrong) + " wrong answers");
  }

  // --- validity -----------------------------------------------------------
  const LatencySummary knn = Summarize(LatenciesMs(reads));
  const LatencySummary wr = Summarize(LatenciesMs(write_ops));
  if (!knn.p99_supported) {
    problem(&r.valid, "fewer than 10 samples beyond knn p99");
  }
  const OpenLoopVerdict read_verdict = CheckOpenLoop(
      LatenessOf(reads), kLateP99BoundMs, AchievedRate(reads), spec.read_rate);
  if (!read_verdict.valid) {
    problem(&r.valid, "open loop invalid: " + read_verdict.reason);
  }
  // The writer is its own generator, so a stall of the index makes its
  // sends late by design; only its completion rate is judged. No gated
  // metric depends on the write stream's pacing (write_amp, space_amp and
  // recovery_s count bytes and time replay), so a write backlog is
  // recorded with the ungated write latencies instead of voiding the run.
  const OpenLoopVerdict write_verdict =
      CheckOpenLoop(LatenessOf(write_ops), kInf, AchievedRate(write_ops),
                    spec.write_rate);
  const std::string write_series =
      !write_verdict.valid ? "backlog: " + write_verdict.reason
      : !wr.p99_supported  ? "fewer than 10 samples beyond p99"
                           : "ok";
  if (!CeilingGuardOk(peak_qps, spec.read_rate) ||
      !CeilingGuardOk(peak_qps_run, spec.read_rate)) {
    problem(&r.valid, "peak_qps equals the offered read rate");
  }
  if (peak_qps_run <= spec.read_rate) {
    problem(&r.valid, "the fixed read rate is beyond the closed-loop peak");
  }

  r.attempted = all_reads.size() + write_ops.size();
  r.failed = CountFailed(all_reads) + CountFailed(write_ops) + wrong_sampled;
  const Usage usage = ReadUsage();

  // --- end-to-end ------------------------------------------------------
  std::vector<double> setup_total, build, open, warm;
  for (const SetupTimes& t : setups) {
    setup_total.push_back(t.build_s + t.open_s + t.warm_s);
    build.push_back(t.build_s);
    open.push_back(t.open_s);
    warm.push_back(t.warm_s);
  }
  const uint64_t ops_written = write_ops.size();
  auto& e = r.end_to_end;
  e.push_back({"setup_s", "s", Median(setup_total), setups.size()});
  e.push_back({"peak_rss_mb", "MB", serving_rss_mb, serving_rss.samples()});
  e.push_back({"knn_p50_ms", "ms",
               BestWindowMedian(LatenciesMs(reads), kKnnWindows),
               knn.samples});
  e.push_back({"peak_qps", "1/s", peak_qps, closed.ops.size()});
  e.push_back({"write_amp", "ratio",
               WriteAmp(bytes_by_writes, ops_written, spec.dim), ops_written});
  e.push_back({"space_amp", "ratio", space_amp, live_objects});
  e.push_back({"recovery_s", "s",
               recovery.empty() ? 0.0
                                : *std::min_element(recovery.begin(),
                                                    recovery.end()),
               recovery.size()});
  e.push_back({"ok_frac", "ratio",
               1.0 - Ratio(static_cast<double>(r.failed),
                           static_cast<double>(r.attempted)),
               r.attempted});
  r.ungated.push_back({"knn_p50_run_ms", "ms", knn.p50, knn.samples});
  r.ungated.push_back({"knn_p99_ms", "ms", knn.p99, knn.samples});
  r.ungated.push_back({"peak_qps_run", "1/s", peak_qps_run, peak_done.size()});
  r.ungated.push_back({"write_p50_ms", "ms",
                       BestWindowMedian(LatenciesMs(write_ops), kWriteWindows),
                       wr.samples});
  r.ungated.push_back({"write_p50_run_ms", "ms", wr.p50, wr.samples});
  r.ungated.push_back({"write_p99_ms", "ms", wr.p99, wr.samples});
  r.ungated.push_back({"failed_frac", "ratio",
                       Ratio(static_cast<double>(r.failed),
                             static_cast<double>(r.attempted)),
                       r.attempted});

  // --- per-layer (deltas over the traced read phase) ----------------------
  const double nq = static_cast<double>(reads.size());
  const double nw = static_cast<double>(phase_writes_ops.size());
  auto delta = [&](const std::string& name) {
    return static_cast<double>(after.registry.CounterValue(name) -
                               before.registry.CounterValue(name));
  };
  auto delta_prefix = [&](const std::string& prefix) {
    return static_cast<double>(after.registry.CounterSumByPrefix(prefix) -
                               before.registry.CounterSumByPrefix(prefix));
  };
  auto hist = [&](const std::string& prefix) {
    return HistogramDelta(MergedHistogram(after.registry, prefix),
                          MergedHistogram(before.registry, prefix));
  };
  std::vector<double> overhead, exec_ms, late;
  double chunks = 0, steps = 0, pages = 0;
  for (const OpRecord& op : reads) {
    late.push_back(LatenessMs(op.due_s, op.sent_s));
    if (op.fail != Fail::kNone) continue;
    overhead.push_back((op.done_s - op.sent_s - op.server_s) * 1e3);
    exec_ms.push_back(op.server_s * 1e3);
    chunks += op.chunks;
    steps += static_cast<double>(op.steps);
    pages += static_cast<double>(op.pages);
  }
  const double n_ok = static_cast<double>(exec_ms.size());
  const double hits = delta("sqp_cache_hits_total");
  const double misses = delta("sqp_cache_misses_total");
  const double media_reads = delta("sqp_reader_media_reads_total");
  const obs::HistogramSnapshot decode = hist("sqp_reader_decode_seconds");
  const double untraced_p50 = Summarize(LatenciesMs(untraced_reads)).p50;
  auto& p = r.per_layer;
  p.push_back({"server.overhead_ms_p50", "ms", Percentile(overhead, 0.5),
               overhead.size()});
  p.push_back({"server.queue_wait_ms_p99", "ms",
               1e3 * hist("sqp_server_queue_wait_seconds").Quantile(0.99),
               hist("sqp_server_queue_wait_seconds").TotalCount()});
  p.push_back({"server.chunks_per_query", "count", Ratio(chunks, n_ok),
               exec_ms.size()});
  p.push_back({"server.shed", "count", delta("sqp_server_shed_total"), 1});
  p.push_back({"server.deadline_exceeded", "count",
               delta("sqp_engine_deadline_exceeded_total"), 1});
  p.push_back({"engine.exec_ms_p50", "ms", Percentile(exec_ms, 0.5),
               exec_ms.size()});
  p.push_back({"engine.exec_ms_p99", "ms", Percentile(exec_ms, 0.99),
               exec_ms.size()});
  p.push_back({"engine.steps_per_query", "count", Ratio(steps, n_ok),
               exec_ms.size()});
  p.push_back({"engine.pages_per_query", "count", Ratio(pages, n_ok),
               exec_ms.size()});
  p.push_back({"engine.pages_per_step", "count", Ratio(pages, steps),
               static_cast<uint64_t>(steps)});
  p.push_back({"engine.fetch_ms_per_query", "ms",
               1e3 * Ratio(ring_fetch_s, static_cast<double>(ring_queries)),
               ring_queries});
  p.push_back({"engine.process_ms_per_query", "ms",
               1e3 * Ratio(ring_process_s, static_cast<double>(ring_queries)),
               ring_queries});
  p.push_back({"cache.hit_rate", "ratio", Ratio(hits, hits + misses),
               static_cast<uint64_t>(hits + misses)});
  p.push_back({"cache.evictions_per_query", "count",
               Ratio(delta("sqp_cache_evictions_total"), nq), reads.size()});
  p.push_back({"cache.invalidations_per_write", "count",
               Ratio(static_cast<double>(after.invalidations -
                                         before.invalidations),
                     nw),
               phase_writes_ops.size()});
  p.push_back({"coalescer.joined_reads_per_query", "count",
               Ratio(delta("sqp_engine_coalesced_reads_total"), nq),
               reads.size()});
  p.push_back({"io.media_reads_per_query", "count", Ratio(media_reads, nq),
               reads.size()});
  p.push_back({"io.pages_per_media_read", "count",
               Ratio(delta_prefix("sqp_reader_pages_read_total"), media_reads),
               static_cast<uint64_t>(media_reads)});
  p.push_back({"io.queue_wait_ms_p50", "ms",
               1e3 * hist("sqp_io_wait_seconds").Quantile(0.5),
               hist("sqp_io_wait_seconds").TotalCount()});
  p.push_back({"io.service_ms_p50", "ms",
               1e3 * hist("sqp_io_service_seconds").Quantile(0.5),
               hist("sqp_io_service_seconds").TotalCount()});
  const double read_calls =
      static_cast<double>(after.read_calls - before.read_calls);
  p.push_back({"storage.read_ms_per_call", "ms",
               1e-6 * Ratio(static_cast<double>(after.read_ns - before.read_ns),
                            read_calls),
               static_cast<uint64_t>(read_calls)});
  p.push_back({"storage.read_calls_per_query", "count", Ratio(read_calls, nq),
               reads.size()});
  p.push_back({"storage.decode_us_per_page", "us",
               1e6 * Ratio(decode.sum, static_cast<double>(decode.TotalCount())),
               decode.TotalCount()});
  p.push_back({"storage.cow_pages_per_write", "count",
               Ratio(static_cast<double>(after.mutation.cow_pages -
                                         before.mutation.cow_pages),
                     nw),
               phase_writes_ops.size()});
  p.push_back({"storage.wal_bytes_per_write", "B",
               Ratio(static_cast<double>(
                         after.mutation.wal_bytes +
                         after.mutation.wal_bytes_reclaimed -
                         before.mutation.wal_bytes -
                         before.mutation.wal_bytes_reclaimed),
                     nw),
               phase_writes_ops.size()});
  p.push_back({"storage.checkpoints", "count",
               static_cast<double>(after.mutation.checkpoints -
                                   before.mutation.checkpoints),
               1});
  p.push_back({"storage.sync_ms_per_write", "ms",
               1e-6 * Ratio(static_cast<double>(after.sync_ns - before.sync_ns),
                            nw),
               phase_writes_ops.size()});
  p.push_back({"storage.replay_records", "count",
               static_cast<double>(replayed), recovery.size()});
  p.push_back({"core.pages_over_woptss", "ratio",
               Ratio(engine_pages, woptss_pages),
               std::min(kWoptssSample, reads.size())});
  p.push_back({"core.process_us_per_page", "us",
               1e6 * Ratio(ring_process_s, ring_pages),
               static_cast<uint64_t>(ring_pages)});
  p.push_back({"setup.build_s", "s", Median(build), build.size()});
  p.push_back({"setup.open_s", "s", Median(open), open.size()});
  p.push_back({"setup.warm_s", "s", Median(warm), warm.size()});
  p.push_back({"proc.cpu_ms_per_query", "ms",
               Ratio(after.usage.cpu_ms - before.usage.cpu_ms, nq),
               reads.size()});
  p.push_back({"proc.ctx_switches_per_query", "count",
               Ratio(after.usage.ctx_switches - before.usage.ctx_switches, nq),
               reads.size()});
  p.push_back({"loadgen.late_ms_p99", "ms", Percentile(late, 0.99),
               late.size()});
  p.push_back({"trace.overhead_frac", "ratio",
               untraced_p50 > 0 ? knn.p50 / untraced_p50 - 1.0 : 0.0,
               untraced_reads.size()});

  // --- provenance --------------------------------------------------------
  utsname un{};
  uname(&un);
  auto& pv = r.provenance;
  pv.emplace_back("workload", spec.name);
  pv.emplace_back("seed", std::to_string(args.seed));
  pv.emplace_back("seconds", Fmt(args.seconds));
  pv.emplace_back("trace", args.trace ? "1" : "0");
  pv.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  pv.emplace_back("kernel", std::string(un.sysname) + " " + un.release);
  pv.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  pv.emplace_back("git_describe", args.git_describe);
  pv.emplace_back("io_backend", io_backend);
  pv.emplace_back("io_backend_fallback", io_fallback);
  pv.emplace_back("dim", std::to_string(spec.dim));
  pv.emplace_back("points", std::to_string(spec.points));
  pv.emplace_back("disks", std::to_string(spec.disks));
  pv.emplace_back("page_size", std::to_string(kPageSize));
  pv.emplace_back("cache_pages", std::to_string(spec.cache_pages));
  pv.emplace_back("throttle_s", Fmt(spec.throttle_s));
  pv.emplace_back("mode", server::QueryModeName(spec.mode));
  pv.emplace_back("k", std::to_string(spec.k));
  pv.emplace_back("read_rate", Fmt(spec.read_rate));
  pv.emplace_back("read_connections", std::to_string(spec.read_connections));
  pv.emplace_back("achieved_read_rate", Fmt(AchievedRate(reads)));
  {
    std::string why;
    for (const std::string& d : discarded) why += (why.empty() ? "" : "; ") + d;
    const size_t attempts =
        std::min(discarded.size() + 1, static_cast<size_t>(kReadAttempts));
    pv.emplace_back("read_attempts", std::to_string(attempts) +
                                         (why.empty() ? "" : " (" + why + ")"));
  }
  pv.emplace_back("achieved_write_rate", Fmt(AchievedRate(write_ops)));
  pv.emplace_back("write_series", write_series);
  pv.emplace_back("peak_connections", std::to_string(LoadConnections()));
  pv.emplace_back("write_rate", Fmt(spec.write_rate));
  pv.emplace_back("writes_beside_reads", spec.mutable_serving ? "1" : "0");
  pv.emplace_back("compact_records", std::to_string(spec.compact_records));
  pv.emplace_back("background_checkpoints",
                  std::to_string(mstats.auto_checkpoints));
  pv.emplace_back("tail_commits", std::to_string(kTailCommits));
  pv.emplace_back("setup_repeats", std::to_string(kSetupRepeats));
  pv.emplace_back("recovery_repeats", std::to_string(kRecoveryRepeats));
  pv.emplace_back("engine_ring_queries", std::to_string(ring_queries));
  pv.emplace_back("cpu_steal_share", Fmt(StealShare()));
  pv.emplace_back("process_max_rss_mb", Fmt(usage.max_rss_mb));
  pv.emplace_back("serving_rss_start_mb", Fmt(serving_rss_start_mb));
  pv.emplace_back("index_pages", std::to_string(index_pages));
  {
    std::string all;
    for (double v : recovery) all += (all.empty() ? "" : " ") + Fmt(v);
    pv.emplace_back("recovery_each_s", all);
  }
  // Percentile ladders of the scored latency series (ms).
  for (const auto& [name, ops] :
       {std::make_pair("knn_ladder_ms", &reads),
        std::make_pair("write_ladder_ms", &write_ops)}) {
    std::string ladder;
    for (double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}) {
      ladder += (ladder.empty() ? "" : " ") + Fmt(100 * q) + "%=" +
                Fmt(Percentile(LatenciesMs(*ops), q));
    }
    pv.emplace_back(name, ladder);
  }
  // Medians of the consecutive windows of each series (ms) that the
  // best-of-N estimates choose from: how steady the run was within itself.
  for (const auto& [name, ops, n] :
       {std::make_tuple("knn_window_p50_ms", &reads, kKnnWindows),
        std::make_tuple("write_window_p50_ms", &write_ops, kWriteWindows)}) {
    std::string windows;
    const size_t w =
        std::max<size_t>(1, ops->size() / static_cast<size_t>(n));
    for (size_t i = 0; i + w <= ops->size(); i += w) {
      const std::vector<OpRecord> part(ops->begin() + static_cast<long>(i),
                                       ops->begin() + static_cast<long>(i + w));
      windows += (windows.empty() ? "" : " ") +
                 Fmt(Percentile(LatenciesMs(part), 0.5));
    }
    pv.emplace_back(name, windows);
  }

  // Closed-loop completions per second in the peak phase's windows.
  {
    const double len = closed.elapsed_s / kPeakWindows;
    std::vector<size_t> counts(kPeakWindows, 0);
    for (double t : peak_done) {
      const int at = static_cast<int>((t - closed.start_s) / len);
      if (at >= 0 && at < kPeakWindows) ++counts[static_cast<size_t>(at)];
    }
    std::string windows;
    for (size_t c : counts) {
      windows += (windows.empty() ? "" : " ") + Fmt(c / len);
    }
    pv.emplace_back("peak_window_qps", windows);
  }

  if (args.trace && !args.trace_path.empty() &&
      !log.WriteJson(args.trace_path)) {
    r.problems.push_back("could not write " + args.trace_path);
  }
  return r;
}

}  // namespace sqp::perfbench
