// sqp_cli — run a custom experiment from the command line without writing
// code: pick a data set (generated or loaded from file), an algorithm, an
// array configuration and a workload; get the paper-style metrics back.
// Indexes can be persisted so repeated query runs skip the build entirely.
//
//   $ sqp_cli --dataset=clustered --n=50000 --dim=2 --algo=crss
//             --disks=10 --lambda=6 --k=20 --queries=100
//   $ sqp_cli --file=places.csv --algo=bbss --disks=5 --k=10
//   $ sqp_cli save-index --out=places.index --dataset=california --disks=16
//   $ sqp_cli load-index --index=places.index --algo=crss --k=20
//
// Subcommands:
//   (none)       build an index in memory and run the workload
//   save-index   build an index and persist it to --out=<dir>
//                (--bulkload=1 packs with Sort-Tile-Recursive instead of
//                 inserting incrementally)
//   load-index   open the index saved under --index=<dir> and run the
//                workload against it — no rebuild, no bulk load.
//                --engine=parallel runs the real concurrent engine
//                (src/exec/: per-disk I/O workers + sharded page cache)
//                against the saved disk files instead of the simulator,
//                reporting wall-clock throughput and latency percentiles:
//
//   $ sqp_cli load-index --index=places.index --engine=parallel
//             --threads=8 --cache=4096 --algo=crss --k=20 --queries=500
//
//   serve        run the streaming query service (src/server/) over the
//                index saved under --index=<dir>: one TCP port speaking
//                the binary protocol, a text protocol, and HTTP
//                /metrics, /metrics.json, /healthz, /tracez
//                (docs/SERVER.md). Runs until SIGINT/SIGTERM.
//
//   $ sqp_cli serve --index=places.index --port=7788
//             --workers=4 --max-pending=64 --threads=8 --cache=4096
//             [--port-file=<path>]   # written once bound; port 0 = auto
//             [--compact=BYTES[,RECORDS[,MIN_INTERVAL_S]]]  # background
//             log compaction while serving (docs/STORAGE.md)
//
//   query        one streamed query against a running server; chunks are
//                printed as they arrive (before the query completes).
//                Exit codes: 0 ok, 3 shed (resource_exhausted),
//                4 deadline_exceeded, 2 other failure.
//
//   $ sqp_cli query --port=7788 --mode=stream --k=20 --point=1.5,2.5
//             [--host=127.0.0.1] [--radius=0.1] [--deadline-ms=100]
//             [--priority=0] [--algo=crss] [--connect-wait-ms=5000]
//
//   ingest       apply durable mutations to the index saved under
//                --index=<dir> through the write-ahead log
//                (docs/STORAGE.md): opens with crash recovery, inserts
//                --inserts fresh points (generated, or read from --file),
//                deletes --deletes of them again, and reports the
//                recovery and commit totals plus the WAL conservation
//                identity. Every op is durable the moment it returns; a
//                later load-index (or ingest) replays the log. Pass
//                --checkpoint=1 to fold the log into a fresh generation
//                (write-aside + atomic CURRENT flip, docs/STORAGE.md), or
//                --compact=BYTES[,RECORDS[,MIN_INTERVAL_S]] to let a
//                background thread fold it whenever the log exceeds the
//                thresholds while the ops run. --queries=N interleaves N
//                spot queries through the live engine during the ingest.
//
//   $ sqp_cli ingest --index=places.index --inserts=1000 --deletes=200
//             [--seed=1998] [--file=pts.csv] [--checkpoint=0]
//             [--compact=...] [--queries=0] [--metrics=0]
//
// Flags (all optional, shown with defaults):
//   --dataset=clustered|uniform|gaussian|california|longbeach
//   --file=<csv or sqp>    overrides --dataset
//   --n=20000 --dim=2 --seed=1998
//   --algo=crss|bbss|fpss|woptss
//   --policy=pi|rr|random|data|area   declustering policy
//   --disks=10 --page=4096 --mirrored=0 --buffer=0
//   --k=10 --lambda=5 --queries=100
//   --node-counts=0        also print sequential page-access statistics
//   --engine=sim|parallel  load-index only; default sim
//   --threads=8 --cache=4096 --throttle=0   parallel engine: query
//         threads, page-cache capacity (pages; 0 disables), and a modeled
//         per-read disk service time in seconds (0 = raw files)
//   --io=threads|uring     parallel engine / serve / ingest: I/O backend
//         for disk work — per-disk worker threads (default) or the
//         io_uring completion reactor. uring falls back to threads (and
//         says so) when the kernel lacks io_uring; answers are
//         bit-identical either way (docs/EXECUTION.md)
//   --faults=0 --fault-seed=42   parallel engine: inject a deterministic
//         mix of transient media faults (bit flips, torn reads, transient
//         EIO) at the given per-read probability. Failed queries are
//         reported individually — the run completes either way — and the
//         summary shows retry/fault totals (see docs/FAULTS.md).
//   --deadline-ms=0        parallel engine: per-query wall-clock budget;
//         late queries stop with deadline_exceeded (0 = none)
//   --metrics=0            parallel engine: after the run, dump the full
//         MetricsRegistry in Prometheus text format to stdout
//         (docs/OBSERVABILITY.md)
//   --metrics-json=<file>  parallel engine: write the registry snapshot
//         as JSON (includes p50/p95/p99 per histogram)
//   --trace-json=<file>    parallel engine: write the per-query trace
//         spans (ring buffer, oldest first) as JSON

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/sequential_executor.h"
#include "exec/parallel_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_tree.h"
#include "rstar/tree_stats.h"
#include "server/client.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "sim/query_engine.h"
#include "storage/fault_injection.h"
#include "storage/index_io.h"
#include "storage/mutable_index.h"
#include "storage/page_store.h"
#include "workload/dataset.h"
#include "workload/dataset_io.h"
#include "workload/index_builder.h"
#include "workload/workload.h"

namespace {

using namespace sqp;

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& def) const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
  long GetInt(const std::string& key, long def) const {
    auto it = values.find(key);
    return it == values.end() ? def : std::atol(it->second.c_str());
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = values.find(key);
    return it == values.end() ? def : std::atof(it->second.c_str());
  }
};

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

bool ParseFlags(int argc, char** argv, int first, Flags* flags) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags->values[arg.substr(2)] = "1";
    } else {
      flags->values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return true;
}

core::AlgorithmKind ParseAlgo(const std::string& name) {
  if (name == "bbss") return core::AlgorithmKind::kBbss;
  if (name == "fpss") return core::AlgorithmKind::kFpss;
  if (name == "woptss") return core::AlgorithmKind::kWoptss;
  return core::AlgorithmKind::kCrss;
}

// --io=threads|uring (threads default); false + stderr on anything else.
bool ParseIoFlag(const Flags& flags, exec::IoBackendKind* kind) {
  const std::string io = flags.Get("io", "threads");
  if (io == "threads") {
    *kind = exec::IoBackendKind::kThreads;
    return true;
  }
  if (io == "uring") {
    *kind = exec::IoBackendKind::kUring;
    return true;
  }
  std::fprintf(stderr, "bad --io=%s (want threads or uring)\n", io.c_str());
  return false;
}

// The backend actually serving I/O, with the fallback reason when a
// requested backend could not be built: "uring", or
// "threads (fell back: io_uring unavailable: ...)".
std::string IoBackendBanner(const exec::ParallelQueryEngine& engine) {
  std::string s = engine.io_backend_name();
  if (!engine.io_backend_fallback_reason().empty()) {
    s += " (fell back: " + engine.io_backend_fallback_reason() + ")";
  }
  return s;
}

parallel::DeclusterPolicy ParsePolicy(const std::string& name) {
  if (name == "rr") return parallel::DeclusterPolicy::kRoundRobin;
  if (name == "random") return parallel::DeclusterPolicy::kRandom;
  if (name == "data") return parallel::DeclusterPolicy::kDataBalance;
  if (name == "area") return parallel::DeclusterPolicy::kAreaBalance;
  return parallel::DeclusterPolicy::kProximityIndex;
}

// Loads or generates the data set selected by the flags. Returns false on
// a load error (already reported to stderr).
bool MakeDataset(const Flags& flags, workload::Dataset* data) {
  const std::string file = flags.Get("file", "");
  if (!file.empty()) {
    auto loaded = file.size() > 4 && file.substr(file.size() - 4) == ".csv"
                      ? workload::LoadCsv(file)
                      : workload::LoadBinary(file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return false;
    }
    *data = std::move(*loaded);
    return true;
  }
  const std::string kind = flags.Get("dataset", "clustered");
  const size_t n = static_cast<size_t>(flags.GetInt("n", 20000));
  const int dim = static_cast<int>(flags.GetInt("dim", 2));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1998));
  if (kind == "uniform") {
    *data = workload::MakeUniform(n, dim, seed);
  } else if (kind == "gaussian") {
    *data = workload::MakeGaussian(n, dim, seed);
  } else if (kind == "california") {
    *data = workload::MakeCaliforniaLike(seed);
  } else if (kind == "longbeach") {
    *data = workload::MakeLongBeachLike(seed);
  } else {
    *data = workload::MakeClustered(n, dim, 20, 0.1, seed);
  }
  return true;
}

rstar::TreeConfig TreeConfigFromFlags(const Flags& flags, int dim) {
  rstar::TreeConfig cfg;
  cfg.dim = dim;
  cfg.page_size_bytes = static_cast<int>(flags.GetInt("page", 4096));
  return cfg;
}

parallel::DeclusterConfig DeclusterConfigFromFlags(const Flags& flags) {
  parallel::DeclusterConfig dc;
  dc.num_disks = static_cast<int>(flags.GetInt("disks", 10));
  dc.policy = ParsePolicy(flags.Get("policy", "pi"));
  dc.mirrored = flags.GetInt("mirrored", 0) != 0;
  return dc;
}

void PrintIndexSummary(const parallel::ParallelRStarTree& index) {
  const parallel::DeclusterConfig& dc = index.placement().config();
  std::printf("index:   %zu pages on %d disks (%s%s), fan-out %d, height "
              "%d, balance %.2f\n",
              index.tree().NodeCount(), dc.num_disks,
              parallel::DeclusterPolicyName(dc.policy),
              dc.mirrored ? ", mirrored" : "",
              index.tree().config().MaxEntries(), index.tree().Height(),
              index.placement().BalanceRatio());
}

// Runs the simulated workload the legacy invocation always ran.
int RunWorkload(const Flags& flags, const workload::Dataset& data,
                const parallel::ParallelRStarTree& index) {
  const size_t n_queries = static_cast<size_t>(flags.GetInt("queries", 100));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  const double lambda = flags.GetDouble("lambda", 5.0);
  const core::AlgorithmKind algo = ParseAlgo(flags.Get("algo", "crss"));
  const auto points = workload::MakeQueryPoints(
      data, n_queries, workload::QueryDistribution::kDataDistributed, 225);
  const auto arrivals = workload::PoissonArrivalTimes(n_queries, lambda, 226);
  std::vector<sim::QueryJob> jobs;
  for (size_t i = 0; i < n_queries; ++i) {
    jobs.push_back({arrivals[i], points[i], k});
  }

  const int page_size = index.tree().config().page_size_bytes;
  sim::SimConfig sim_cfg;
  sim_cfg.disk.page_transfer_time = page_size / 2.0e6;
  sim_cfg.bus_transfer_time = page_size / 8.0e6;
  sim_cfg.buffer_pages = static_cast<size_t>(flags.GetInt("buffer", 0));

  const sim::SimulationResult result = sim::RunSimulation(
      index, jobs,
      [&](const geometry::Point& q, size_t kk) {
        return core::MakeAlgorithm(algo, index.tree(), q, kk,
                                   index.num_disks());
      },
      sim_cfg);

  std::printf(
      "\n%s: k=%zu, lambda=%.1f q/s, %zu queries\n"
      "  mean response    %.3f s\n"
      "  mean pages/query %.1f\n"
      "  max disk util    %.0f%%   bus %.0f%%   cpu %.0f%%\n",
      core::AlgorithmName(algo), k, lambda, n_queries,
      result.MeanResponseTime(), result.MeanPagesFetched(),
      100 * result.MaxDiskUtilization(), 100 * result.bus_utilization,
      100 * result.cpu_utilization);
  if (sim_cfg.buffer_pages > 0) {
    std::printf("  buffer hit rate  %.0f%%\n",
                100.0 * result.buffer_hits /
                    std::max<size_t>(1, result.buffer_hits +
                                            result.buffer_misses));
  }

  if (flags.GetInt("node-counts", 0) != 0) {
    double pages = 0.0, batches = 0.0, max_batch = 0.0;
    for (const auto& q : points) {
      auto a = core::MakeAlgorithm(algo, index.tree(), q, k,
                                   index.num_disks());
      const core::ExecutionStats stats =
          core::RunToCompletion(index.tree(), a.get());
      pages += static_cast<double>(stats.pages_fetched);
      batches += static_cast<double>(stats.steps);
      max_batch += static_cast<double>(stats.max_batch);
    }
    std::printf(
        "  sequential: pages %.1f, batches %.1f, mean max-batch %.1f\n",
        pages / n_queries, batches / n_queries, max_batch / n_queries);
    std::printf("\n%s",
                rstar::ComputeTreeStats(index.tree()).ToString().c_str());
  }
  return 0;
}

int RunDefault(const Flags& flags) {
  workload::Dataset data;
  if (!MakeDataset(flags, &data)) return 1;
  auto index = workload::BuildParallelIndex(
      data, TreeConfigFromFlags(flags, data.dim),
      DeclusterConfigFromFlags(flags));
  std::printf("dataset: %s, %zu points, %d-d\n", data.name.c_str(),
              data.size(), data.dim);
  PrintIndexSummary(*index);
  return RunWorkload(flags, data, *index);
}

int RunSaveIndex(const Flags& flags) {
  const std::string dir = flags.Get("out", "");
  if (dir.empty()) {
    std::fprintf(stderr, "save-index requires --out=<dir>\n");
    return 1;
  }
  workload::Dataset data;
  if (!MakeDataset(flags, &data)) return 1;
  auto index = std::make_unique<parallel::ParallelRStarTree>(
      TreeConfigFromFlags(flags, data.dim), DeclusterConfigFromFlags(flags));
  if (flags.GetInt("bulkload", 0) != 0) {
    std::vector<rstar::ObjectId> ids(data.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<rstar::ObjectId>(i);
    }
    const common::Status st = index->tree().BulkLoad(data.points, ids);
    if (!st.ok()) {
      std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    workload::InsertAll(data, &index->tree());
  }
  const common::Status saved = storage::SaveIndexToDir(*index, dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("dataset: %s, %zu points, %d-d\n", data.name.c_str(),
              data.size(), data.dim);
  PrintIndexSummary(*index);
  std::printf("saved:   %s (%d disk files)\n", dir.c_str(),
              index->num_disks());
  return 0;
}

// Runs the workload on the real concurrent engine (src/exec/) against the
// saved disk files — wall-clock numbers, not simulated ones. When
// `mindex` is non-null the index carries an unfolded write-ahead log: the
// engine rides its snapshots (CreateMutable) instead of the static reader,
// and the store decorators (--faults, --throttle) don't apply — the
// mutable index owns its stores.
int RunParallelEngine(const Flags& flags, const workload::Dataset& data,
                      const parallel::ParallelRStarTree& index,
                      const std::string& dir,
                      storage::MutableIndex* mindex = nullptr) {
  std::unique_ptr<storage::FilePageStore> owned_store;
  const storage::PageStore* page_store = nullptr;
  const double fault_rate = flags.GetDouble("faults", 0.0);
  const double throttle = flags.GetDouble("throttle", 0.0);
  std::unique_ptr<storage::FaultInjectingPageStore> faulty;
  std::unique_ptr<storage::ThrottledPageStore> throttled;
  if (mindex == nullptr) {
    auto store = storage::FilePageStore::Open(dir);
    if (!store.ok()) {
      std::fprintf(stderr, "open store failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    owned_store = std::move(*store);
    page_store = owned_store.get();

    // Optional deterministic fault injection: a mix of transient faults
    // the retry policy should absorb, at --faults per-read probability
    // each.
    if (fault_rate > 0) {
      const uint64_t fault_seed =
          static_cast<uint64_t>(flags.GetInt("fault-seed", 42));
      faulty = std::make_unique<storage::FaultInjectingPageStore>(
          owned_store.get(), fault_seed);
      page_store = faulty.get();
      // Specs are armed after the engine bootstraps (create first, arm
      // after — docs/FAULTS.md), so faults land on query-time reads only.
    }

    if (throttle > 0) {
      throttled =
          std::make_unique<storage::ThrottledPageStore>(page_store, throttle);
      page_store = throttled.get();
    }
  } else if (fault_rate > 0 || throttle > 0) {
    std::fprintf(stderr,
                 "--faults/--throttle are ignored with an unfolded WAL "
                 "(run `sqp_cli ingest --index=%s --checkpoint=1` first)\n",
                 dir.c_str());
  }

  exec::EngineOptions options;
  options.query_threads = static_cast<int>(flags.GetInt("threads", 8));
  options.cache_pages = static_cast<size_t>(flags.GetInt("cache", 4096));
  if (!ParseIoFlag(flags, &options.io_backend)) return 1;
  auto engine =
      mindex != nullptr
          ? exec::ParallelQueryEngine::CreateMutable(mindex, options)
          : exec::ParallelQueryEngine::Create(index, page_store, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  std::printf("io backend: %s\n", IoBackendBanner(**engine).c_str());
  if (faulty != nullptr) {
    for (storage::FaultKind kind :
         {storage::FaultKind::kBitFlip, storage::FaultKind::kTornRead,
          storage::FaultKind::kTransientError}) {
      storage::FaultSpec spec;
      spec.kind = kind;
      spec.probability = fault_rate;
      faulty->AddFault(spec);
    }
  }

  const size_t n_queries = static_cast<size_t>(flags.GetInt("queries", 100));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  const core::AlgorithmKind algo = ParseAlgo(flags.Get("algo", "crss"));
  const double deadline_s = flags.GetDouble("deadline-ms", 0.0) / 1e3;
  const auto points = workload::MakeQueryPoints(
      data, n_queries, workload::QueryDistribution::kDataDistributed, 225);
  std::vector<exec::EngineQuery> queries;
  queries.reserve(points.size());
  for (const geometry::Point& q : points) {
    exec::EngineQuery eq;
    eq.point = q;
    eq.k = k;
    eq.algo = algo;
    eq.deadline_s = deadline_s;
    queries.push_back(std::move(eq));
  }

  const auto start = std::chrono::steady_clock::now();
  const std::vector<exec::QueryOutcome> answers =
      (*engine)->RunBatch(queries);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // A failed query occupies its slot with a non-OK status; report each one
  // and keep the run's statistics over the queries that succeeded.
  std::vector<double> latencies;
  double pages = 0.0;
  size_t failed = 0;
  uint64_t io_faults = 0, io_retries = 0;
  // Failures broken down by status code: scheduling outcomes
  // (deadline_exceeded, cancelled) are operationally different from data
  // errors and get counted apart, not string-matched.
  std::map<std::string, size_t> failures_by_code;
  for (size_t i = 0; i < answers.size(); ++i) {
    io_faults += answers[i].io_faults;
    io_retries += answers[i].io_retries;
    if (!answers[i].status.ok()) {
      ++failed;
      ++failures_by_code[common::StatusCodeName(answers[i].status.code())];
      std::fprintf(stderr, "query %zu failed: %s\n", i,
                   answers[i].status.ToString().c_str());
      continue;
    }
    latencies.push_back(answers[i].latency_s);
    pages += static_cast<double>(answers[i].pages_fetched);
  }
  if (!failures_by_code.empty()) {
    std::string parts;
    for (const auto& [code, count] : failures_by_code) {
      if (!parts.empty()) parts += ", ";
      parts += code + " x" + std::to_string(count);
    }
    std::fprintf(stderr, "failures by code: %s\n", parts.c_str());
  }
  if (latencies.empty()) {
    std::fprintf(stderr, "all %zu queries failed\n", n_queries);
    return 1;
  }
  std::sort(latencies.begin(), latencies.end());
  const size_t ok_count = latencies.size();
  const double p50 = latencies[ok_count / 2];
  const double p99 = latencies[ok_count * 99 / 100];
  const exec::PageCacheStats cache = (*engine)->cache().GetStats();

  std::printf(
      "\n%s on the real engine: k=%zu, %zu queries, %d threads, "
      "%zu-page cache%s\n"
      "  wall clock       %.3f s  (%.0f queries/s)\n"
      "  queries          %zu ok, %zu failed\n"
      "  latency          p50 %.3f ms   p99 %.3f ms\n"
      "  mean pages/query %.1f\n"
      "  cache            %.1f%% hits (%llu hits, %llu misses)\n",
      core::AlgorithmName(algo), k, n_queries, options.query_threads,
      options.cache_pages,
      throttle > 0 ? ", throttled media" : "", wall,
      static_cast<double>(n_queries) / wall, ok_count, failed, 1e3 * p50,
      1e3 * p99, pages / static_cast<double>(ok_count),
      100 * cache.HitRate(), static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses));
  if (io_faults > 0 || io_retries > 0 || faulty != nullptr) {
    const exec::ReaderFaultTotals rt = (*engine)->reader().fault_totals();
    std::printf(
        "  faults           %llu failed read attempts across queries, "
        "%llu retries issued, %llu records given up on\n",
        static_cast<unsigned long long>(io_faults),
        static_cast<unsigned long long>(io_retries),
        static_cast<unsigned long long>(rt.failed_records));
  }
  if (faulty != nullptr) {
    const storage::FaultInjectionStats fs = faulty->stats();
    std::printf(
        "  injector         %llu faults over %llu reads "
        "(flip %llu, torn %llu, eio %llu)\n",
        static_cast<unsigned long long>(fs.faults),
        static_cast<unsigned long long>(fs.reads),
        static_cast<unsigned long long>(
            fs.by_kind[static_cast<int>(storage::FaultKind::kBitFlip)]),
        static_cast<unsigned long long>(
            fs.by_kind[static_cast<int>(storage::FaultKind::kTornRead)]),
        static_cast<unsigned long long>(fs.by_kind[static_cast<int>(
            storage::FaultKind::kTransientError)]));
  }

  // Observability dumps (docs/OBSERVABILITY.md). The engine always runs
  // metered here, so the registry holds the run's full breakdown.
  const obs::MetricsSnapshot snap = (*engine)->metrics()->Snapshot();
  if (flags.GetInt("metrics", 0) != 0) {
    std::printf("\n%s", snap.ToPrometheus().c_str());
  }
  const std::string metrics_json = flags.Get("metrics-json", "");
  if (!metrics_json.empty() &&
      !WriteTextFile(metrics_json, snap.ToJson() + "\n")) {
    return 1;
  }
  const std::string trace_json = flags.Get("trace-json", "");
  if (!trace_json.empty()) {
    const obs::TraceRecorder* trace = (*engine)->trace();
    if (!WriteTextFile(trace_json, trace->ToJson() + "\n")) return 1;
  }
  return failed == 0 ? 0 : 2;
}

// A directory that has ever been opened mutably carries either a CURRENT
// generation pointer or a legacy root-level WAL; both mean commits may
// postdate any saved base image, so it must be opened through crash
// recovery (docs/STORAGE.md) — never read as raw disk files.
bool IsMutableIndexDir(const std::string& dir) {
  return std::filesystem::exists(std::filesystem::path(dir) / "CURRENT") ||
         std::filesystem::exists(std::filesystem::path(dir) / "wal");
}

// Parses --compact=BYTES[,RECORDS[,MIN_INTERVAL_S]] into a policy.
bool ParseCompactFlag(const std::string& spec,
                      storage::CompactionPolicy* out) {
  unsigned long long bytes = 0;
  unsigned long long records = 0;
  double interval = 0;
  const int n = std::sscanf(spec.c_str(), "%llu,%llu,%lf", &bytes, &records,
                            &interval);
  if (n < 1) {
    std::fprintf(stderr,
                 "--compact wants BYTES[,RECORDS[,MIN_INTERVAL_S]], "
                 "got \"%s\"\n",
                 spec.c_str());
    return false;
  }
  out->max_wal_bytes = bytes;
  out->max_wal_records = records;
  out->min_interval_s = interval;
  return true;
}

int RunLoadIndex(const Flags& flags) {
  const std::string dir = flags.Get("index", "");
  if (dir.empty()) {
    std::fprintf(stderr, "load-index requires --index=<dir>\n");
    return 1;
  }
  // Open through crash recovery so the run sees the replayed state of
  // the published generation, not a stale base image.
  std::unique_ptr<storage::MutableIndex> mindex;
  std::unique_ptr<parallel::ParallelRStarTree> owned_index;
  const parallel::ParallelRStarTree* index = nullptr;
  if (IsMutableIndexDir(dir)) {
    auto mi = storage::MutableIndex::OpenFromDir(dir);
    if (!mi.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   mi.status().ToString().c_str());
      return 1;
    }
    mindex = std::move(*mi);
    index = &mindex->index();
    const storage::RecoveryStats& rs = mindex->recovery_stats();
    if (rs.wal_records > 0) {
      std::printf("log:     %llu records replayed over the base image"
                  "%s (fold with `ingest --checkpoint=1`)\n",
                  static_cast<unsigned long long>(rs.replayed),
                  rs.torn_tail_dropped > 0 ? ", torn tail dropped" : "");
    }
  } else {
    auto opened = workload::LoadParallelIndex(dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    owned_index = std::move(*opened);
    index = owned_index.get();
  }
  const workload::Dataset data =
      workload::ExtractDataset(index->tree(), "index:" + dir);
  std::printf("dataset: %s, %zu points, %d-d (restored from leaves)\n",
              data.name.c_str(), data.size(), data.dim);
  PrintIndexSummary(*index);
  if (flags.Get("engine", "sim") == "parallel") {
    return RunParallelEngine(flags, data, *index, dir, mindex.get());
  }
  return RunWorkload(flags, data, *index);
}

// --- ingest: durable mutations through the write-ahead log ----------------

// Applies a scripted mutation workload to a saved index: opens with crash
// recovery, commits --inserts fresh points (generated, or read from
// --file) and --deletes of them again — each op durable the moment it
// returns — then reports recovery and commit totals and checks the WAL
// conservation identity on a live metrics scrape.
int RunIngest(const Flags& flags) {
  const std::string dir = flags.Get("index", "");
  if (dir.empty()) {
    std::fprintf(stderr, "ingest requires --index=<dir>\n");
    return 1;
  }
  auto opened = storage::MutableIndex::OpenFromDir(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<storage::MutableIndex> mi = std::move(*opened);
  obs::MetricsRegistry registry;
  mi->EnableMetrics(&registry);
  const storage::RecoveryStats& rs = mi->recovery_stats();
  std::printf("recovery: %llu log records (%llu replayed%s)\n",
              static_cast<unsigned long long>(rs.wal_records),
              static_cast<unsigned long long>(rs.replayed),
              rs.torn_tail_dropped > 0 ? ", torn tail dropped" : "");
  PrintIndexSummary(mi->index());

  const int dim = mi->index().tree().config().dim;
  size_t n_inserts = static_cast<size_t>(flags.GetInt("inserts", 100));
  std::vector<geometry::Point> points;
  if (!flags.Get("file", "").empty()) {
    workload::Dataset data;
    if (!MakeDataset(flags, &data)) return 1;
    if (data.dim != dim) {
      std::fprintf(stderr, "--file is %d-d but the index is %d-d\n",
                   data.dim, dim);
      return 1;
    }
    if (flags.values.count("inserts") == 0 || n_inserts > data.size()) {
      n_inserts = data.size();
    }
    points.assign(data.points.begin(),
                  data.points.begin() + static_cast<long>(n_inserts));
  } else {
    common::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1998)));
    for (size_t i = 0; i < n_inserts; ++i) {
      std::vector<geometry::Coord> coords(static_cast<size_t>(dim));
      for (auto& c : coords) {
        c = static_cast<geometry::Coord>(rng.Uniform());
      }
      points.push_back(geometry::Point::FromVector(std::move(coords)));
    }
  }
  const size_t n_deletes = static_cast<size_t>(flags.GetInt("deletes", 0));
  if (n_deletes > n_inserts) {
    std::fprintf(stderr, "--deletes=%zu exceeds --inserts=%zu (ingest only "
                 "deletes objects it inserted itself)\n",
                 n_deletes, n_inserts);
    return 1;
  }

  // Fresh ids continue above the highest live object id, so repeated
  // ingest runs against the same index never collide.
  rstar::ObjectId next_id = 0;
  const rstar::RStarTree& tree = mi->index().tree();
  for (rstar::PageId pid : tree.LiveNodeIds()) {
    const rstar::Node& node = tree.node(pid);
    if (node.level != 0) continue;
    for (const rstar::Entry& e : node.entries) {
      next_id = std::max(next_id, e.object + 1);
    }
  }

  // --compact: a background thread folds the log whenever it exceeds the
  // policy thresholds, racing the mutations below (docs/STORAGE.md).
  storage::CompactionPolicy compact_policy;
  const std::string compact = flags.Get("compact", "");
  if (!compact.empty()) {
    if (!ParseCompactFlag(compact, &compact_policy)) return 1;
    mi->StartCompaction(compact_policy);
  }

  // --queries=N: interleave spot queries through a live mutable engine
  // while the ops run, so the soak exercises the read path against
  // mid-ingest (and mid-compaction) snapshots. Scoped so the engine dies
  // before the index does.
  const size_t n_queries = static_cast<size_t>(flags.GetInt("queries", 0));
  std::unique_ptr<exec::ParallelQueryEngine> engine;
  if (n_queries > 0) {
    exec::EngineOptions eopts;
    eopts.query_threads = 2;
    eopts.cache_pages = 256;
    if (!ParseIoFlag(flags, &eopts.io_backend)) return 1;
    auto created = exec::ParallelQueryEngine::CreateMutable(mi.get(), eopts);
    if (!created.ok()) {
      std::fprintf(stderr, "engine failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*created);
    std::printf("io backend: %s\n", IoBackendBanner(*engine).c_str());
  }
  const size_t total_ops = n_inserts + n_deletes;
  const size_t query_every =
      n_queries > 0 ? std::max<size_t>(1, total_ops / n_queries) : 0;
  common::Rng qrng(static_cast<uint64_t>(flags.GetInt("seed", 1998)) + 1);
  size_t queries_run = 0;
  size_t op_index = 0;
  auto maybe_query = [&]() -> bool {
    ++op_index;
    if (engine == nullptr || op_index % query_every != 0) return true;
    exec::EngineQuery q;
    std::vector<geometry::Coord> coords(static_cast<size_t>(dim));
    for (auto& c : coords) c = static_cast<geometry::Coord>(qrng.Uniform());
    q.point = geometry::Point::FromVector(std::move(coords));
    q.k = 10;
    q.algo = core::AlgorithmKind::kCrss;
    const exec::QueryOutcome got = engine->RunQuery(q);
    if (!got.status.ok()) {
      std::fprintf(stderr, "interleaved query %zu failed: %s\n",
                   queries_run, got.status.ToString().c_str());
      return false;
    }
    ++queries_run;
    return true;
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::pair<rstar::ObjectId, geometry::Point>> inserted;
  inserted.reserve(n_inserts);
  for (size_t i = 0; i < n_inserts; ++i) {
    const common::Status s = mi->Insert(points[i], next_id);
    if (!s.ok()) {
      std::fprintf(stderr, "insert %zu failed: %s\n", i,
                   s.ToString().c_str());
      return 2;
    }
    inserted.emplace_back(next_id, points[i]);
    ++next_id;
    if (!maybe_query()) return 2;
  }
  for (size_t i = 0; i < n_deletes; ++i) {
    const auto& [id, p] = inserted[inserted.size() - 1 - i];
    const common::Status s = mi->Delete(p, id);
    if (!s.ok()) {
      std::fprintf(stderr, "delete of object %llu failed: %s\n",
                   static_cast<unsigned long long>(id),
                   s.ToString().c_str());
      return 2;
    }
    if (!maybe_query()) return 2;
  }
  if (flags.GetInt("checkpoint", 0) != 0) {
    const common::Status s = mi->Checkpoint();
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
      return 2;
    }
    const storage::MutationStats cs = mi->mutation_stats();
    std::printf("checkpoint: now generation %llu, %llu WAL bytes "
                "reclaimed\n",
                static_cast<unsigned long long>(cs.generation),
                static_cast<unsigned long long>(cs.wal_bytes_reclaimed));
  }
  if (!compact.empty()) {
    // The fold is asynchronous: if the log still exceeds the byte
    // threshold, give the policy thread a moment to catch up so the
    // reported count reflects the whole run.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (compact_policy.max_wal_bytes > 0) {
      const storage::MutationStats cs = mi->mutation_stats();
      if (cs.wal_bytes <= compact_policy.max_wal_bytes ||
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    mi->StopCompaction();
    const storage::MutationStats cs = mi->mutation_stats();
    std::printf("compaction: %llu background checkpoints (generation %llu, "
                "%llu WAL bytes reclaimed)\n",
                static_cast<unsigned long long>(cs.auto_checkpoints),
                static_cast<unsigned long long>(cs.generation),
                static_cast<unsigned long long>(cs.wal_bytes_reclaimed));
  }
  if (engine != nullptr) {
    std::printf("queries:  %zu interleaved spot queries ok\n", queries_run);
    engine.reset();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const storage::MutationStats ms = mi->mutation_stats();
  std::printf(
      "ingested: %zu inserts, %zu deletes in %.3f s (%.0f commits/s)\n"
      "durable:  %llu commits, %llu copy-on-write pages, %llu "
      "checkpoints, %zu objects live\n",
      n_inserts, n_deletes, wall,
      static_cast<double>(n_inserts + n_deletes) / std::max(wall, 1e-9),
      static_cast<unsigned long long>(ms.commits),
      static_cast<unsigned long long>(ms.cow_pages),
      static_cast<unsigned long long>(ms.checkpoints), tree.size());

  // The conservation identity must hold on every scrape
  // (docs/STORAGE.md): every record the WAL ever carried is accounted
  // for exactly once.
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const uint64_t records = snap.CounterValue("sqp_wal_records_total");
  const uint64_t accounted =
      snap.CounterValue("sqp_wal_applied_total") +
      snap.CounterValue("sqp_wal_replayed_total") +
      snap.CounterValue("sqp_wal_torn_tail_dropped_total");
  if (records != accounted) {
    std::fprintf(stderr,
                 "conservation identity VIOLATED: %llu records, "
                 "%llu accounted\n",
                 static_cast<unsigned long long>(records),
                 static_cast<unsigned long long>(accounted));
    return 2;
  }
  std::printf("identity: wal_records == applied + replayed + "
              "torn_tail_dropped == %llu\n",
              static_cast<unsigned long long>(records));
  if (flags.GetInt("metrics", 0) != 0) {
    std::printf("\n%s", snap.ToPrometheus().c_str());
  }
  return 0;
}

// --- serve / query: the streaming service front end (src/server/) ---

std::atomic<bool> g_shutdown{false};

void OnSignal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

int RunServe(const Flags& flags) {
  const std::string dir = flags.Get("index", "");
  if (dir.empty()) {
    std::fprintf(stderr, "serve requires --index=<dir>\n");
    return 1;
  }
  // Like load-index: a mutable directory (CURRENT pointer or legacy WAL)
  // must be served through crash recovery, never as raw bytes.
  std::unique_ptr<storage::MutableIndex> mindex;
  std::unique_ptr<parallel::ParallelRStarTree> owned_index;
  const parallel::ParallelRStarTree* index = nullptr;
  std::unique_ptr<storage::FilePageStore> owned_store;
  const storage::PageStore* page_store = nullptr;
  const double throttle = flags.GetDouble("throttle", 0.0);
  std::unique_ptr<storage::ThrottledPageStore> throttled;
  if (IsMutableIndexDir(dir)) {
    auto mi = storage::MutableIndex::OpenFromDir(dir);
    if (!mi.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   mi.status().ToString().c_str());
      return 1;
    }
    mindex = std::move(*mi);
    index = &mindex->index();
    if (throttle > 0) {
      std::fprintf(stderr, "--throttle is ignored with a mutable index\n");
    }
    const std::string compact = flags.Get("compact", "");
    if (!compact.empty()) {
      storage::CompactionPolicy policy;
      if (!ParseCompactFlag(compact, &policy)) return 1;
      mindex->StartCompaction(policy);
      std::printf("compaction: background fold when log exceeds %llu bytes"
                  " / %llu records (min interval %.1f s)\n",
                  static_cast<unsigned long long>(policy.max_wal_bytes),
                  static_cast<unsigned long long>(policy.max_wal_records),
                  policy.min_interval_s);
    }
  } else {
    if (!flags.Get("compact", "").empty()) {
      std::fprintf(stderr, "--compact needs a mutable index directory\n");
      return 1;
    }
    auto opened = workload::LoadParallelIndex(dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    owned_index = std::move(*opened);
    index = owned_index.get();
    auto store = storage::FilePageStore::Open(dir);
    if (!store.ok()) {
      std::fprintf(stderr, "open store failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    owned_store = std::move(*store);
    page_store = owned_store.get();
    if (throttle > 0) {
      throttled =
          std::make_unique<storage::ThrottledPageStore>(page_store, throttle);
      page_store = throttled.get();
    }
  }

  exec::EngineOptions eopts;
  eopts.query_threads = static_cast<int>(flags.GetInt("threads", 8));
  eopts.cache_pages = static_cast<size_t>(flags.GetInt("cache", 4096));
  if (!ParseIoFlag(flags, &eopts.io_backend)) return 1;
  auto engine =
      mindex != nullptr
          ? exec::ParallelQueryEngine::CreateMutable(mindex.get(), eopts)
          : exec::ParallelQueryEngine::Create(*index, page_store, eopts);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  server::ServiceOptions sopts;
  sopts.workers = static_cast<int>(flags.GetInt("workers", 4));
  sopts.max_pending = static_cast<size_t>(flags.GetInt("max-pending", 64));
  sopts.max_chunk = static_cast<size_t>(flags.GetInt("max-chunk", 64));
  server::QueryService service(*index, engine->get(), sopts);

  server::TcpServerOptions topts;
  topts.port = static_cast<int>(flags.GetInt("port", 0));
  auto srv = server::TcpServer::Start(&service, topts);
  if (!srv.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 srv.status().ToString().c_str());
    return 1;
  }
  const std::string port_file = flags.Get("port-file", "");
  if (!port_file.empty() &&
      !WriteTextFile(port_file, std::to_string((*srv)->port()) + "\n")) {
    return 1;
  }
  std::printf("serving %s on port %d (%d workers, %zu pending slots, "
              "%d query threads, io backend %s)\n",
              dir.c_str(), (*srv)->port(), sopts.workers, sopts.max_pending,
              eopts.query_threads, IoBackendBanner(**engine).c_str());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_shutdown.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down\n");
  (*srv)->Stop();
  return 0;
}

// Parses "1.5,2.5,..." into a Point; empty on malformed input.
geometry::Point ParsePoint(const std::string& csv) {
  std::vector<geometry::Coord> coords;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string tok = csv.substr(start, comma - start);
    if (tok.empty()) return geometry::Point();
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') return geometry::Point();
    coords.push_back(static_cast<geometry::Coord>(v));
    start = comma + 1;
  }
  return geometry::Point::FromVector(std::move(coords));
}

int RunQueryCommand(const Flags& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (port == 0) {
    std::fprintf(stderr, "query requires --port=<port>\n");
    return 1;
  }
  const std::string host = flags.Get("host", "127.0.0.1");
  server::QuerySpec spec;
  const std::string mode = flags.Get("mode", "stream");
  if (mode == "batch") {
    spec.mode = server::QueryMode::kKnnBatch;
  } else if (mode == "range") {
    spec.mode = server::QueryMode::kRange;
  } else {
    spec.mode = server::QueryMode::kKnnStream;
  }
  spec.algo = ParseAlgo(flags.Get("algo", "crss"));
  spec.k = static_cast<size_t>(flags.GetInt("k", 10));
  spec.radius = flags.GetDouble("radius", 0.0);
  spec.deadline_s = flags.GetDouble("deadline-ms", 0.0) / 1e3;
  spec.priority = static_cast<int>(flags.GetInt("priority", 0));
  spec.point = ParsePoint(flags.Get("point", ""));
  if (spec.point.dim() == 0) {
    std::fprintf(stderr, "query requires --point=<c0,c1,...>\n");
    return 1;
  }

  // The server may still be binding (CI starts both concurrently):
  // retry the connect with backoff inside the wait budget.
  const long wait_ms = flags.GetInt("connect-wait-ms", 5000);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(wait_ms);
  std::unique_ptr<server::Client> client;
  for (;;) {
    auto connected = server::Client::Connect(host, port);
    if (connected.ok()) {
      client = std::move(*connected);
      break;
    }
    if (std::chrono::steady_clock::now() >= give_up) {
      std::fprintf(stderr, "connect failed: %s\n",
                   connected.status().ToString().c_str());
      return 2;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  size_t chunk_no = 0;
  const server::StreamOutcome out =
      client->Run(spec, [&](const std::vector<core::Neighbor>& chunk) {
        ++chunk_no;
        std::printf("chunk %zu: %zu results\n", chunk_no, chunk.size());
      });
  const size_t print = std::min<size_t>(
      out.neighbors.size(), static_cast<size_t>(flags.GetInt("print", 10)));
  for (size_t i = 0; i < print; ++i) {
    std::printf("  #%zu object %llu dist_sq %.6f\n", i + 1,
                static_cast<unsigned long long>(out.neighbors[i].object),
                out.neighbors[i].dist_sq);
  }
  if (out.status.ok()) {
    std::printf("done: %zu results in %zu chunks, %llu pages, %llu steps, "
                "%.3f ms\n",
                out.neighbors.size(), out.chunks,
                static_cast<unsigned long long>(out.summary.pages_fetched),
                static_cast<unsigned long long>(out.summary.steps),
                1e3 * out.summary.latency_s);
    return 0;
  }
  std::fprintf(stderr, "query failed: %s\n", out.status.ToString().c_str());
  if (out.status.code() == common::StatusCode::kResourceExhausted) return 3;
  if (out.status.code() == common::StatusCode::kDeadlineExceeded) return 4;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  int first_flag = 1;
  if (argc > 1 && std::strncmp(argv[1], "--", 2) != 0) {
    command = argv[1];
    first_flag = 2;
  }
  Flags flags;
  if (!ParseFlags(argc, argv, first_flag, &flags)) {
    std::fprintf(stderr,
                 "usage: sqp_cli [save-index|load-index|ingest|serve|query] "
                 "--key=value ... (see header)\n");
    return 1;
  }
  if (command == "save-index") return RunSaveIndex(flags);
  if (command == "load-index") return RunLoadIndex(flags);
  if (command == "ingest") return RunIngest(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "query") return RunQueryCommand(flags);
  if (!command.empty()) {
    std::fprintf(stderr, "unknown subcommand '%s' (try save-index, "
                 "load-index, ingest, serve, query, or flags only)\n",
                 command.c_str());
    return 1;
  }
  return RunDefault(flags);
}
