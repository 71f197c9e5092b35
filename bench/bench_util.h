// Shared plumbing for the reproduction benches: index construction, the
// two experiment drivers (node-access counting and simulated response
// time), and table printing. Every bench binary prints the series of one
// figure/table of the paper; see DESIGN.md §4 for the experiment index.

#ifndef SQP_BENCH_BENCH_UTIL_H_
#define SQP_BENCH_BENCH_UTIL_H_

#include <sys/utsname.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/sequential_executor.h"
#include "exec/uring_backend.h"
#include "parallel/parallel_tree.h"
#include "sim/query_engine.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"
#include "workload/workload.h"

namespace sqp::bench {

inline constexpr uint64_t kDatasetSeed = 1998;   // the paper's year
inline constexpr uint64_t kQuerySeed = 225;      // first page of the paper
inline constexpr uint64_t kArrivalSeed = 226;

// The paper never states its page size, and its observable outputs imply
// different fan-outs per experiment family: the absolute visited-node
// counts of Figures 8-9 (up to ~55 nodes at k=700, d=2, 62k points) imply
// a fan-out of ~40, i.e. 1 KB blocks, while the absolute response times of
// Tables 3-4 (WOPTSS 0.15-0.48 s at d=5, lambda=5) are only reachable with
// a fan-out of ~80 at d=5, i.e. 4 KB blocks. Each bench therefore states
// the page size it calibrated to; see EXPERIMENTS.md.
inline constexpr int kEffectivenessPageSize = 1024;   // Figures 8, 9
inline constexpr int kResponseTimePageSize = 4096;    // Figs 10-12, Tabs 3-5

// Builds a PI-declustered page-sized R*-tree over `data`.
inline std::unique_ptr<parallel::ParallelRStarTree> BuildIndex(
    const workload::Dataset& data, int disks, int page_size,
    parallel::DeclusterPolicy policy =
        parallel::DeclusterPolicy::kProximityIndex) {
  rstar::TreeConfig tree_cfg;
  tree_cfg.dim = data.dim;
  tree_cfg.page_size_bytes = page_size;
  parallel::DeclusterConfig dc;
  dc.num_disks = disks;
  dc.policy = policy;
  dc.seed = kDatasetSeed;
  return workload::BuildParallelIndex(data, tree_cfg, dc);
}

// Mean pages fetched per query (the paper's "number of visited nodes").
inline double MeanNodeAccesses(const rstar::RStarTree& tree,
                               core::AlgorithmKind kind,
                               const std::vector<geometry::Point>& queries,
                               size_t k, int disks) {
  double total = 0.0;
  for (const geometry::Point& q : queries) {
    auto algo = core::MakeAlgorithm(kind, tree, q, k, disks);
    total += static_cast<double>(
        core::RunToCompletion(tree, algo.get()).pages_fetched);
  }
  return total / static_cast<double>(queries.size());
}

// Simulator parameters matched to the striping unit: the media transfer
// and bus transfer of one page scale with its size (~2 MB/s media,
// ~8 MB/s SCSI bus of the drive's era).
inline sim::SimConfig MakeSimConfig(int page_size) {
  sim::SimConfig cfg;
  cfg.disk.page_transfer_time = page_size / 2.0e6;
  cfg.bus_transfer_time = page_size / 8.0e6;
  return cfg;
}

// Mean response time (seconds) of `n` queries arriving as a Poisson
// process with rate lambda, all running `kind` over `index`.
inline double MeanResponseTime(const parallel::ParallelRStarTree& index,
                               core::AlgorithmKind kind,
                               const std::vector<geometry::Point>& queries,
                               size_t k, double lambda) {
  const auto arrivals =
      workload::PoissonArrivalTimes(queries.size(), lambda, kArrivalSeed);
  std::vector<sim::QueryJob> jobs;
  jobs.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    jobs.push_back({arrivals[i], queries[i], k});
  }
  const sim::SimConfig cfg =
      MakeSimConfig(index.tree().config().page_size_bytes);
  const sim::SimulationResult result = sim::RunSimulation(
      index, jobs,
      [kind, &index](const geometry::Point& q, size_t kk) {
        return core::MakeAlgorithm(kind, index.tree(), q, kk,
                                   index.num_disks());
      },
      cfg);
  return result.MeanResponseTime();
}

inline void PrintHeader(const std::string& title,
                        const std::string& setting) {
  std::printf("\n=== %s ===\n%s\n", title.c_str(), setting.c_str());
}

// Value of a `--name=value` argument, or `def` when absent. Benches use
// this for the few flags they take (notably --json=<path>).
inline std::string ArgValue(int argc, char** argv, const std::string& name,
                            const std::string& def = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return def;
}

// Minimal JSON emitter for machine-readable bench output (--json=<path>).
// Scope-based: Begin/End calls must nest properly; keys are passed to
// Field/Begin* inside objects and omitted inside arrays.
//
//   JsonWriter w;
//   w.BeginObject();
//   w.Field("bench", "parallel_engine");
//   w.BeginArray("series");
//   w.BeginObject();  w.Field("threads", 8);  w.EndObject();
//   w.EndArray();
//   w.EndObject();
//   w.WriteFile(path);
class JsonWriter {
 public:
  void BeginObject(const std::string& key = "") { Pre(key); out_ += '{'; first_ = true; }
  void EndObject() { out_ += '}'; first_ = false; }
  void BeginArray(const std::string& key = "") { Pre(key); out_ += '['; first_ = true; }
  void EndArray() { out_ += ']'; first_ = false; }

  void Field(const std::string& key, const std::string& v) {
    Pre(key);
    out_ += Quote(v);
  }
  void Field(const std::string& key, const char* v) {
    Field(key, std::string(v));
  }
  void Field(const std::string& key, double v, int precision = 6) {
    Pre(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    out_ += buf;
  }
  void Field(const std::string& key, uint64_t v) {
    Pre(key);
    out_ += std::to_string(v);
  }
  void Field(const std::string& key, int v) {
    Pre(key);
    out_ += std::to_string(v);
  }
  void Field(const std::string& key, bool v) {
    Pre(key);
    out_ += v ? "true" : "false";
  }

  const std::string& str() const { return out_; }

  // Writes the document (plus trailing newline) to `path`. Reports the
  // failure to stderr rather than aborting the bench.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs(out_.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (c == '\n') {
        q += "\\n";
      } else {
        q += c;
      }
    }
    q += '"';
    return q;
  }

  void Pre(const std::string& key) {
    if (!first_) out_ += ',';
    first_ = false;
    if (!key.empty()) out_ += Quote(key) + ":";
  }

  std::string out_;
  bool first_ = true;
};

// Version of the BENCH_*.json document layout. Bump when a bench changes
// the shape or meaning of its JSON (new/renamed series, changed row
// fields), so trajectory tooling can tell format changes from perf
// changes. v1: implicit, unstamped (PRs 2-6). v2: stamped meta fields +
// prefetch hit/wasted columns and adaptive prefetch series. v3: kernel +
// io_uring probe meta fields, io-backend series in bench_parallel_engine,
// hot-neighbor placement section. v4: prefetch series and columns
// dropped; the serial baseline runs on the engine's serial I/O backend.
inline constexpr int kBenchSchemaVersion = 4;

#ifndef SQP_GIT_DESCRIBE
#define SQP_GIT_DESCRIBE "unknown"  // set by bench/CMakeLists.txt
#endif

// Kernel release of the machine the bench ran on — io_uring availability
// and behavior are kernel properties, so the number rides with the data.
inline std::string KernelRelease() {
  struct utsname u;
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

// Stamps the shared meta fields into `w`'s current (top-level) object.
// Call right after the opening BeginObject of every BENCH_*.json.
// `io_backend` is the backend the bench's engine runs actually used
// ("threads", "uring", or "" for benches that never touch an engine).
inline void StampBenchMeta(JsonWriter* w, const std::string& io_backend = "") {
  w->Field("schema_version", kBenchSchemaVersion);
  w->Field("git_describe", SQP_GIT_DESCRIBE);
  w->Field("kernel", KernelRelease());
  const exec::UringProbe probe = exec::ProbeIoUring();
  w->Field("io_uring_available", probe.available);
  w->Field("io_uring_detail", probe.detail);
  if (!io_backend.empty()) w->Field("io_backend", io_backend);
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 12) {
  for (const std::string& c : cells) std::printf("%*s", width, c.c_str());
  std::printf("\n");
}

inline std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace sqp::bench

#endif  // SQP_BENCH_BENCH_UTIL_H_
