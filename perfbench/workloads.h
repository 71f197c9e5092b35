// The three workloads and the run that measures one of them.
//
// Every workload serves its index the way `sqp_cli serve` does — default
// EngineOptions (threads backend, prefetch off, metrics on) behind a
// QueryService and a TcpServer on loopback — and drives it from this
// process through server::Client connections. A run is:
//
//   set-up (x kSetupRepeats: all but the last in child processes; the
//           last runs here and keeps serving)
//     build: generate points + queries, bulk-load, SaveIndexToDir
//     open:  open the saved index, engine, service, server
//     warm:  queries over TCP until the page cache is filled
//   read phase   open loop at the workload's fixed rate (plus, when the
//                workload serves a MutableIndex, a paced writer beside it),
//                measured again when its generator fell behind
//   peak phase   closed loop, one query in flight per connection
//   write phase  (workloads served read-only) the same index reopened as
//                a MutableIndex and a paced insert/delete stream applied
//   final        explicit Checkpoint (space), answer checks, a fixed tail
//                of un-folded commits, then kRecoveryRepeats reopens with
//                OpenFromDir + CreateMutable until a query is answered
//
// Per-layer values are deltas over the read phase only.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "server/service.h"

namespace sqp::perfbench {

struct WorkloadSpec {
  const char* name = "";
  int dim = 2;
  double cluster_spread = 0.02;  // stddev of each cluster, per axis
  size_t points = 100000;
  int disks = 10;
  size_t cache_pages = 4096;
  double throttle_s = 0.0;  // charge per media read; 0 = unthrottled
  server::QueryMode mode = server::QueryMode::kKnnStream;
  size_t k = 20;
  // Fixed open-loop rate of the read phase, and its connections.
  double read_rate = 0.0;
  int read_connections = 4;
  // Writes run beside the reads on a MutableIndex the server serves
  // (otherwise they run alone in the write phase).
  bool mutable_serving = false;
  double write_rate = 0.0;
  // Background compaction: fold after this many WAL records (0 = off).
  uint64_t compact_records = 0;
  // Shares of --seconds given to the read, peak and write phases.
  double read_share = 0.5;
  double peak_share = 0.25;
  double write_share = 0.25;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     // scratch space for index directories
  std::string trace_path;   // where the traced run writes its spans
  std::string git_describe;
};

struct RunResult {
  bool correct = true;
  bool valid = true;
  std::vector<std::string> problems;  // why correct or valid is false
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // gated by BENCHMARK.json's bounds
  // End-to-end series reported with their sample counts but not gated:
  // their run-to-run spread on a shared host exceeds any allowed bound.
  std::vector<Metric> ungated;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> provenance;
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunArgs& args);

// One set-up of `spec` and nothing else: writes "build open warm"
// seconds to `out_path`. RunWorkload runs all but its last set-up this
// way, each in a process of its own. Returns the exit status.
int RunSetupOnly(const WorkloadSpec& spec, const RunArgs& args,
                 const std::string& out_path);

}  // namespace sqp::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
