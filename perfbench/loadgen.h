// Load generation: open-loop and closed-loop k-NN clients over TCP, and a
// paced writer. Every op is recorded with its due, send and completion
// times so latency is measured from when the op was due, not from when a
// busy generator got round to sending it.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "geometry/point.h"
#include "server/client.h"
#include "server/service.h"
#include "spans.h"

namespace sqp::perfbench {

// Why an op failed: shed by admission, past its deadline, a transport
// error, a wrong answer, or a write that returned an error.
enum class Fail : uint8_t {
  kNone,
  kShed,
  kDeadline,
  kTransport,
  kWrong,
  kWrite,
};

struct OpRecord {
  size_t query = 0;  // index into the query pool (reads) or op stream
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  Fail fail = Fail::kNone;
  // From the server's DoneSummary (reads that completed).
  double server_s = 0.0;
  uint32_t chunks = 0;
  uint64_t pages = 0;
  uint64_t steps = 0;

  // Latency from the due time; +inf for a failed op.
  double LatencyMs() const;
};

// Checks one completed answer; false marks the op wrong. Called on the
// client thread after the op's completion time was taken.
using AnswerCheck =
    std::function<bool(size_t query, const server::StreamOutcome& out)>;

struct ReadLoad {
  int port = 0;
  int connections = 1;
  server::QueryMode mode = server::QueryMode::kKnnStream;
  size_t k = 20;
  double deadline_s = 0.0;  // 0 = none
  const std::vector<geometry::Point>* queries = nullptr;
  size_t first_query = 0;  // pool offset of the phase's first op
  AnswerCheck check;
  SpanLog* log = nullptr;
  uint64_t parent_span = 0;
};

// Sends `n` queries due at fixed 1/rate spacing, each on whichever
// connection is free first. Returns them in due order.
std::vector<OpRecord> RunOpenLoop(const ReadLoad& load, size_t n,
                                  double rate);

struct ClosedLoopResult {
  std::vector<OpRecord> ops;
  double start_s = 0.0;
  double elapsed_s = 0.0;
};
// Each connection sends its next query as soon as the previous finished,
// until duration_s has passed.
ClosedLoopResult RunClosedLoop(const ReadLoad& load, double duration_s);

// Runs write(i) for i in [0, n) on the calling thread, op i due at
// start + i / rate; write returns false when the op failed. Ops not begun
// within `max_s` of the start are dropped, so a disk that cannot keep up
// cannot stretch the run without bound.
std::vector<OpRecord> RunPacedWrites(size_t n, double rate,
                                     const std::function<bool(size_t)>& write,
                                     double max_s, SpanLog* log,
                                     uint64_t parent_span);

}  // namespace sqp::perfbench

#endif  // PERFBENCH_LOADGEN_H_
