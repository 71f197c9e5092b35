// Per-query execution traces: a fixed-capacity ring buffer of spans.
//
// Every activation batch a query runs through the engine produces one
// span — which disk served how many pages, what the cache absorbed, how
// long the fetch and the algorithm's processing took — and each finished
// query produces a closing span with its end-to-end numbers. Together the
// spans of one query id are its QueryTrace: the runtime record of one
// CRSS/BBSS/FPSS/WOPTSS run over the array, the per-query counterpart of
// the aggregate MetricsRegistry.
//
// The recorder is a bounded ring: when full, the oldest spans are
// overwritten (dropped() counts them), so tracing never grows without
// bound and never stalls the query path. Record() is one short mutex hold
// plus a move; Snapshot() returns the surviving spans oldest-first.

#ifndef SQP_OBS_TRACE_H_
#define SQP_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sqp::obs {

// One traced unit of work. `phase` is "step" for an activation batch and
// "query" for the whole-query closing span.
struct TraceSpan {
  uint64_t query_id = 0;
  const char* phase = "";
  const char* algo = "";
  uint32_t step = 0;            // activation batch index within the query
  uint32_t batch_requests = 0;  // page ids requested this step
  uint32_t pages = 0;           // nodes fetched (one disk page each)
  uint32_t cache_hits = 0;
  uint32_t cache_misses = 0;
  uint64_t io_faults = 0;
  uint64_t io_retries = 0;
  // Pages read per disk for this step's cache misses; empty when the step
  // was served entirely from the cache (and on "query" spans).
  std::vector<uint32_t> pages_per_disk;
  double start_s = 0.0;    // seconds since the recorder was created
  double fetch_s = 0.0;    // wall time fetching the batch (cache + I/O)
  double process_s = 0.0;  // wall time inside the algorithm callback
};

class TraceRecorder {
 public:
  // `capacity` spans are retained; must be >= 1.
  explicit TraceRecorder(size_t capacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Record(TraceSpan span);

  // Surviving spans, oldest first. Safe to call while writers record;
  // the result is a consistent ring state.
  std::vector<TraceSpan> Snapshot() const;

  size_t capacity() const { return capacity_; }
  // Spans ever recorded / overwritten by newer ones.
  uint64_t total_recorded() const;
  uint64_t dropped() const;

  // Monotonic query-id source shared by everything feeding this recorder.
  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Seconds since the recorder was created (span timestamps' epoch).
  double NowSeconds() const;
  // The epoch itself, on the steady clock's own timeline — lets a caller
  // that already holds a steady-clock reading convert it to span time
  // without a second clock read.
  double epoch_seconds() const { return epoch_s_; }

  // The span schema as a JSON array, newest-last; at most `max_spans`
  // spans (0 = all surviving).
  std::string ToJson(size_t max_spans = 0) const;

 private:
  const size_t capacity_;
  const double epoch_s_;  // steady-clock origin

  mutable std::mutex mu_;
  std::vector<TraceSpan> ring_;
  size_t next_ = 0;          // ring slot the next span lands in
  uint64_t recorded_ = 0;    // total Record() calls

  std::atomic<uint64_t> next_query_id_{0};
};

}  // namespace sqp::obs

#endif  // SQP_OBS_TRACE_H_
