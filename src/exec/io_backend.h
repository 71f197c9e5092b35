// The seam between the execution engine and its I/O machinery.
//
// The engine hands a backend one kind of work: a demand read batch — the
// missed pages of one activation step that live on one disk — through
// SubmitBatchRead, and resumes the waiting traversal from the batch's
// completion callback. How the batch reaches the media is a backend
// choice:
//
//   * SerialIoBackend ("serial", io_pool.h) — inline on the calling
//     thread, one blocking ReadPages per batch: the single-disk-at-a-time
//     baseline the paper's speedup figures compare against.
//   * DiskIoPool ("threads", io_pool.h) — one blocking worker thread per
//     disk, the wall-clock form of the paper's per-spindle FCFS queues.
//   * UringIoBackend ("uring", uring_backend.h) — a single completion
//     reactor driving one io_uring shared by all disks, with deep
//     per-disk in-flight windows and no thread parked per spindle.
//
// The engine's headline invariant — query answers bit-identical to the
// sequential executor — holds under every backend, because delivery order
// is the engine's business, not the backend's.

#ifndef SQP_EXEC_IO_BACKEND_H_
#define SQP_EXEC_IO_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/page_store.h"

namespace sqp::exec {

// Per-disk bound on queued-but-unserved read batches (or, on the uring
// backend's executors, merged runs) before SubmitBatchRead blocks the
// submitter. Deliberately generous: the bound exists to cap memory and
// surface overload as backpressure, not to throttle ordinary batches.
inline constexpr size_t kIoQueueDepth = 1024;

class IoBackend {
 public:
  virtual ~IoBackend() = default;

  // Stable identifier for banners, bench metadata and tests: "serial",
  // "threads" or "uring".
  virtual const char* name() const = 0;

  virtual int num_disks() const = 0;

  // Reads every request of the batch (all on `disk`), then invokes `done`
  // once with the batch outcome — the first error, or OK — from the
  // backend's completion context (the calling thread for an inline
  // backend). The request buffers must stay valid until `done` runs.
  // Blocks the caller only for backpressure and, on an inline backend,
  // for the I/O itself. Must not be called from a backend thread
  // (OnWorkerThread); debug builds abort if it is.
  virtual void SubmitBatchRead(int disk,
                               std::vector<storage::ReadRequest> requests,
                               std::function<void(common::Status)> done) = 0;

  // Read batches completed so far.
  virtual uint64_t jobs_completed() const = 0;

  // Times a submission stalled for queue space.
  virtual uint64_t backpressure_waits() const = 0;

  // True when the calling thread belongs to this backend (a worker, an
  // executor, or the completion reactor).
  virtual bool OnWorkerThread() const = 0;
};

}  // namespace sqp::exec

#endif  // SQP_EXEC_IO_BACKEND_H_
