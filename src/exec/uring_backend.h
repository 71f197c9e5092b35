// io_uring-native completion-driven I/O backend (the "uring" IoBackend).
//
// DiskIoPool parks one blocking thread per disk — faithful to 1998
// spindles, wasteful on modern kernels where a single core can keep
// dozens of reads in flight. This backend replaces the D worker threads
// with ONE completion reactor driving one io_uring shared by all disks:
//
//   * read batches (SubmitBatchRead) are merged into offset-contiguous
//     runs (storage::PlanReadRuns — the same plan FilePageStore
//     executes) and submitted as vectored READV SQEs against the store's
//     registered file descriptors, up to a deep per-disk in-flight
//     window (16 runs, clamped so every disk's window fits the 256-entry
//     ring's completion queue);
//   * the reactor reaps CQEs and invokes the batch's completion callback
//     directly — the waiting traversal step is resumed from the
//     completion, no thread ever blocks in pread.
//
// Fault/latency decorators stay BELOW the backend: a store that cannot
// hand out raw file descriptors (PageStore::RawFd < 0 — MemPageStore,
// ThrottledPageStore, FaultInjectingPageStore, the mutable index's
// switchable facade) routes its batches through store->ReadPages on
// per-disk executor threads (created lazily) instead of the ring — one
// job per merged run, up to the same per-disk window the ring sustains,
// so a disk overlaps its runs' charged service times exactly as per-run
// SQEs overlap in fd mode, and injected faults surface exactly as they
// do under the threads backend. Answers are bit-identical either way —
// the engine owns delivery order.
//
// Metrics (with a registry): the per-disk sqp_io_* family of the threads
// backend where meaningful, plus sqp_io_inflight{disk} (runs in flight
// on the ring), sqp_uring_submit_batch_size (SQEs per io_uring_enter)
// and sqp_uring_completion_seconds (submit -> reap latency). Run
// conservation: reads_submitted == reads_completed once drained.
//
// Build support is probed twice: at compile time (SQP_HAVE_IO_URING,
// from linux/io_uring.h) and at runtime (ProbeIoUring — an
// io_uring_setup syscall; honors SQP_FORCE_NO_URING=1 for tests/CI).
// Create() fails with a typed Status when either probe fails; callers
// (the engine) fall back to DiskIoPool and record the reason.

#ifndef SQP_EXEC_URING_BACKEND_H_
#define SQP_EXEC_URING_BACKEND_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "exec/io_backend.h"
#include "obs/metrics.h"
#include "storage/page_store.h"

namespace sqp::exec {

// Outcome of the runtime io_uring probe. `detail` is human-readable
// either way (kernel release + ring features, or the failure reason) —
// it lands in bench metadata and startup banners.
struct UringProbe {
  bool available = false;
  std::string detail;
};

// Cheap (one setup/close syscall pair); callers may cache the result.
UringProbe ProbeIoUring();

class UringIoBackend final : public IoBackend {
 public:
  // Fails (kUnavailable) when io_uring is compiled out, the runtime
  // probe fails, or ring setup is refused. `store` must outlive the
  // backend; when it supplies raw fds for every disk they are registered
  // with the ring, otherwise batches run through store->ReadPages on the
  // executors (see file comment). `metrics` may be null (unmetered).
  static common::Result<std::unique_ptr<UringIoBackend>> Create(
      const storage::PageStore* store,
      obs::MetricsRegistry* metrics = nullptr);

  // Drains all queued batches, then joins the reactor and executors.
  ~UringIoBackend() override;

  UringIoBackend(const UringIoBackend&) = delete;
  UringIoBackend& operator=(const UringIoBackend&) = delete;

  const char* name() const override { return "uring"; }
  int num_disks() const override;

  void SubmitBatchRead(int disk, std::vector<storage::ReadRequest> requests,
                       std::function<void(common::Status)> done) override;

  uint64_t jobs_completed() const override;
  uint64_t backpressure_waits() const override;
  bool OnWorkerThread() const override;

  // True when batches really ride the ring (the store handed out
  // raw fds for every disk); false when they run via ReadPages on the
  // executors (decorated or in-memory stores).
  bool using_raw_fds() const;

  // Run conservation over the ring and the executor fallback (merged
  // runs submitted vs landed): once drained,
  // reads_submitted == reads_completed.
  uint64_t reads_submitted() const;
  uint64_t reads_completed() const;

 private:
  struct Impl;
  explicit UringIoBackend(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace sqp::exec

#endif  // SQP_EXEC_URING_BACKEND_H_
