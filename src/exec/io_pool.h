// The two thread-based I/O backends: the inline serial baseline and the
// fixed pool of per-disk I/O worker threads.
//
// The paper's RAID-0 array serves requests on its D spindles
// independently; the simulator models that with D FCFS queues
// (sim/fcfs_server.h). DiskIoPool is the wall-clock counterpart: one
// worker thread per disk, mirroring the declustering assignment, so an
// activation batch of b pages placed on b different disks really issues
// b concurrent reads against the backing files. Each disk's queue is
// FIFO — exactly the drive-queue model the paper's response-time
// analysis assumes — and its worker runs one read batch at a time
// through PageStore::ReadPages (which merges offset-adjacent requests),
// then calls the batch's completion.
//
// With a MetricsRegistry attached, each disk reports its queue behavior —
// the quantities the paper's response-time analysis is built on:
// sqp_io_jobs_total{disk=d}, sqp_io_queue_depth{disk=d}, and the
// sqp_io_wait_seconds / sqp_io_service_seconds histograms (time queued
// before the worker picked the batch up / time its ReadPages took). A
// batch is fully accounted before its completion runs, so a caller that
// observes the completion also observes the counters.
//
// Queues are bounded (kIoQueueDepth, io_backend.h).
// SubmitBatchRead blocks the submitting query thread until space frees
// up — backpressure instead of unbounded memory growth when queries
// outrun the media — and counts each stall in
// sqp_io_backpressure_waits_total{disk}. Workers never submit (the
// blocking path would self-deadlock), and debug builds enforce it.
//
// SerialIoBackend bypasses all of that: each batch is one blocking
// ReadPages call on the calling thread (offset-adjacent requests merge,
// as on a worker), so nothing overlaps — the single-disk-at-a-time system
// the paper's speedup figures compare against, which benchmarks use as
// their baseline.

#ifndef SQP_EXEC_IO_POOL_H_
#define SQP_EXEC_IO_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/io_backend.h"
#include "obs/metrics.h"
#include "storage/page_store.h"

namespace sqp::exec {

// Inline backend: SubmitBatchRead reads the whole batch with one
// ReadPages call on the calling thread, then runs `done` there.
class SerialIoBackend : public IoBackend {
 public:
  // `store` must outlive the backend.
  explicit SerialIoBackend(const storage::PageStore* store);

  const char* name() const override { return "serial"; }
  int num_disks() const override { return store_->num_disks(); }
  void SubmitBatchRead(int disk, std::vector<storage::ReadRequest> requests,
                       std::function<void(common::Status)> done) override;
  uint64_t jobs_completed() const override {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t backpressure_waits() const override { return 0; }
  bool OnWorkerThread() const override { return false; }

 private:
  const storage::PageStore* store_;  // not owned
  std::atomic<uint64_t> completed_{0};
};

class DiskIoPool : public IoBackend {
 public:
  // Starts one worker per disk of `store`, which must outlive the pool.
  // When `metrics` is non-null the per-disk instruments above are
  // registered on it; null runs unmetered (no timestamps taken on the hot
  // path).
  explicit DiskIoPool(const storage::PageStore* store,
                      obs::MetricsRegistry* metrics = nullptr);

  // Drains every queue, then joins the workers.
  ~DiskIoPool() override;

  DiskIoPool(const DiskIoPool&) = delete;
  DiskIoPool& operator=(const DiskIoPool&) = delete;

  const char* name() const override { return "threads"; }

  int num_disks() const override { return static_cast<int>(queues_.size()); }

  // Enqueues the batch on `disk`'s queue, blocking while the queue holds
  // kIoQueueDepth batches (not counting the one in service). The batch's ReadPages and then `done` run on that disk's
  // worker thread, in submission order.
  void SubmitBatchRead(int disk, std::vector<storage::ReadRequest> requests,
                       std::function<void(common::Status)> done) override;

  // Batches completed so far, summed over all disks (monotonic).
  uint64_t jobs_completed() const override;

  // Times SubmitBatchRead had to wait for queue space, summed over all
  // disks.
  uint64_t backpressure_waits() const override;

  // True when the calling thread is one of this pool's I/O workers.
  bool OnWorkerThread() const override;

 private:
  struct QueuedBatch {
    std::vector<storage::ReadRequest> requests;
    std::function<void(common::Status)> done;
    double enqueue_s = 0.0;  // only meaningful when metered
  };

  struct DiskQueue {
    mutable std::mutex mu;
    std::condition_variable cv;        // signals the worker: batch available
    std::condition_variable space_cv;  // signals submitters: space freed
    std::deque<QueuedBatch> jobs;
    uint64_t completed = 0;
    uint64_t backpressure_waits = 0;
    bool stop = false;
    // Instruments (null when unmetered). Written by SubmitBatchRead and
    // the worker; the instruments themselves are thread-safe.
    obs::Counter* jobs_total = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* backpressure_total = nullptr;
    obs::Histogram* wait_seconds = nullptr;
    obs::Histogram* service_seconds = nullptr;
  };

  void WorkerLoop(DiskQueue* queue);

  const storage::PageStore* store_;  // not owned
  // deque of queues: stable addresses, no copies.
  std::deque<DiskQueue> queues_;
  std::vector<std::thread> workers_;
  bool metered_ = false;
};

}  // namespace sqp::exec

#endif  // SQP_EXEC_IO_POOL_H_
