#include "exec/uring_backend.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"

#if defined(SQP_HAVE_IO_URING)
#include <linux/io_uring.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#endif

namespace sqp::exec {
namespace {

[[maybe_unused]] bool ForcedOff() {
  const char* v = std::getenv("SQP_FORCE_NO_URING");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

#if defined(SQP_HAVE_IO_URING)

// Submission queue depth requested from the kernel (rounded up to a power
// of two), shared by every disk.
constexpr unsigned kRingEntries = 256;
// Deep per-disk in-flight window: how many merged runs of one disk may sit
// in the ring at once. Clamped so all disks together fit the ring.
constexpr int kMaxInflightPerDisk = 16;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The kernel writes the CQ tail and SQ head; we write the SQ tail and CQ
// head. Acquire/release through the shared ring pages — the __atomic
// builtins are what liburing uses, and TSan instruments them.
unsigned LoadAcquire(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}
void StoreRelease(unsigned* p, unsigned v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

int SysUringSetup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}
int SysUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                  unsigned flags) {
  return static_cast<int>(
      syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags,
              nullptr, 0));
}
int SysUringRegister(int fd, unsigned opcode, const void* arg,
                     unsigned nr_args) {
  return static_cast<int>(syscall(__NR_io_uring_register, fd, opcode, arg,
                                  nr_args));
}

// Identifies the backend (if any) whose reactor or executor is running on
// this thread — same role as DiskIoPool's tls_worker_pool.
thread_local const void* tls_uring_backend = nullptr;

#endif  // SQP_HAVE_IO_URING

}  // namespace

UringProbe ProbeIoUring() {
  UringProbe probe;
#if !defined(SQP_HAVE_IO_URING)
  probe.detail = "io_uring support compiled out (linux/io_uring.h was not "
                 "found at build time)";
  return probe;
#else
  if (ForcedOff()) {
    probe.detail = "disabled by SQP_FORCE_NO_URING";
    return probe;
  }
  struct io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  const int fd = SysUringSetup(4, &params);
  if (fd < 0) {
    probe.detail = std::string("io_uring_setup: ") + std::strerror(errno);
    return probe;
  }
  ::close(fd);
  probe.available = true;
  struct utsname un;
  std::memset(&un, 0, sizeof(un));
  std::string kernel = ::uname(&un) == 0 ? un.release : "unknown";
  char feat[32];
  std::snprintf(feat, sizeof(feat), "0x%x", params.features);
  probe.detail = "kernel " + kernel + ", ring features " + feat;
  return probe;
#endif
}

#if defined(SQP_HAVE_IO_URING)

struct UringIoBackend::Impl {
  // ---- fixed configuration (set once in Create) ------------------------
  const storage::PageStore* store = nullptr;
  int disks = 0;
  bool metered = false;
  bool fd_mode = false;      // every disk handed out a raw fd -> real ring
  bool fixed_files = false;  // fds registered (IOSQE_FIXED_FILE)
  std::vector<int> raw_fds;
  int inflight_window = 1;  // per-disk runs allowed on the ring at once
  // Per-disk executor window: how many merged runs of one disk may
  // run at once (lazy threads, spawned only under concurrent demand).
  // This is the fd-less analogue of the ring's in-flight window — a
  // decorated store's merged runs overlap their charged service times
  // exactly as per-run READV SQEs overlap on the ring.
  int exec_window = 1;

  // ---- ring (reactor thread only after Create) -------------------------
  int ring_fd = -1;
  int event_fd = -1;
  void* sq_ptr = nullptr;
  size_t sq_bytes = 0;
  void* cq_ptr = nullptr;  // == sq_ptr under IORING_FEAT_SINGLE_MMAP
  size_t cq_bytes = 0;
  void* sqe_ptr = nullptr;
  size_t sqe_bytes = 0;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  struct io_uring_sqe* sqes = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  struct io_uring_cqe* cq_cqes = nullptr;
  unsigned sq_entries = 0;
  unsigned cq_entries = 0;
  unsigned sq_tail_local = 0;  // our shadow of *sq_tail
  unsigned to_submit = 0;      // SQEs staged but not yet handed to the kernel
  bool eventfd_armed = false;  // a wakeup READ SQE is staged or in flight
  uint64_t eventfd_buf = 0;    // destination of the wakeup read

  // One merged run of a batch: a single vectored READ against the media.
  struct BatchCtx;
  struct RunCtx {
    BatchCtx* batch = nullptr;
    int disk = 0;
    uint64_t offset = 0;
    size_t len = 0;
    std::vector<struct iovec> iov;  // destination slices, offset order
    double submit_s = 0.0;
  };
  struct BatchCtx {
    int disk = 0;
    std::vector<storage::ReadRequest> requests;
    std::function<void(common::Status)> done;
    common::Status status;  // first run error wins
    size_t remaining = 0;   // runs not yet completed
  };

  // Reactor-private work state.
  std::vector<std::deque<RunCtx*>> run_queue;  // planned, not yet on the ring
  std::vector<int> inflight;                   // runs on the ring, per disk
  int inflight_total = 0;
  std::vector<BatchCtx*> finished;  // completed this reactor iteration

  // ---- intake: submitters -> reactor / executors (guarded by mu) -------
  struct BatchJob {
    std::vector<storage::ReadRequest> requests;
    std::function<void(common::Status)> done;
  };
  struct DiskIntake {
    // Per-disk lock: submitters, this disk's executor and the reactor
    // only ever contend with traffic for the same spindle. A single
    // backend-wide lock here measurably convoys the executors when all
    // disks' reads complete in the same instant (the common case on
    // throttled media, where every read charges the same service time).
    std::mutex mu;
    std::deque<BatchJob> batches;                // read batches (fd mode)
    std::deque<std::function<void()>> runs;      // per-run reads (executor)
    std::condition_variable work_cv;   // wakes the executor
    std::condition_variable space_cv;  // wakes blocked submitters
    int exec_count = 0;  // executors spawned for this disk
    int exec_idle = 0;   // executors parked in work_cv.wait
  };
  std::deque<DiskIntake> intake;  // deque: stable addresses, no moves
  std::atomic<bool> stop{false};
  std::mutex exec_mu;  // guards `executors` (spawned lazily)

  // ---- stats (atomics: touched from every disk's threads) --------------
  std::atomic<uint64_t> completed{0};  // read batches
  std::atomic<uint64_t> backpressure{0};
  std::atomic<uint64_t> runs_submitted{0};
  std::atomic<uint64_t> runs_completed{0};

  // ---- instruments (null when unmetered) -------------------------------
  std::vector<obs::Counter*> m_jobs;
  std::vector<obs::Gauge*> m_inflight;
  std::vector<obs::Counter*> m_backpressure;
  obs::Histogram* m_submit_batch = nullptr;
  obs::Histogram* m_completion_s = nullptr;

  // ---- threads ---------------------------------------------------------
  std::thread reactor;
  std::vector<std::thread> executors;  // grown lazily under mu

  ~Impl() { TearDownRing(); }

  // ---------------------------------------------------------------- ring

  common::Status SetupRing() {
    struct io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    ring_fd = SysUringSetup(kRingEntries, &p);
    if (ring_fd < 0) {
      return common::Status::Unavailable(std::string("io_uring_setup: ") +
                                         std::strerror(errno));
    }
    sq_entries = p.sq_entries;
    cq_entries = p.cq_entries;
    sq_bytes = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    cq_bytes = p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe);
    const bool single = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single) sq_bytes = cq_bytes = std::max(sq_bytes, cq_bytes);
    sq_ptr = ::mmap(nullptr, sq_bytes, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQ_RING);
    if (sq_ptr == MAP_FAILED) {
      sq_ptr = nullptr;
      return common::Status::Unavailable(std::string("mmap(sq ring): ") +
                                         std::strerror(errno));
    }
    if (single) {
      cq_ptr = sq_ptr;
    } else {
      cq_ptr = ::mmap(nullptr, cq_bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_CQ_RING);
      if (cq_ptr == MAP_FAILED) {
        cq_ptr = nullptr;
        return common::Status::Unavailable(std::string("mmap(cq ring): ") +
                                           std::strerror(errno));
      }
    }
    sqe_bytes = p.sq_entries * sizeof(struct io_uring_sqe);
    sqe_ptr = ::mmap(nullptr, sqe_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES);
    if (sqe_ptr == MAP_FAILED) {
      sqe_ptr = nullptr;
      return common::Status::Unavailable(std::string("mmap(sqes): ") +
                                         std::strerror(errno));
    }
    char* sqb = static_cast<char*>(sq_ptr);
    sq_head = reinterpret_cast<unsigned*>(sqb + p.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(sqb + p.sq_off.tail);
    sq_mask = *reinterpret_cast<unsigned*>(sqb + p.sq_off.ring_mask);
    sq_array = reinterpret_cast<unsigned*>(sqb + p.sq_off.array);
    sqes = static_cast<struct io_uring_sqe*>(sqe_ptr);
    char* cqb = static_cast<char*>(cq_ptr);
    cq_head = reinterpret_cast<unsigned*>(cqb + p.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(cqb + p.cq_off.tail);
    cq_mask = *reinterpret_cast<unsigned*>(cqb + p.cq_off.ring_mask);
    cq_cqes = reinterpret_cast<struct io_uring_cqe*>(cqb + p.cq_off.cqes);
    sq_tail_local = *sq_tail;

    event_fd = ::eventfd(0, EFD_CLOEXEC);  // blocking: the ring read waits
    if (event_fd < 0) {
      return common::Status::Unavailable(std::string("eventfd: ") +
                                         std::strerror(errno));
    }
    // Best effort; on failure SQEs just carry raw fds.
    fixed_files = SysUringRegister(ring_fd, IORING_REGISTER_FILES,
                                   raw_fds.data(),
                                   static_cast<unsigned>(raw_fds.size())) == 0;
    return common::Status::OK();
  }

  void TearDownRing() {
    if (sqe_ptr != nullptr) ::munmap(sqe_ptr, sqe_bytes);
    if (cq_ptr != nullptr && cq_ptr != sq_ptr) ::munmap(cq_ptr, cq_bytes);
    if (sq_ptr != nullptr) ::munmap(sq_ptr, sq_bytes);
    sqe_ptr = cq_ptr = sq_ptr = nullptr;
    if (ring_fd >= 0) ::close(ring_fd);
    if (event_fd >= 0) ::close(event_fd);
    ring_fd = event_fd = -1;
  }

  void WakeReactor() {
    const uint64_t one = 1;
    ssize_t n;
    do {
      n = ::write(event_fd, &one, sizeof(one));
    } while (n < 0 && errno == EINTR);
  }

  unsigned SqSpace() const {
    return sq_entries - (sq_tail_local - LoadAcquire(sq_head));
  }

  struct io_uring_sqe* NextSqe() {
    const unsigned idx = sq_tail_local & sq_mask;
    sq_array[idx] = idx;
    sq_tail_local++;
    StoreRelease(sq_tail, sq_tail_local);
    to_submit++;
    struct io_uring_sqe* sqe = &sqes[idx];
    std::memset(sqe, 0, sizeof(*sqe));
    return sqe;
  }

  // ------------------------------------------------------------- reactor

  void ReactorLoop() {
    tls_uring_backend = this;
    for (;;) {
      bool stopping = false;
      std::vector<std::pair<int, BatchJob>> fresh;
      stopping = stop.load(std::memory_order_acquire);
      for (int d = 0; d < disks; ++d) {
        DiskIntake& q = intake[static_cast<size_t>(d)];
        std::lock_guard<std::mutex> lock(q.mu);
        if (q.batches.empty()) continue;
        while (!q.batches.empty()) {
          fresh.emplace_back(d, std::move(q.batches.front()));
          q.batches.pop_front();
        }
        q.space_cv.notify_all();
      }
      for (auto& [d, job] : fresh) PlanBatch(d, std::move(job));

      StageSqes();
      if (stopping && inflight_total == 0 && finished.empty() &&
          RunQueuesEmpty() && fresh.empty()) {
        // One more intake check under the locks: a batch may have
        // slipped in between the drain above and stop being observed
        // (SubmitBatchRead rejects after stop, so no later ones exist).
        bool drained = true;
        for (DiskIntake& q : intake) {
          std::lock_guard<std::mutex> lock(q.mu);
          drained &= q.batches.empty();
        }
        if (drained) break;
        continue;
      }

      unsigned reaped = ReapCqes();
      if (reaped == 0 && finished.empty()) {
        Enter(/*min_complete=*/1);  // submits staged SQEs, then blocks
        ReapCqes();
      } else if (to_submit > 0) {
        Enter(/*min_complete=*/0);
      }
      FinishBatches();
    }
  }

  bool RunQueuesEmpty() const {
    for (const auto& q : run_queue) {
      if (!q.empty()) return false;
    }
    return true;
  }

  void PlanBatch(int disk, BatchJob job) {
    auto* bc = new BatchCtx;
    bc->disk = disk;
    bc->requests = std::move(job.requests);
    bc->done = std::move(job.done);
    std::vector<storage::ReadRun> runs = storage::PlanReadRuns(bc->requests);
    bc->remaining = runs.size();
    if (runs.empty()) {
      finished.push_back(bc);
      return;
    }
    for (const storage::ReadRun& run : runs) {
      auto* rc = new RunCtx;
      rc->batch = bc;
      rc->disk = run.disk;
      rc->offset = run.offset;
      rc->len = run.len;
      rc->iov.reserve(run.indices.size());
      for (size_t i : run.indices) {
        const storage::ReadRequest& r = bc->requests[i];
        rc->iov.push_back({r.buf, r.len});
      }
      run_queue[static_cast<size_t>(run.disk)].push_back(rc);
    }
  }

  void StageSqes() {
    if (!eventfd_armed && SqSpace() > 0) {
      struct io_uring_sqe* sqe = NextSqe();
      sqe->opcode = IORING_OP_READ;
      sqe->fd = event_fd;
      sqe->addr = reinterpret_cast<uint64_t>(&eventfd_buf);
      sqe->len = sizeof(eventfd_buf);
      sqe->user_data = 0;  // wakeup token; run ctx pointers are never null
      eventfd_armed = true;
    }
    // Round-robin across disks so one deep queue cannot starve siblings
    // of ring slots.
    bool progress = true;
    while (progress) {
      progress = false;
      for (int d = 0; d < disks; ++d) {
        auto& queue = run_queue[static_cast<size_t>(d)];
        if (queue.empty()) continue;
        if (inflight[static_cast<size_t>(d)] >= inflight_window) continue;
        if (SqSpace() == 0) return;
        RunCtx* rc = queue.front();
        queue.pop_front();
        struct io_uring_sqe* sqe = NextSqe();
        sqe->opcode = IORING_OP_READV;
        if (fixed_files) {
          sqe->fd = rc->disk;
          sqe->flags = IOSQE_FIXED_FILE;
        } else {
          sqe->fd = raw_fds[static_cast<size_t>(rc->disk)];
        }
        sqe->addr = reinterpret_cast<uint64_t>(rc->iov.data());
        sqe->len = static_cast<unsigned>(rc->iov.size());
        sqe->off = rc->offset;
        sqe->user_data = reinterpret_cast<uint64_t>(rc);
        if (metered) rc->submit_s = NowSeconds();
        inflight[static_cast<size_t>(d)]++;
        inflight_total++;
        runs_submitted.fetch_add(1, std::memory_order_relaxed);
        if (m_inflight[static_cast<size_t>(d)] != nullptr) {
          m_inflight[static_cast<size_t>(d)]->Add(1);
        }
        progress = true;
      }
    }
  }

  void Enter(unsigned min_complete) {
    for (;;) {
      const unsigned flags = min_complete > 0 ? IORING_ENTER_GETEVENTS : 0u;
      const int ret = SysUringEnter(ring_fd, to_submit, min_complete, flags);
      if (ret < 0) {
        if (errno == EINTR) continue;
        // EBUSY/EAGAIN: completion-side pressure — reap first, retry later.
        if (errno == EBUSY || errno == EAGAIN) return;
        SQP_CHECK(false && "io_uring_enter failed");
      }
      if (ret > 0) {
        if (m_submit_batch != nullptr) {
          m_submit_batch->Observe(static_cast<double>(ret));
        }
        to_submit -= static_cast<unsigned>(ret);
      }
      return;
    }
  }

  unsigned ReapCqes() {
    unsigned reaped = 0;
    unsigned head = *cq_head;  // only this thread advances the head
    for (;;) {
      if (head == LoadAcquire(cq_tail)) break;
      const struct io_uring_cqe* cqe = &cq_cqes[head & cq_mask];
      HandleCqe(cqe);
      head++;
      StoreRelease(cq_head, head);
      reaped++;
    }
    return reaped;
  }

  void HandleCqe(const struct io_uring_cqe* cqe) {
    if (cqe->user_data == 0) {
      eventfd_armed = false;  // re-armed by the next StageSqes
      return;
    }
    RunCtx* rc = reinterpret_cast<RunCtx*>(cqe->user_data);
    const int d = rc->disk;
    inflight[static_cast<size_t>(d)]--;
    inflight_total--;
    if (m_inflight[static_cast<size_t>(d)] != nullptr) {
      m_inflight[static_cast<size_t>(d)]->Add(-1);
    }
    if (m_completion_s != nullptr) {
      m_completion_s->Observe(NowSeconds() - rc->submit_s);
    }
    runs_completed.fetch_add(1, std::memory_order_relaxed);
    common::Status st;
    const int res = cqe->res;
    if (res < 0) {
      st = common::Status::Internal(
          "io_uring readv on disk " + std::to_string(d) + " at offset " +
          std::to_string(rc->offset) + ": " + std::strerror(-res));
    } else if (static_cast<size_t>(res) != rc->len) {
      // Same shape as FilePageStore::ReadAt hitting EOF mid-read.
      st = common::Status::OutOfRange(
          "read past end of " + storage::FilePageStore::DiskFileName(d) +
          " (offset " + std::to_string(rc->offset) + " + " +
          std::to_string(rc->len) + " bytes; got " + std::to_string(res) +
          ")");
    }
    if (!st.ok() && rc->batch->status.ok()) rc->batch->status = st;
    if (--rc->batch->remaining == 0) finished.push_back(rc->batch);
    delete rc;
  }

  void FinishBatches() {
    if (finished.empty()) return;
    std::vector<BatchCtx*> done_now;
    done_now.swap(finished);
    for (BatchCtx* bc : done_now) {
      // Accounted before the callback, so whoever the callback wakes
      // already sees the batch counted.
      completed.fetch_add(1, std::memory_order_relaxed);
      if (m_jobs[static_cast<size_t>(bc->disk)] != nullptr) {
        m_jobs[static_cast<size_t>(bc->disk)]->Add(1);
      }
      bc->done(bc->status);  // no locks held
      delete bc;
    }
  }

  // ----------------------------------------------------------- executors

  // Called with the disk's intake lock held. Spawns the disk's first
  // executor, and further ones (up to exec_window) only when work is
  // queued and every existing executor is busy — the thread count grows
  // to the per-disk demand concurrency actually observed, never past the
  // window.
  void EnsureExecutorLocked(int disk) {
    DiskIntake& q = intake[static_cast<size_t>(disk)];
    if (q.exec_count > 0 && (q.exec_idle > 0 || q.exec_count >= exec_window)) {
      return;
    }
    q.exec_count++;
    std::lock_guard<std::mutex> lock(exec_mu);
    executors.emplace_back([this, disk] { ExecutorLoop(disk); });
  }

  void ExecutorLoop(int disk) {
    tls_uring_backend = this;
    DiskIntake& q = intake[static_cast<size_t>(disk)];
    std::unique_lock<std::mutex> lock(q.mu);
    for (;;) {
      q.exec_idle++;
      q.work_cv.wait(lock, [&] {
        return stop.load(std::memory_order_acquire) || !q.runs.empty();
      });
      q.exec_idle--;
      // Shutdown still drains every queued run before exiting.
      if (q.runs.empty()) return;
      std::function<void()> run = std::move(q.runs.front());
      q.runs.pop_front();
      q.space_cv.notify_all();
      lock.unlock();
      run();
      lock.lock();
    }
  }

  void EnqueueRun(int disk, std::function<void()> run) {
    DiskIntake& q = intake[static_cast<size_t>(disk)];
    std::unique_lock<std::mutex> lock(q.mu);
    SQP_CHECK(!stop.load(std::memory_order_acquire));
    while (q.runs.size() >= kIoQueueDepth) {
      backpressure.fetch_add(1, std::memory_order_relaxed);
      if (m_backpressure[static_cast<size_t>(disk)] != nullptr) {
        m_backpressure[static_cast<size_t>(disk)]->Add(1);
      }
      q.space_cv.wait(lock);
    }
    q.runs.push_back(std::move(run));
    EnsureExecutorLocked(disk);
    q.work_cv.notify_all();
  }
};

common::Result<std::unique_ptr<UringIoBackend>> UringIoBackend::Create(
    const storage::PageStore* store, obs::MetricsRegistry* metrics) {
  SQP_CHECK(store != nullptr);
  UringProbe probe = ProbeIoUring();
  if (!probe.available) {
    return common::Status::Unavailable("io_uring unavailable: " +
                                       probe.detail);
  }
  const int disks = store->num_disks();
  if (disks < 1) {
    return common::Status::InvalidArgument("store has no disks");
  }

  auto impl = std::make_unique<Impl>();
  impl->store = store;
  impl->disks = disks;
  impl->metered = metrics != nullptr;
  impl->raw_fds.resize(static_cast<size_t>(disks), -1);
  impl->fd_mode = true;
  for (int d = 0; d < disks; ++d) {
    impl->raw_fds[static_cast<size_t>(d)] = store->RawFd(d);
    if (impl->raw_fds[static_cast<size_t>(d)] < 0) impl->fd_mode = false;
  }
  if (impl->fd_mode) {
    common::Status ring = impl->SetupRing();
    if (!ring.ok()) return ring;
    // The in-flight bound is really a CQ bound: every disk at its full
    // window plus the wakeup read must fit the completion queue.
    const int cq_share =
        static_cast<int>((impl->cq_entries - 1) / static_cast<unsigned>(disks));
    impl->inflight_window =
        std::max(1, std::min(kMaxInflightPerDisk, cq_share));
  }
  impl->run_queue.resize(static_cast<size_t>(disks));
  impl->inflight.assign(static_cast<size_t>(disks), 0);
  // Executors honor the same per-disk window as the ring, capped so a
  // decorated store cannot fan a pathological batch into dozens of lazy
  // threads per disk.
  impl->exec_window = std::min(kMaxInflightPerDisk, 8);
  for (int d = 0; d < disks; ++d) impl->intake.emplace_back();

  impl->m_jobs.assign(static_cast<size_t>(disks), nullptr);
  impl->m_inflight.assign(static_cast<size_t>(disks), nullptr);
  impl->m_backpressure.assign(static_cast<size_t>(disks), nullptr);
  if (metrics != nullptr) {
    for (int d = 0; d < disks; ++d) {
      const auto i = static_cast<size_t>(d);
      impl->m_jobs[i] =
          metrics->GetCounter(obs::WithLabel("sqp_io_jobs_total", "disk", d));
      impl->m_inflight[i] =
          metrics->GetGauge(obs::WithLabel("sqp_io_inflight", "disk", d));
      impl->m_backpressure[i] = metrics->GetCounter(
          obs::WithLabel("sqp_io_backpressure_waits_total", "disk", d));
    }
    impl->m_submit_batch =
        metrics->GetHistogram("sqp_uring_submit_batch_size",
                              obs::MetricsRegistry::PowerOfTwoBuckets(10));
    impl->m_completion_s =
        metrics->GetHistogram("sqp_uring_completion_seconds",
                              obs::MetricsRegistry::LatencyBuckets());
  }

  auto backend =
      std::unique_ptr<UringIoBackend>(new UringIoBackend(std::move(impl)));
  Impl* im = backend->impl_.get();
  if (im->fd_mode) {
    im->reactor = std::thread([im] { im->ReactorLoop(); });
  }
  return backend;
}

UringIoBackend::UringIoBackend(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

UringIoBackend::~UringIoBackend() {
  Impl* im = impl_.get();
  if (im == nullptr) return;
  im->stop.store(true, std::memory_order_release);
  for (Impl::DiskIntake& q : im->intake) {
    std::lock_guard<std::mutex> lock(q.mu);
    q.work_cv.notify_all();
    q.space_cv.notify_all();
  }
  if (im->fd_mode) im->WakeReactor();
  if (im->reactor.joinable()) im->reactor.join();
  std::vector<std::thread> executors;
  {
    std::lock_guard<std::mutex> lock(im->exec_mu);
    executors.swap(im->executors);
  }
  for (std::thread& t : executors) t.join();
}

int UringIoBackend::num_disks() const { return impl_->disks; }

void UringIoBackend::SubmitBatchRead(
    int disk, std::vector<storage::ReadRequest> requests,
    std::function<void(common::Status)> done) {
  Impl* im = impl_.get();
  SQP_CHECK(disk >= 0 && disk < im->disks);
  SQP_DCHECK(!OnWorkerThread());
  if (!im->fd_mode) {
    // Decorated or in-memory store: the batch's merged runs (the same
    // plan the ring would submit as READV SQEs) each become one executor
    // job, so a disk keeps up to the executor window of media accesses in
    // flight — a batch whose runs would serialize their charged service
    // times inside one ReadPages call overlaps them instead, exactly as
    // per-run SQEs overlap on the ring. Throttling and fault injection
    // stay below the backend with per-access threads-backend semantics.
    // The batch counts as one job (when its last run lands); each run
    // counts once in the read-conservation identity.
    const std::vector<storage::ReadRun> runs = storage::PlanReadRuns(
        std::span<const storage::ReadRequest>(requests.data(),
                                              requests.size()));
    if (runs.empty()) {
      done(common::Status::OK());
      return;
    }
    struct FdlessBatch {
      std::vector<storage::ReadRequest> requests;
      std::function<void(common::Status)> done;
      std::mutex mu;
      common::Status status;  // first run error wins
      size_t remaining = 0;
    };
    auto bc = std::make_shared<FdlessBatch>();
    bc->requests = std::move(requests);
    bc->done = std::move(done);
    bc->remaining = runs.size();
    im->runs_submitted.fetch_add(runs.size(), std::memory_order_relaxed);
    for (const storage::ReadRun& run : runs) {
      std::vector<storage::ReadRequest> slice;
      slice.reserve(run.indices.size());
      for (size_t idx : run.indices) slice.push_back(bc->requests[idx]);
      im->EnqueueRun(
          disk,
          [im, disk, bc, slice = std::move(slice)] {
            const common::Status st =
                im->store->ReadPages(std::span<const storage::ReadRequest>(
                    slice.data(), slice.size()));
            im->runs_completed.fetch_add(1, std::memory_order_relaxed);
            bool last = false;
            {
              std::lock_guard<std::mutex> lock(bc->mu);
              if (!st.ok() && bc->status.ok()) bc->status = st;
              last = --bc->remaining == 0;
            }
            if (!last) return;
            im->completed.fetch_add(1, std::memory_order_relaxed);
            if (im->m_jobs[static_cast<size_t>(disk)] != nullptr) {
              im->m_jobs[static_cast<size_t>(disk)]->Add(1);
            }
            bc->done(bc->status);
          });
    }
    return;
  }
  {
    Impl::DiskIntake& q = im->intake[static_cast<size_t>(disk)];
    std::unique_lock<std::mutex> lock(q.mu);
    SQP_CHECK(!im->stop.load(std::memory_order_acquire));
    while (q.batches.size() >= kIoQueueDepth) {
      im->backpressure.fetch_add(1, std::memory_order_relaxed);
      if (im->m_backpressure[static_cast<size_t>(disk)] != nullptr) {
        im->m_backpressure[static_cast<size_t>(disk)]->Add(1);
      }
      q.space_cv.wait(lock);
    }
    q.batches.push_back(Impl::BatchJob{std::move(requests), std::move(done)});
  }
  im->WakeReactor();
}

uint64_t UringIoBackend::jobs_completed() const {
  return impl_->completed.load(std::memory_order_relaxed);
}

uint64_t UringIoBackend::backpressure_waits() const {
  return impl_->backpressure.load(std::memory_order_relaxed);
}

bool UringIoBackend::OnWorkerThread() const {
  return tls_uring_backend == impl_.get();
}

bool UringIoBackend::using_raw_fds() const { return impl_->fd_mode; }

uint64_t UringIoBackend::reads_submitted() const {
  return impl_->runs_submitted.load(std::memory_order_relaxed);
}

uint64_t UringIoBackend::reads_completed() const {
  return impl_->runs_completed.load(std::memory_order_relaxed);
}

#else  // !SQP_HAVE_IO_URING — stubs: Create never succeeds, nothing runs.

struct UringIoBackend::Impl {};

common::Result<std::unique_ptr<UringIoBackend>> UringIoBackend::Create(
    const storage::PageStore* store, obs::MetricsRegistry* metrics) {
  (void)store;
  (void)metrics;
  return common::Status::Unavailable("io_uring unavailable: " +
                                     ProbeIoUring().detail);
}

UringIoBackend::UringIoBackend(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
UringIoBackend::~UringIoBackend() = default;

int UringIoBackend::num_disks() const { return 0; }
void UringIoBackend::SubmitBatchRead(int, std::vector<storage::ReadRequest>,
                                     std::function<void(common::Status)>) {
  SQP_CHECK(false && "io_uring compiled out");
}
uint64_t UringIoBackend::jobs_completed() const { return 0; }
uint64_t UringIoBackend::backpressure_waits() const { return 0; }
bool UringIoBackend::OnWorkerThread() const { return false; }
bool UringIoBackend::using_raw_fds() const { return false; }
uint64_t UringIoBackend::reads_submitted() const { return 0; }
uint64_t UringIoBackend::reads_completed() const { return 0; }

#endif  // SQP_HAVE_IO_URING

}  // namespace sqp::exec
