// Cross-query read coalescing: an in-flight table keyed by the page's
// stable 64-bit identity (storage::PageLocationKey against a mutable
// index; bare PageIds work too against an immutable store).
//
// When N queries miss the same page at the same time, only the first
// (the leader) should pay the pread + checksum + decode; the other N-1
// (followers) should block until the leader publishes the page in the
// shared cache and then pick it up from there. The engine's one cache-miss
// path (ParallelQueryEngine::FetchBatch) partitions every step's misses
// this way under every I/O backend.
//
// Protocol:
//   common::Status st;
//   if (coalescer.BeginOrWait(id, &st)) {
//     ... read + decode + insert into the cache ...
//     coalescer.Complete(id, read_status);   // exactly once, even on error
//   } else {
//     // A leader's read was joined; `st` is its outcome. On st.ok() the
//     // page was inserted into the cache just before Complete, so a cache
//     // probe is expected to hit (re-run the protocol if it was already
//     // evicted).
//   }

#ifndef SQP_EXEC_COALESCER_H_
#define SQP_EXEC_COALESCER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/status.h"
#include "rstar/types.h"

namespace sqp::exec {

class ReadCoalescer {
 public:
  ReadCoalescer() = default;
  ReadCoalescer(const ReadCoalescer&) = delete;
  ReadCoalescer& operator=(const ReadCoalescer&) = delete;

  // Returns true if the caller is now the leader for `id` and must
  // perform the read and call Complete(id, ...) exactly once. Returns
  // false if an in-flight leader's read was joined: the call blocks until
  // that leader Completes and `*status` receives the leader's outcome.
  bool BeginOrWait(uint64_t key, common::Status* status);

  // Non-blocking leadership probe: true means the caller became the
  // leader for `key` (and owes exactly one Complete); false means another
  // leader's read is in flight — the caller has NOT joined it and is not
  // counted as a coalesced read. Pair with a later BeginOrWait to wait.
  // The engine uses this to partition a step's misses into pages to
  // submit and pages to pick up after submission.
  bool TryBegin(uint64_t key);

  // Leader only: publishes the read's outcome and wakes all followers.
  void Complete(uint64_t key, const common::Status& status);

  // Reads avoided so far: followers that joined a leader's in-flight read.
  uint64_t coalesced_reads() const;

 private:
  struct Flight {
    bool done = false;
    common::Status status;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Followers hold the shared_ptr across Complete's erase, so a Flight
  // outlives its table entry until the last waiter has read the status.
  std::unordered_map<uint64_t, std::shared_ptr<Flight>> inflight_;
  uint64_t coalesced_ = 0;
};

}  // namespace sqp::exec

#endif  // SQP_EXEC_COALESCER_H_
