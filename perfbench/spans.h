// The benchmark's tracing: spans kept in memory and written at exit, plus
// the two decorators through which it observes the storage layer from
// outside — a PageStore that counts and times the reads and syncs of the
// store it wraps, and a GenerationEnv that hands such stores to
// MutableIndex. Nothing here reaches inside src/.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/generation.h"
#include "storage/page_store.h"

namespace sqp::perfbench {

// Seconds on the steady clock.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
};

// Append-only in-memory span store. Disabled logs record nothing and
// cost one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Lets one run measure an untraced phase before its traced one.
  void SetEnabled(bool on) { enabled_.store(on); }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(uint64_t id, uint64_t parent, const char* name, double start_s,
              double end_s);
  // Parent of spans recorded from threads the benchmark does not own (the
  // engine's I/O workers calling into a decorator): the current phase.
  void SetAmbientParent(uint64_t id) { ambient_.store(id); }
  uint64_t ambient_parent() const { return ambient_.load(); }

  // Writes every span as a JSON array; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> ambient_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// What an ObservedPageStore saw. Times are in nanoseconds and only
// accumulate when the store was built with timing on.
struct StoreCounters {
  std::atomic<uint64_t> read_calls{0};
  std::atomic<uint64_t> read_ns{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> sync_calls{0};
  std::atomic<uint64_t> sync_ns{0};
};

// Pass-through decorator. Counts written bytes always; with a log that is
// enabled it also times every ReadAt/ReadPages/Sync and records each as a
// span under the log's ambient parent.
class ObservedPageStore : public storage::PageStore {
 public:
  // Read-only view (writes fail) over `base`.
  ObservedPageStore(const storage::PageStore* base, StoreCounters* counters,
                    SpanLog* log);
  // Read-write view over `base`.
  ObservedPageStore(storage::PageStore* base, StoreCounters* counters,
                    SpanLog* log);

  int num_disks() const override { return rbase_->num_disks(); }
  common::Result<uint64_t> SizeOf(int disk) const override {
    return rbase_->SizeOf(disk);
  }
  common::Status ReadAt(int disk, uint64_t offset, void* buf,
                        size_t len) const override;
  common::Status ReadPages(
      std::span<const storage::ReadRequest> requests) const override;
  common::Status WriteAt(int disk, uint64_t offset, const void* buf,
                         size_t len) override;
  common::Status Truncate(int disk) override;
  common::Status Sync() override;

 private:
  template <typename F>
  common::Status TimedRead(F&& f) const;

  const storage::PageStore* rbase_;
  storage::PageStore* wbase_;  // null for the read-only view
  StoreCounters* counters_;
  SpanLog* log_;
};

// GenerationEnv decorator whose data and WAL stores are ObservedPageStores
// over the wrapped env's, so the bytes MutableIndex writes (COW pages, WAL
// appends, folded generations) and the time its syncs take are measured.
class ObservedGenerationEnv : public storage::GenerationEnv {
 public:
  ObservedGenerationEnv(std::unique_ptr<storage::GenerationEnv> inner,
                        StoreCounters* counters, SpanLog* log)
      : inner_(std::move(inner)), counters_(counters), log_(log) {}

  common::Result<uint64_t> ReadCurrent() override {
    return inner_->ReadCurrent();
  }
  common::Status PublishCurrent(uint64_t gen) override {
    return inner_->PublishCurrent(gen);
  }
  common::Result<std::vector<uint64_t>> ListGenerations() override {
    return inner_->ListGenerations();
  }
  common::Result<storage::GenerationStores> OpenGeneration(
      uint64_t gen) override {
    return Wrap(inner_->OpenGeneration(gen));
  }
  common::Result<storage::GenerationStores> CreateGeneration(
      uint64_t gen, int data_disks) override {
    return Wrap(inner_->CreateGeneration(gen, data_disks));
  }
  common::Status RemoveGeneration(uint64_t gen) override {
    return inner_->RemoveGeneration(gen);
  }

 private:
  common::Result<storage::GenerationStores> Wrap(
      common::Result<storage::GenerationStores> opened);

  std::unique_ptr<storage::GenerationEnv> inner_;
  StoreCounters* counters_;
  SpanLog* log_;
};

}  // namespace sqp::perfbench

#endif  // PERFBENCH_SPANS_H_
