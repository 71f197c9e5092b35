// Cross-query read coalescing: the ReadCoalescer in-flight table, and the
// engine-level guarantee it exists for — N queries missing the same page
// concurrently cost exactly one backend read, whichever I/O backend
// carries the reads.

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/algorithms.h"
#include "exec/coalescer.h"
#include "exec/parallel_engine.h"
#include "exec/uring_backend.h"
#include "geometry/point.h"
#include "parallel/parallel_tree.h"
#include "storage/index_io.h"
#include "storage/page_store.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"

namespace sqp {
namespace {

using exec::ReadCoalescer;
using geometry::Point;

// --- ReadCoalescer --------------------------------------------------------

// The defining scenario: a second miss on an in-flight page joins the
// leader's read instead of issuing its own. The follower thread registers
// (coalesced_reads ticks up) *before* it sleeps, so the test can hold the
// leader's read open until the join is certain — no timing assumptions.
TEST(ReadCoalescerTest, SecondMissJoinsLeaderRead) {
  ReadCoalescer coalescer;
  std::atomic<int> backend_reads{0};

  common::Status leader_status;
  ASSERT_TRUE(coalescer.BeginOrWait(7, &leader_status));  // we lead

  std::atomic<bool> follower_was_leader{true};
  common::Status follower_status = common::Status::Internal("unset");
  std::thread follower([&] {
    common::Status st;
    if (coalescer.BeginOrWait(7, &st)) {
      // Would be a coalescing failure; perform the protocol anyway so the
      // test fails via the flag instead of hanging.
      backend_reads.fetch_add(1);
      coalescer.Complete(7, common::Status::OK());
    } else {
      follower_was_leader.store(false);
      follower_status = st;
    }
  });

  // Wait until the follower has joined our flight, then "finish the read".
  while (coalescer.coalesced_reads() == 0) std::this_thread::yield();
  backend_reads.fetch_add(1);
  coalescer.Complete(7, common::Status::OK());
  follower.join();

  EXPECT_FALSE(follower_was_leader.load());
  EXPECT_TRUE(follower_status.ok());
  EXPECT_EQ(backend_reads.load(), 1);
  EXPECT_EQ(coalescer.coalesced_reads(), 1u);
}

TEST(ReadCoalescerTest, ManyFollowersShareOneRead) {
  ReadCoalescer coalescer;
  common::Status st;
  ASSERT_TRUE(coalescer.BeginOrWait(3, &st));

  constexpr uint64_t kFollowers = 4;
  std::atomic<int> joined_ok{0};
  std::vector<std::thread> followers;
  for (uint64_t i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&] {
      common::Status s;
      if (!coalescer.BeginOrWait(3, &s) && s.ok()) joined_ok.fetch_add(1);
    });
  }
  while (coalescer.coalesced_reads() < kFollowers) {
    std::this_thread::yield();
  }
  coalescer.Complete(3, common::Status::OK());
  for (std::thread& t : followers) t.join();

  EXPECT_EQ(joined_ok.load(), static_cast<int>(kFollowers));
  EXPECT_EQ(coalescer.coalesced_reads(), kFollowers);
}

TEST(ReadCoalescerTest, LeaderFailurePropagatesToFollowers) {
  ReadCoalescer coalescer;
  common::Status st;
  ASSERT_TRUE(coalescer.BeginOrWait(9, &st));

  common::Status follower_status;
  std::thread follower([&] {
    common::Status s;
    EXPECT_FALSE(coalescer.BeginOrWait(9, &s));
    follower_status = s;
  });
  while (coalescer.coalesced_reads() == 0) std::this_thread::yield();
  coalescer.Complete(9, common::Status::Unavailable("disk 2 died"));
  follower.join();

  EXPECT_FALSE(follower_status.ok());
  EXPECT_EQ(follower_status.code(), common::StatusCode::kUnavailable);
}

TEST(ReadCoalescerTest, DistinctPagesDoNotCoalesce) {
  ReadCoalescer coalescer;
  common::Status st;
  EXPECT_TRUE(coalescer.BeginOrWait(1, &st));
  EXPECT_TRUE(coalescer.BeginOrWait(2, &st));  // different page: own leader
  coalescer.Complete(1, common::Status::OK());
  coalescer.Complete(2, common::Status::OK());
  EXPECT_EQ(coalescer.coalesced_reads(), 0u);

  // A completed flight is gone: the next miss leads again.
  EXPECT_TRUE(coalescer.BeginOrWait(1, &st));
  coalescer.Complete(1, common::Status::OK());
  EXPECT_EQ(coalescer.coalesced_reads(), 0u);
}

// --- Engine-level coalescing ----------------------------------------------

// Counts backend reads per (disk, offset) media location; an optional
// per-read delay widens the window in which concurrent misses overlap.
class CountingPageStore : public storage::PageStore {
 public:
  explicit CountingPageStore(storage::PageStore* base) : base_(base) {}

  int num_disks() const override { return base_->num_disks(); }
  common::Result<uint64_t> SizeOf(int disk) const override {
    return base_->SizeOf(disk);
  }
  common::Status ReadAt(int disk, uint64_t offset, void* buf,
                        size_t len) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counts_[{disk, offset}];
    }
    if (read_delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(read_delay_ms_));
    }
    return base_->ReadAt(disk, offset, buf, len);
  }
  common::Status WriteAt(int disk, uint64_t offset, const void* buf,
                         size_t len) override {
    return base_->WriteAt(disk, offset, buf, len);
  }
  common::Status Truncate(int disk) override {
    return base_->Truncate(disk);
  }
  common::Status Sync() override { return base_->Sync(); }

  void ResetCounts() {
    std::lock_guard<std::mutex> lock(mu_);
    counts_.clear();
  }
  int MaxReadsOfAnyLocation() const {
    std::lock_guard<std::mutex> lock(mu_);
    int max = 0;
    for (const auto& [loc, n] : counts_) max = std::max(max, n);
    return max;
  }
  void set_read_delay_ms(int ms) { read_delay_ms_ = ms; }

 private:
  storage::PageStore* base_;
  mutable std::mutex mu_;
  mutable std::map<std::pair<int, uint64_t>, int> counts_;
  int read_delay_ms_ = 0;
};

std::unique_ptr<parallel::ParallelRStarTree> SmallIndex(uint64_t seed,
                                                        int disks) {
  const workload::Dataset data = workload::MakeClustered(900, 2, 8, 0.1, seed);
  rstar::TreeConfig tree_config;
  tree_config.dim = 2;
  tree_config.max_entries_override = 10;
  parallel::DeclusterConfig dc;
  dc.num_disks = disks;
  dc.policy = parallel::DeclusterPolicy::kProximityIndex;
  dc.seed = seed;
  return workload::BuildParallelIndex(data, tree_config, dc);
}

// With a cache big enough to never evict, every media location is read at
// most once no matter how many concurrent queries want it: the in-flight
// table makes one query the leader of each missed location, and a leader
// re-probes the cache before reading. Asserted on real engine traffic
// rather than a mocked race, on every backend.
TEST(EngineCoalescingTest, ConcurrentQueriesReadEachLocationOnce) {
  std::vector<exec::IoBackendKind> backends = {exec::IoBackendKind::kThreads,
                                               exec::IoBackendKind::kSerial};
  if (exec::ProbeIoUring().available) {
    backends.push_back(exec::IoBackendKind::kUring);
  }
  for (exec::IoBackendKind backend : backends) {
    auto index = SmallIndex(21, 4);
    storage::MemPageStore mem(4);
    ASSERT_TRUE(storage::SaveIndex(*index, &mem).ok());
    CountingPageStore counting(&mem);

    exec::EngineOptions options;
    options.query_threads = 4;
    options.cache_pages = 4096;  // no eviction: re-reads would be bugs
    options.io_backend = backend;
    auto engine =
        exec::ParallelQueryEngine::Create(*index, &counting, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    SCOPED_TRACE((*engine)->io_backend_name());
    counting.ResetCounts();  // drop the index-load reads

    // Three distinct query points, four copies of each: maximal overlap.
    std::vector<exec::EngineQuery> queries;
    const Point points[] = {Point{0.2f, 0.8f}, Point{0.5f, 0.5f},
                            Point{0.9f, 0.1f}};
    constexpr core::AlgorithmKind kKinds[] = {
        core::AlgorithmKind::kBbss, core::AlgorithmKind::kFpss,
        core::AlgorithmKind::kCrss, core::AlgorithmKind::kWoptss};
    for (const Point& p : points) {
      for (core::AlgorithmKind kind : kKinds) {
        queries.push_back({p, 10, kind});
      }
    }
    const auto outcomes = (*engine)->RunBatch(queries);
    for (const auto& o : outcomes) {
      EXPECT_TRUE(o.status.ok()) << o.status.message();
    }
    EXPECT_EQ(counting.MaxReadsOfAnyLocation(), 1);
  }
}

// The serial backend with slow media: identical queries racing from the
// first page onward actually join each other's in-flight reads (nonzero
// coalesced_reads), and joining changes nothing about the answers.
TEST(EngineCoalescingTest, SerialIoConcurrentMissesCoalesce) {
  auto index = SmallIndex(22, 3);
  storage::MemPageStore mem(3);
  ASSERT_TRUE(storage::SaveIndex(*index, &mem).ok());
  CountingPageStore counting(&mem);

  exec::EngineOptions options;
  options.query_threads = 3;
  options.cache_pages = 4096;
  options.io_backend = exec::IoBackendKind::kSerial;
  auto engine = exec::ParallelQueryEngine::Create(*index, &counting, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  counting.ResetCounts();
  // Every read holds its flight open for 50ms — the other query threads
  // miss the same page inside that window and must join, not re-read.
  counting.set_read_delay_ms(50);

  std::vector<exec::EngineQuery> queries(
      3, exec::EngineQuery{Point{0.4f, 0.6f}, 12, core::AlgorithmKind::kCrss});
  const auto outcomes = (*engine)->RunBatch(queries);

  uint64_t coalesced = 0;
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.status.ok()) << o.status.message();
    ASSERT_EQ(o.neighbors.size(), outcomes[0].neighbors.size());
    for (size_t i = 0; i < o.neighbors.size(); ++i) {
      EXPECT_EQ(o.neighbors[i].object, outcomes[0].neighbors[i].object);
      EXPECT_EQ(o.neighbors[i].dist_sq, outcomes[0].neighbors[i].dist_sq);
    }
    coalesced += o.coalesced_reads;
  }
  EXPECT_GE(coalesced, 1u);
  EXPECT_EQ(counting.MaxReadsOfAnyLocation(), 1);
}

}  // namespace
}  // namespace sqp
