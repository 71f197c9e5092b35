#include "exec/parallel_engine.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "exec/uring_backend.h"

namespace sqp::exec {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Completion rendezvous for one activation step: the query thread blocks
// until every read batch it submitted has reported in. One failing batch
// records the step's first error; the others still run to completion (and
// their fault counters still merge), so the backend's queues always drain.
struct BatchSync {
  std::mutex mu;
  std::condition_variable cv;
  int pending = 0;
  common::Status error;
  IoFaultCounters counters;

  void Add() {
    std::lock_guard<std::mutex> lock(mu);
    ++pending;
  }

  void Done(const common::Status& status, const IoFaultCounters& batch) {
    std::lock_guard<std::mutex> lock(mu);
    counters.Add(batch);
    if (error.ok() && !status.ok()) error = status;
    if (--pending == 0) cv.notify_one();
  }

  common::Status Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return pending == 0; });
    return error;
  }
};

}  // namespace

common::Result<std::unique_ptr<ParallelQueryEngine>>
ParallelQueryEngine::Create(const parallel::ParallelRStarTree& index,
                            const storage::PageStore* store,
                            const EngineOptions& options) {
  SQP_CHECK(store != nullptr);
  if (options.query_threads < 1) {
    return common::Status::InvalidArgument("query_threads must be >= 1");
  }
  auto reader = StoredIndexReader::Open(store, options.retry);
  if (!reader.ok()) return reader.status();
  const storage::IndexLayout& layout = (*reader)->layout();
  if (layout.decluster.num_disks != index.num_disks()) {
    return common::Status::InvalidArgument(
        "store image has " + std::to_string(layout.decluster.num_disks) +
        " disks, index has " + std::to_string(index.num_disks()));
  }
  if (layout.root != index.tree().root() ||
      layout.object_count != index.tree().size()) {
    return common::Status::FailedPrecondition(
        "store image does not match the live index (stale save?)");
  }
  return std::unique_ptr<ParallelQueryEngine>(
      new ParallelQueryEngine(index, std::move(*reader), options));
}

common::Result<std::unique_ptr<ParallelQueryEngine>>
ParallelQueryEngine::CreateMutable(storage::MutableIndex* index,
                                   const EngineOptions& options) {
  SQP_CHECK(index != nullptr);
  if (options.query_threads < 1) {
    return common::Status::InvalidArgument("query_threads must be >= 1");
  }
  // Point-in-time layout copy: the reader only uses it for the disk
  // count, page size and tree config, all immutable across commits AND
  // across generation flips (a checkpoint folds the same index into a
  // fresh generation; the shape never changes).
  storage::IndexLayout boot;
  {
    std::shared_lock<std::shared_mutex> lock(index->reader_mutex());
    boot = *index->layout_snapshot_locked();
  }
  // data_store() is the index's SwitchablePageStore facade, stable across
  // generation flips: the reader captures this one pointer for its
  // lifetime, and a checkpoint retargets the facade (under the writer
  // lock, epoch gate drained) instead of invalidating the pointer.
  auto reader = StoredIndexReader::OpenWithLayout(
      index->data_store(), std::move(boot), options.retry);
  if (!reader.ok()) return reader.status();
  auto engine = std::unique_ptr<ParallelQueryEngine>(
      new ParallelQueryEngine(index->index(), std::move(*reader), options));
  engine->mindex_ = index;
  // Retire superseded frames on every commit. The callback runs under the
  // index's writer lock; the cache never calls back into the index, so
  // there is no lock cycle. Cleared again in ~ParallelQueryEngine.
  // full=true arrives on checkpoints — including background-compaction
  // folds — where every cached frame names a location in the retired
  // generation and the whole cache must go.
  ShardedPageCache* cache = engine->cache_.get();
  index->SetCommitCallback(
      [cache](const std::vector<uint64_t>& superseded, bool full) {
        if (full) {
          cache->InvalidateAll();
        } else {
          cache->Invalidate(superseded);
        }
      });
  return engine;
}

ParallelQueryEngine::ParallelQueryEngine(
    const parallel::ParallelRStarTree& index,
    std::unique_ptr<StoredIndexReader> reader, const EngineOptions& options)
    : index_(index), options_(options), reader_(std::move(reader)) {
  if (options.enable_metrics) {
    if (options.metrics != nullptr) {
      metrics_ = options.metrics;
    } else {
      owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
      metrics_ = owned_metrics_.get();
    }
    reader_->EnableMetrics(metrics_);
    instr_.queries = metrics_->GetCounter("sqp_engine_queries_total");
    instr_.failures =
        metrics_->GetCounter("sqp_engine_query_failures_total");
    instr_.steps = metrics_->GetCounter("sqp_engine_steps_total");
    instr_.page_requests =
        metrics_->GetCounter("sqp_engine_page_requests_total");
    instr_.pages_fetched =
        metrics_->GetCounter("sqp_engine_pages_fetched_total");
    instr_.coalesced =
        metrics_->GetCounter("sqp_engine_coalesced_reads_total");
    instr_.deadline_exceeded =
        metrics_->GetCounter("sqp_engine_deadline_exceeded_total");
    instr_.cancelled = metrics_->GetCounter("sqp_engine_cancelled_total");
    instr_.inflight = metrics_->GetGauge("sqp_engine_inflight_queries");
    instr_.latency_seconds =
        metrics_->GetHistogram("sqp_engine_query_latency_seconds",
                               obs::MetricsRegistry::LatencyBuckets());
    // Activation batches: 1..128 pages in power-of-two buckets (the
    // paper's batch sizes are bounded by the node's fanout).
    instr_.batch_pages = metrics_->GetHistogram(
        "sqp_engine_batch_pages", obs::MetricsRegistry::PowerOfTwoBuckets(8));
  }
  if (options.trace_capacity > 0) {
    trace_ = std::make_unique<obs::TraceRecorder>(options.trace_capacity);
  }
  PageCacheOptions cache_options;
  cache_options.capacity_pages = options.cache_pages;
  cache_options.shards = options.cache_shards;
  cache_ = std::make_unique<ShardedPageCache>(cache_options, metrics_);
  if (options.io_backend == IoBackendKind::kSerial) {
    io_pool_ = std::make_unique<SerialIoBackend>(reader_->store());
  } else if (options.io_backend == IoBackendKind::kUring) {
    auto uring = UringIoBackend::Create(reader_->store(), metrics_);
    if (uring.ok()) {
      io_pool_ = std::move(*uring);
    } else {
      io_fallback_reason_ = uring.status().message();
    }
  }
  if (io_pool_ == nullptr) {
    io_pool_ = std::make_unique<DiskIoPool>(reader_->store(), metrics_);
  }
}

ParallelQueryEngine::~ParallelQueryEngine() {
  // Detach from the mutable index before the cache the commit callback
  // points at is torn down.
  if (mindex_ != nullptr) mindex_->SetCommitCallback(nullptr);
}

common::Status ParallelQueryEngine::FetchBatch(
    const std::vector<rstar::PageId>& ids, const storage::IndexLayout& layout,
    std::vector<const FlatNode*>* slots, std::vector<uint64_t>* keys,
    QueryOutcome* outcome, obs::TraceSpan* span) {
  slots->assign(ids.size(), nullptr);
  keys->assign(ids.size(), 0);
  // Resolve every PageId against the traversal's snapshot up front: the
  // locations are the cache keys, and the snapshot (not the reader's
  // boot-time layout) is the authority on where a PageId's bytes live.
  std::vector<storage::PageLocation> locs(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!layout.IsLive(ids[i])) {
      return common::Status::InvalidArgument(
          "page " + std::to_string(ids[i]) +
          " is not live in this query's snapshot");
    }
    locs[i] = layout.pages[ids[i]];
    (*keys)[i] = storage::PageLocationKey(locs[i]);
  }

  // Cache pass. Misses are grouped per disk, mirroring the declustering
  // assignment: each group becomes one read batch on that disk.
  std::map<int, std::vector<size_t>> misses_by_disk;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (const FlatNode* node = cache_->LookupPinned((*keys)[i])) {
      (*slots)[i] = node;
      ++outcome->cache_hits;
      if (span != nullptr) ++span->cache_hits;
      continue;
    }
    ++outcome->cache_misses;
    if (span != nullptr) {
      ++span->cache_misses;
      // Lazily sized so a fully cached step leaves pages_per_disk empty.
      if (span->pages_per_disk.empty()) {
        span->pages_per_disk.assign(
            static_cast<size_t>(reader_->num_disks()), 0);
      }
      ++span->pages_per_disk[static_cast<size_t>(locs[i].disk)];
    }
    misses_by_disk[locs[i].disk].push_back(i);
  }
  if (misses_by_disk.empty()) return common::Status::OK();

  // Submits one read batch for `group` — pages of `disk` this query leads
  // in the in-flight table. The completion (on the backend's completion
  // context) decodes each record, pins it into its slot and publishes the
  // outcome to the page's followers. `keys`, `slots` and `sync` live on
  // this thread's stack across sync.Wait(), so the completion borrows
  // them safely; the plan owns the request buffers until it runs.
  BatchSync sync;
  auto lead = [&](int disk, std::vector<size_t> group) {
    std::vector<rstar::PageId> group_ids;
    std::vector<storage::PageLocation> group_locs;
    group_ids.reserve(group.size());
    group_locs.reserve(group.size());
    for (size_t i : group) {
      group_ids.push_back(ids[i]);
      group_locs.push_back(locs[i]);
    }
    sync.Add();
    auto plan = std::make_shared<ReadBatchPlan>();
    const common::Status planned =
        reader_->PlanBatchRead(group_ids, group_locs, plan.get());
    if (!planned.ok()) {
      for (size_t i : group) coalescer_.Complete((*keys)[i], planned);
      sync.Done(planned, IoFaultCounters{});
      return;
    }
    io_pool_->SubmitBatchRead(
        disk, plan->requests,
        [this, plan, keys, slots, &sync,
         group = std::move(group)](common::Status batch) {
          IoFaultCounters counters;
          bool bytes_valid = false;
          common::Status result =
              reader_->NoteBatchOutcome(batch, &bytes_valid, &counters);
          size_t n = 0;
          if (result.ok()) {
            for (; n < group.size(); ++n) {
              const size_t i = group[n];
              auto flat = reader_->FinishFlatRecord(plan.get(), n,
                                                    bytes_valid, &counters);
              if (!flat.ok()) {
                result = flat.status();
                break;
              }
              (*slots)[i] = cache_->InsertPinned((*keys)[i], std::move(*flat));
              coalescer_.Complete((*keys)[i], common::Status::OK());
            }
          }
          // Keys not published above (batch failure, or a decode stopping
          // the loop early) still owe their followers an outcome.
          for (; n < group.size(); ++n) {
            coalescer_.Complete((*keys)[group[n]], result);
          }
          sync.Done(result, counters);
        });
  };

  // Miss pass. The in-flight table partitions each disk's misses into
  // pages this query leads and pages another query is already reading
  // (deferred: picked up after our own submissions). A new leader
  // re-probes the cache first — another query's read may have landed
  // between our lookup and our TryBegin.
  uint64_t coalesced = 0;
  std::vector<size_t> deferred;
  for (auto& [disk, slot_indices] : misses_by_disk) {
    std::vector<size_t> group;
    for (size_t i : slot_indices) {
      const uint64_t key = (*keys)[i];
      if (!coalescer_.TryBegin(key)) {
        deferred.push_back(i);
      } else if (const FlatNode* cached = cache_->ProbePinned(key)) {
        (*slots)[i] = cached;
        ++coalesced;
        coalescer_.Complete(key, common::Status::OK());
      } else {
        group.push_back(i);
      }
    }
    if (!group.empty()) lead(disk, std::move(group));
  }
  // Join the deferred pages' reads. Their leaders (other queries' batches,
  // or our own submissions above) complete without waiting on this
  // thread, so blocking here cannot deadlock. A leader's page inserted
  // just before Complete may already be evicted again (tiny cache); then
  // the join repeats, and whoever ends up leading reads it afresh.
  common::Status follow_failure;
  for (size_t i : deferred) {
    const uint64_t key = (*keys)[i];
    for (;;) {
      common::Status leader_status;
      if (coalescer_.BeginOrWait(key, &leader_status)) {
        if (const FlatNode* cached = cache_->ProbePinned(key)) {
          (*slots)[i] = cached;
          ++coalesced;
          coalescer_.Complete(key, common::Status::OK());
        } else {
          lead(locs[i].disk, {i});
        }
        break;
      }
      ++coalesced;
      if (!leader_status.ok()) {
        follow_failure = leader_status;
        break;
      }
      if (((*slots)[i] = cache_->ProbePinned(key)) != nullptr) break;
    }
    if (!follow_failure.ok()) break;
  }

  common::Status status = sync.Wait();
  if (status.ok()) status = follow_failure;
  outcome->coalesced_reads += coalesced;
  if (instr_.coalesced != nullptr && coalesced > 0) {
    instr_.coalesced->Add(static_cast<int64_t>(coalesced));
  }
  outcome->io_faults += sync.counters.faults;
  outcome->io_retries += sync.counters.retries;
  if (span != nullptr) {
    span->io_faults += sync.counters.faults;
    span->io_retries += sync.counters.retries;
  }
  if (!status.ok()) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if ((*slots)[i] != nullptr) cache_->Unpin((*keys)[i]);
    }
    slots->assign(ids.size(), nullptr);
  }
  return status;
}

QueryOutcome ParallelQueryEngine::RunQuery(const EngineQuery& query) {
  TraversalOptions topts;
  topts.algo_name = core::AlgorithmName(query.algo);
  topts.deadline_s = query.deadline_s;
  topts.control = query.control;
  // The algorithm is constructed inside the factory so that, in mutable
  // mode, its Begin-time reads of the tree happen under the index's
  // reader lock — the same hold that captured the page-map snapshot.
  std::unique_ptr<core::SearchAlgorithm> algo;
  const uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  if (instr_.inflight != nullptr) instr_.inflight->Add(1);
  QueryOutcome answer = RunTraversalImpl(
      [this, &query, &algo]() -> core::BatchTraversal* {
        algo = core::MakeAlgorithm(query.algo, index_.tree(), query.point,
                                   query.k, reader_->num_disks());
        return algo.get();
      },
      topts, query_id);
  FinishTraversal(&answer, topts, query_id);
  if (answer.status.ok()) answer.neighbors = algo->result().Sorted();
  return answer;
}

QueryOutcome ParallelQueryEngine::RunTraversal(
    core::BatchTraversal* traversal, const TraversalOptions& options) {
  const uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  if (instr_.inflight != nullptr) instr_.inflight->Add(1);
  QueryOutcome answer = RunTraversalImpl(
      [traversal]() -> core::BatchTraversal* { return traversal; }, options,
      query_id);
  FinishTraversal(&answer, options, query_id);
  return answer;
}

void ParallelQueryEngine::FinishTraversal(QueryOutcome* answer_ptr,
                                          const TraversalOptions& options,
                                          uint64_t query_id) {
  QueryOutcome& answer = *answer_ptr;
  if (instr_.queries != nullptr) {
    instr_.queries->Add(1);
    if (!answer.status.ok()) instr_.failures->Add(1);
    if (answer.deadline_exceeded) instr_.deadline_exceeded->Add(1);
    if (answer.status.code() == common::StatusCode::kCancelled) {
      instr_.cancelled->Add(1);
    }
    instr_.latency_seconds->Observe(answer.latency_s);
  }
  if (instr_.inflight != nullptr) instr_.inflight->Add(-1);
  if (trace_ != nullptr) {
    // The whole-query closing span: totals plus end-to-end wall time.
    obs::TraceSpan span;
    span.query_id = query_id;
    span.phase = "query";
    span.algo = options.algo_name;
    span.step = static_cast<uint32_t>(answer.steps);
    span.pages = static_cast<uint32_t>(answer.pages_fetched);
    span.cache_hits = static_cast<uint32_t>(answer.cache_hits);
    span.cache_misses = static_cast<uint32_t>(answer.cache_misses);
    span.io_faults = answer.io_faults;
    span.io_retries = answer.io_retries;
    span.start_s = trace_->NowSeconds() - answer.latency_s;
    span.process_s = answer.latency_s;
    trace_->Record(std::move(span));
  }
}

QueryOutcome ParallelQueryEngine::RunTraversalImpl(
    const std::function<core::BatchTraversal*()>& factory,
    const TraversalOptions& options, uint64_t query_id) {
  QueryOutcome answer;
  answer.query_id = query_id;
  const double start = NowSeconds();
  const double deadline =
      options.deadline_s > 0.0 ? start + options.deadline_s
                               : std::numeric_limits<double>::infinity();

  std::vector<const FlatNode*> slots;
  std::vector<uint64_t> keys;

  // Snapshot acquisition. In mutable mode the page map, the reclamation
  // epoch and the traversal's Begin()-time reads of the tree must all be
  // captured under one hold of the index's reader lock — Begin() is the
  // only point an algorithm dereferences the tree, so after the lock
  // drops the traversal runs entirely off the immutable snapshot. The
  // epoch is released on every exit path; it keeps Checkpoint() from
  // reclaiming bytes this query's locations still name.
  struct GateExit {
    storage::EpochGate* gate = nullptr;
    uint64_t epoch = 0;
    ~GateExit() {
      if (gate != nullptr) gate->Exit(epoch);
    }
  } gate_exit;
  std::shared_ptr<const storage::IndexLayout> layout;
  core::BatchTraversal* traversal = nullptr;
  core::StepResult step;
  if (mindex_ != nullptr) {
    std::shared_lock<std::shared_mutex> lock(mindex_->reader_mutex());
    if (mindex_->failed()) {
      answer.status = common::Status::Unavailable(
          "index poisoned by an earlier commit failure; recover by "
          "reopening from the log");
      answer.latency_s = NowSeconds() - start;
      return answer;
    }
    layout = mindex_->layout_snapshot_locked();
    gate_exit.gate = &mindex_->gate();
    gate_exit.epoch = gate_exit.gate->Enter();
    traversal = factory();
    step = traversal->Begin();
  } else {
    // Static image: the reader's boot-time layout IS the page map, and
    // nothing ever supersedes it. Aliasing shared_ptr — no ownership.
    layout = std::shared_ptr<const storage::IndexLayout>(
        std::shared_ptr<void>(), &reader_->layout());
    traversal = factory();
    step = traversal->Begin();
  }
  uint32_t step_index = 0;
  while (!step.done) {
    SQP_CHECK(!step.requests.empty());
    // Deadline and cancellation are honoured at step boundaries only —
    // the one place no page pins are held, so stopping here can never
    // leak a pinned cache frame or hand the traversal a dangling node.
    if (options.control != nullptr &&
        options.control->cancel.load(std::memory_order_relaxed)) {
      answer.status = common::Status::Cancelled(
          std::string(options.algo_name) + " query cancelled after " +
          std::to_string(answer.steps) + " steps");
      answer.latency_s = NowSeconds() - start;
      return answer;
    }
    if (NowSeconds() > deadline) {
      answer.deadline_exceeded = true;
      answer.status = common::Status::DeadlineExceeded(
          std::string(options.algo_name) + " query exceeded its " +
          std::to_string(options.deadline_s) + " s deadline");
      answer.latency_s = NowSeconds() - start;
      return answer;
    }
    ++answer.steps;

    obs::TraceSpan span;
    obs::TraceSpan* span_ptr = nullptr;
    double fetch_start = 0.0, fetch_end = 0.0;
    if (trace_ != nullptr) {
      span_ptr = &span;
      span.query_id = query_id;
      span.phase = "step";
      span.algo = options.algo_name;
      span.step = step_index;
      span.batch_requests = static_cast<uint32_t>(step.requests.size());
      fetch_start = NowSeconds();
      span.start_s = fetch_start - trace_->epoch_seconds();
    }
    answer.status =
        FetchBatch(step.requests, *layout, &slots, &keys, &answer, span_ptr);
    if (span_ptr != nullptr) fetch_end = NowSeconds();
    if (instr_.steps != nullptr) {
      instr_.steps->Add(1);
      instr_.page_requests->Add(step.requests.size());
    }
    if (!answer.status.ok()) {
      if (span_ptr != nullptr) {
        span.fetch_s = fetch_end - fetch_start;
        trace_->Record(std::move(span));
      }
      answer.latency_s = NowSeconds() - start;
      return answer;
    }
    std::vector<core::FetchedPage> pages;
    pages.reserve(step.requests.size());
    for (size_t i = 0; i < step.requests.size(); ++i) {
      pages.push_back({step.requests[i], slots[i]});
    }
    const uint32_t step_pages = static_cast<uint32_t>(pages.size());
    answer.pages_fetched += step_pages;
    if (instr_.pages_fetched != nullptr) {
      instr_.pages_fetched->Add(step_pages);
      instr_.batch_pages->Observe(static_cast<double>(step_pages));
    }
    step = traversal->OnPagesFetched(pages);
    // Pins are held across the callback (the algorithm borrows the node
    // pointers) and released immediately after.
    for (size_t i = 0; i < pages.size(); ++i) cache_->Unpin(keys[i]);
    if (span_ptr != nullptr) {
      span.pages = step_pages;
      span.fetch_s = fetch_end - fetch_start;
      span.process_s = NowSeconds() - fetch_end;
      trace_->Record(std::move(span));
    }
    if (options.on_step) options.on_step();
    ++step_index;
  }
  answer.latency_s = NowSeconds() - start;
  return answer;
}

std::vector<QueryOutcome> ParallelQueryEngine::RunBatch(
    const std::vector<EngineQuery>& queries) {
  std::vector<QueryOutcome> answers(queries.size());
  if (queries.empty()) return answers;
  const int n_threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(options_.query_threads),
                       queries.size()));
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= queries.size()) return;
      answers[i] = RunQuery(queries[i]);
    }
  };
  if (n_threads == 1) {
    drain();
    return answers;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n_threads));
  for (int t = 0; t < n_threads; ++t) workers.emplace_back(drain);
  for (std::thread& t : workers) t.join();
  return answers;
}

}  // namespace sqp::exec
