#include "server/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "core/distance_browser.h"
#include "core/range_search.h"

namespace sqp::server {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The one admission check of a query's values, shared by every front end
// (binary frames, text lines, the CLI) because all of them funnel through
// Submit: a value no query can mean is a typed InvalidArgument here, never
// a CHECK failure or a garbage answer further down.
common::Status ValidateSpec(const QuerySpec& spec, int dim) {
  if (spec.point.dim() != dim) {
    return common::Status::InvalidArgument(
        "query point has dimension " + std::to_string(spec.point.dim()) +
        ", index has " + std::to_string(dim));
  }
  for (int i = 0; i < dim; ++i) {
    if (!std::isfinite(spec.point[i])) {
      return common::Status::InvalidArgument(
          "query coordinate " + std::to_string(i) + " is not finite");
    }
  }
  if (spec.mode == QueryMode::kRange) {
    if (!std::isfinite(spec.radius) || spec.radius < 0.0) {
      return common::Status::InvalidArgument(
          "radius must be finite and >= 0");
    }
  } else if (spec.k == 0) {
    return common::Status::InvalidArgument("k must be >= 1");
  }
  if (!std::isfinite(spec.deadline_s)) {
    return common::Status::InvalidArgument("deadline must be finite");
  }
  return common::Status::OK();
}

}  // namespace

const char* QueryModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kKnnBatch:
      return "knn";
    case QueryMode::kKnnStream:
      return "knn-stream";
    case QueryMode::kRange:
      return "range";
  }
  return "unknown";
}

bool StreamingQuery::NextChunk(std::vector<core::Neighbor>* out) {
  std::unique_lock<std::mutex> lock(mu_);
  consumer_cv_.wait(lock, [&] { return !chunks_.empty() || finished_; });
  if (chunks_.empty()) return false;
  *out = std::move(chunks_.front());
  chunks_.pop_front();
  producer_cv_.notify_one();
  return true;
}

void StreamingQuery::Cancel() {
  control_.cancel.store(true, std::memory_order_relaxed);
  // Wake a producer blocked on a full buffer so it can observe the flag,
  // and a consumer so a cancelled-before-running query does not hang it.
  std::lock_guard<std::mutex> lock(mu_);
  producer_cv_.notify_all();
  consumer_cv_.notify_all();
}

bool StreamingQuery::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

bool StreamingQuery::PushChunk(std::vector<core::Neighbor> chunk,
                               size_t max_buffered) {
  if (chunk.empty()) return true;
  std::unique_lock<std::mutex> lock(mu_);
  producer_cv_.wait(lock, [&] {
    return chunks_.size() < max_buffered ||
           control_.cancel.load(std::memory_order_relaxed);
  });
  if (control_.cancel.load(std::memory_order_relaxed)) return false;
  chunks_.push_back(std::move(chunk));
  consumer_cv_.notify_one();
  return true;
}

void StreamingQuery::Finish(exec::QueryOutcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  outcome_ = std::move(outcome);
  finished_ = true;
  consumer_cv_.notify_all();
  producer_cv_.notify_all();
}

bool QueryService::PendingOrder::operator()(
    const std::shared_ptr<StreamingQuery>& a,
    const std::shared_ptr<StreamingQuery>& b) const {
  if (a->spec_.priority != b->spec_.priority) {
    return a->spec_.priority > b->spec_.priority;
  }
  if (a->admission_.deadline_s != b->admission_.deadline_s) {
    return a->admission_.deadline_s < b->admission_.deadline_s;
  }
  return a->admission_.seq < b->admission_.seq;
}

QueryService::QueryService(const parallel::ParallelRStarTree& index,
                           exec::ParallelQueryEngine* engine,
                           const ServiceOptions& options)
    : index_(index), engine_(engine), options_(options) {
  SQP_CHECK(engine_ != nullptr);
  SQP_CHECK(options_.workers >= 1);
  SQP_CHECK(options_.max_pending >= 1);
  SQP_CHECK(options_.max_chunk >= 1);
  SQP_CHECK(options_.max_buffered_chunks >= 1);
  if (obs::MetricsRegistry* m = engine_->metrics(); m != nullptr) {
    m_submitted_ = m->GetCounter("sqp_server_submitted_total");
    m_shed_ = m->GetCounter("sqp_server_shed_total");
    m_completed_ = m->GetCounter("sqp_server_completed_total");
    m_pending_ = m->GetGauge("sqp_server_pending");
    m_active_ = m->GetGauge("sqp_server_active");
    m_queue_wait_ = m->GetHistogram("sqp_server_queue_wait_seconds",
                                    obs::MetricsRegistry::LatencyBuckets());
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() {
  std::vector<std::shared_ptr<StreamingQuery>> orphans;
  std::vector<std::shared_ptr<StreamingQuery>> running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Pending queries will never run; fail them typed so blocked
    // consumers unblock with an explanation rather than a hang.
    for (const auto& q : pending_) orphans.push_back(q);
    pending_.clear();
    running = running_;
    if (m_pending_ != nullptr) m_pending_->Set(0);
    work_cv_.notify_all();
  }
  // Cancel what the workers are executing right now: an abandoned handle
  // (no consumer) would otherwise leave its producer blocked forever in
  // PushChunk and the join below would deadlock.
  for (const auto& q : running) q->Cancel();
  for (const auto& q : orphans) {
    q->Cancel();
    exec::QueryOutcome out;
    out.status =
        common::Status::Cancelled("service shutting down before dispatch");
    q->Finish(std::move(out));
    if (m_completed_ != nullptr) m_completed_->Add(1);
  }
  for (std::thread& t : workers_) t.join();
}

common::Result<std::shared_ptr<StreamingQuery>> QueryService::Submit(
    const QuerySpec& spec) {
  if (m_submitted_ != nullptr) m_submitted_->Add(1);
  if (common::Status valid = ValidateSpec(spec, dim()); !valid.ok()) {
    if (m_shed_ != nullptr) m_shed_->Add(1);
    return valid;
  }

  auto q = std::make_shared<StreamingQuery>();
  q->spec_ = spec;
  q->admission_.admit_s = NowSeconds();
  q->admission_.deadline_s =
      spec.deadline_s > 0.0 ? q->admission_.admit_s + spec.deadline_s
                            : std::numeric_limits<double>::infinity();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      if (m_shed_ != nullptr) m_shed_->Add(1);
      return common::Status::Unavailable("service is shutting down");
    }
    if (pending_.size() >= options_.max_pending) {
      if (m_shed_ != nullptr) m_shed_->Add(1);
      return common::Status::ResourceExhausted(
          "pending queue full (" + std::to_string(options_.max_pending) +
          " queries); retry with backoff");
    }
    q->admission_.seq = next_seq_++;
    pending_.insert(q);
    if (m_pending_ != nullptr) m_pending_->Add(1);
    work_cv_.notify_one();
  }
  return q;
}

exec::QueryOutcome QueryService::RunBlocking(const QuerySpec& spec) {
  auto submitted = Submit(spec);
  if (!submitted.ok()) {
    exec::QueryOutcome out;
    out.status = submitted.status();
    return out;
  }
  std::shared_ptr<StreamingQuery> q = std::move(*submitted);
  std::vector<core::Neighbor> all, chunk;
  while (q->NextChunk(&chunk)) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  exec::QueryOutcome out = q->outcome();
  if (out.neighbors.empty()) {
    out.neighbors = std::move(all);
  }
  return out;
}

void QueryService::WorkerLoop() {
  for (;;) {
    std::shared_ptr<StreamingQuery> q;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      q = *pending_.begin();
      pending_.erase(pending_.begin());
      // Same critical section as the pop: the destructor sees every
      // query as either pending or running, never in between.
      running_.push_back(q);
      if (m_pending_ != nullptr) m_pending_->Add(-1);
    }
    if (m_active_ != nullptr) m_active_->Add(1);
    Execute(q);
    if (m_active_ != nullptr) m_active_->Add(-1);
    if (m_completed_ != nullptr) m_completed_->Add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), q));
    }
  }
}

void QueryService::Execute(const std::shared_ptr<StreamingQuery>& q) {
  const QuerySpec& spec = q->spec_;
  const double now = NowSeconds();
  if (m_queue_wait_ != nullptr) {
    m_queue_wait_->Observe(now - q->admission_.admit_s);
  }
  if (q->control_.cancel.load(std::memory_order_relaxed)) {
    exec::QueryOutcome out;
    out.status = common::Status::Cancelled("cancelled before dispatch");
    q->Finish(std::move(out));
    return;
  }
  // The remaining budget after queue wait; an already-late query fails
  // here without touching the disks at all (the overload fast path).
  double remaining = 0.0;
  if (q->admission_.deadline_s !=
      std::numeric_limits<double>::infinity()) {
    remaining = q->admission_.deadline_s - now;
    if (remaining <= 0.0) {
      exec::QueryOutcome out;
      out.deadline_exceeded = true;
      out.status = common::Status::DeadlineExceeded(
          "deadline passed while queued (waited " +
          std::to_string(now - q->admission_.admit_s) + " s)");
      q->Finish(std::move(out));
      return;
    }
  }

  const rstar::RStarTree& tree = index_.tree();
  exec::QueryOutcome out;
  if (spec.mode == QueryMode::kKnnBatch) {
    exec::EngineQuery eq;
    eq.point = spec.point;
    eq.k = spec.k;
    eq.algo = spec.algo;
    eq.deadline_s = remaining;
    eq.control = &q->control_;
    out = engine_->RunQuery(eq);
    if (out.status.ok() && !out.neighbors.empty()) {
      // Deliver the whole answer as chunked stream frames, so clients
      // read every mode through the same NextChunk loop.
      std::vector<core::Neighbor> chunk;
      for (const core::Neighbor& n : out.neighbors) {
        chunk.push_back(n);
        if (chunk.size() >= options_.max_chunk) {
          if (!q->PushChunk(std::move(chunk),
                            options_.max_buffered_chunks)) {
            break;
          }
          chunk.clear();
        }
      }
      if (!chunk.empty()) {
        q->PushChunk(std::move(chunk), options_.max_buffered_chunks);
      }
    }
  } else if (spec.mode == QueryMode::kKnnStream) {
    core::PagedDistanceBrowser browser(tree, spec.point, spec.k,
                                       engine_->num_disks());
    exec::TraversalOptions topts;
    topts.algo_name = "browse";
    topts.deadline_s = remaining;
    topts.control = &q->control_;
    topts.on_step = [&] {
      std::vector<core::Neighbor> stable = browser.TakeStable();
      size_t i = 0;
      while (i < stable.size()) {
        const size_t n = std::min(options_.max_chunk, stable.size() - i);
        std::vector<core::Neighbor> chunk(stable.begin() + i,
                                          stable.begin() + i + n);
        if (!q->PushChunk(std::move(chunk), options_.max_buffered_chunks)) {
          return;  // cancelled; the engine stops at the next boundary
        }
        i += n;
      }
    };
    out = engine_->RunTraversal(&browser, topts);
    if (out.status.ok()) topts.on_step();  // the final step's drain
  } else {  // kRange
    core::RangeQueryOptions ropts;
    ropts.max_activation = engine_->num_disks();
    core::ParallelRangeQuery range(
        tree, core::RangeRegion::Ball(spec.point, spec.radius), ropts);
    size_t delivered = 0;
    auto drain = [&] {
      const std::vector<rstar::ObjectId>& objs = range.objects();
      while (delivered < objs.size()) {
        const size_t n =
            std::min(options_.max_chunk, objs.size() - delivered);
        std::vector<core::Neighbor> chunk;
        chunk.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          chunk.push_back(core::Neighbor{objs[delivered + i], 0.0});
        }
        if (!q->PushChunk(std::move(chunk), options_.max_buffered_chunks)) {
          return;
        }
        delivered += n;
      }
    };
    exec::TraversalOptions topts;
    topts.algo_name = "range";
    topts.deadline_s = remaining;
    topts.control = &q->control_;
    topts.on_step = drain;
    out = engine_->RunTraversal(&range, topts);
    if (out.status.ok()) drain();
  }
  q->Finish(std::move(out));
}

}  // namespace sqp::server
