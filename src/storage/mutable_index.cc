#include "storage/mutable_index.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "storage/node_codec.h"
#include "storage/page_format.h"

namespace sqp::storage {
namespace {

using parallel::PagePlacement;
using parallel::ParallelRStarTree;
using rstar::Node;
using rstar::PageId;

// Collects every page an operation dirtied, allocated or freed. The net
// effect is resolved afterwards against the live tree (a page allocated
// and freed within one op needs no durable trace at all).
class TouchedSetRecorder : public rstar::MutationRecorder {
 public:
  void OnNodeDirtied(PageId id) override { touched_.insert(id); }
  void OnNodeAllocated(PageId id) override { touched_.insert(id); }
  void OnNodeFreed(PageId id) override { touched_.insert(id); }

  std::vector<PageId> Sorted() const {
    std::vector<PageId> out(touched_.begin(), touched_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::unordered_set<PageId> touched_;
};

// Applies one commit record's deltas to `layout` (page map, root, object
// count, live-page total). Shared by recovery and the post-commit
// snapshot swap.
void ApplyCommit(const WalCommit& commit, IndexLayout* layout) {
  for (const WalPageDelta& d : commit.deltas) {
    if (d.page >= layout->pages.size()) {
      layout->pages.resize(d.page + 1);
    }
    PageLocation& slot = layout->pages[d.page];
    if (slot.live && !d.loc.live) --layout->live_pages;
    if (!slot.live && d.loc.live) ++layout->live_pages;
    slot = d.loc.live ? d.loc : PageLocation{};
  }
  layout->root = commit.root;
  layout->object_count = commit.object_count;
}

bool PolicyEnabled(const CompactionPolicy& p) {
  return p.max_wal_bytes > 0 || p.max_wal_records > 0;
}

}  // namespace

common::Result<std::unique_ptr<MutableIndex>> MutableIndex::Open(
    GenerationEnv* env) {
  SQP_CHECK(env != nullptr);
  auto current = env->ReadCurrent();
  if (!current.ok()) return current.status();
  auto stores = env->OpenGeneration(*current);
  if (!stores.ok()) return stores.status();
  PageStore* data_store = stores->data;
  PageStore* wal_store = stores->wal;

  auto scan = ScanWal(*wal_store, /*disk=*/0);
  if (!scan.ok()) return scan.status();

  auto layout_or = ReadIndexLayout(*data_store);
  if (!layout_or.ok()) return layout_or.status();
  IndexLayout layout = std::move(*layout_or);
  for (const WalCommit& commit : scan->records) {
    ApplyCommit(commit, &layout);
  }
  if (!layout.IsLive(layout.root)) {
    return CorruptionError("recovered root page " +
                           std::to_string(layout.root) + " is not live");
  }

  // Rebuild the in-memory tree from the recovered page map, re-reading
  // and checksum-verifying every live node (base image or WAL-referenced
  // copy-on-write version alike).
  const int dim = layout.tree_config.dim;
  const size_t page_size = layout.page_size;
  std::vector<std::unique_ptr<Node>> nodes(layout.pages.size());
  std::vector<PagePlacement> placements;
  std::vector<uint8_t> buf(page_size);
  for (PageId id = 0; id < layout.pages.size(); ++id) {
    const PageLocation& loc = layout.pages[id];
    if (!loc.live) continue;
    SQP_RETURN_IF_ERROR(
        data_store->ReadAt(loc.disk, loc.offset, buf.data(), buf.size()));
    auto decoded = DecodeNode(buf.data(), dim, page_size, id,
                              "recovered page " + std::to_string(id));
    if (!decoded.ok()) return decoded.status();
    nodes[id] = std::make_unique<Node>(std::move(*decoded));
    PagePlacement pl;
    pl.page = id;
    pl.disk = loc.disk;
    pl.mirror = loc.mirror;
    pl.cylinder = static_cast<int>(loc.cylinder);
    placements.push_back(pl);
  }

  auto index = std::make_unique<ParallelRStarTree>(layout.tree_config,
                                                   layout.decluster);
  SQP_RETURN_IF_ERROR(index->Restore(layout.root, layout.object_count,
                                     std::move(nodes), placements));

  auto mi = std::unique_ptr<MutableIndex>(new MutableIndex());
  mi->env_ = env;
  mi->gen_stores_ = std::move(*stores);
  mi->generation_ = *current;
  mi->data_store_ = data_store;
  mi->wal_store_ = wal_store;
  mi->facade_.SetTarget(data_store);
  mi->index_ = std::move(index);
  mi->wal_ = std::make_unique<WalWriter>(wal_store, /*disk=*/0,
                                         scan->next_lsn,
                                         scan->valid_end_offset);
  mi->tails_.resize(static_cast<size_t>(data_store->num_disks()));
  for (int d = 0; d < data_store->num_disks(); ++d) {
    auto size = data_store->SizeOf(d);
    if (!size.ok()) return size.status();
    mi->tails_[static_cast<size_t>(d)] = *size;
  }
  mi->layout_ = std::make_shared<const IndexLayout>(std::move(layout));
  mi->recovery_.replayed = scan->records.size();
  mi->recovery_.torn_tail_dropped = scan->torn_tail ? 1 : 0;
  mi->recovery_.wal_records =
      mi->recovery_.replayed + mi->recovery_.torn_tail_dropped;
  mi->recovery_.generation = *current;

  // Garbage-collect orphans: generations a crashed (or interrupted)
  // checkpoint wrote aside but never published, or published-over bytes
  // whose removal didn't complete. Best-effort — a survivor is collected
  // by the next open.
  auto listed = env->ListGenerations();
  if (listed.ok()) {
    for (uint64_t g : *listed) {
      if (g == *current) continue;
      if (env->RemoveGeneration(g).ok()) {
        ++mi->recovery_.orphan_generations_removed;
      }
    }
  }
  return mi;
}

common::Result<std::unique_ptr<MutableIndex>> MutableIndex::OpenFromDir(
    const std::string& dir) {
  auto lock = LockFile::Acquire(dir + "/LOCK");
  if (!lock.ok()) return lock.status();
  auto env = std::make_unique<FileGenerationEnv>(dir);
  auto mi = Open(env.get());
  if (!mi.ok()) return mi.status();
  (*mi)->owned_env_ = std::move(env);
  (*mi)->lock_ = std::move(*lock);
  return mi;
}

MutableIndex::~MutableIndex() { StopCompaction(); }

common::Status MutableIndex::Insert(const geometry::Point& p,
                                    rstar::ObjectId id) {
  return Mutate(p, id, /*insert=*/true);
}

common::Status MutableIndex::Delete(const geometry::Point& p,
                                    rstar::ObjectId id) {
  return Mutate(p, id, /*insert=*/false);
}

common::Status MutableIndex::Mutate(const geometry::Point& p,
                                    rstar::ObjectId id, bool insert) {
  bool kick = false;
  {
    std::unique_lock<std::shared_mutex> lock(rw_mu_);
    if (failed_) {
      return common::Status::FailedPrecondition(
          "index poisoned by an earlier commit failure; reopen to recover");
    }
    TouchedSetRecorder recorder;
    rstar::RStarTree& tree = index_->tree();
    tree.SetMutationRecorder(&recorder);
    common::Status op_status;
    if (insert) {
      tree.Insert(p, id);
    } else {
      op_status = tree.Delete(p, id);
    }
    tree.SetMutationRecorder(nullptr);
    if (!op_status.ok()) return op_status;  // e.g. NotFound: tree untouched
    SQP_RETURN_IF_ERROR(CommitLocked(recorder.Sorted()));
    kick = true;
  }
  if (kick) {
    std::lock_guard<std::mutex> lk(compact_mu_);
    if (compact_thread_.joinable()) {
      compact_kick_ = true;
      compact_cv_.notify_one();
    }
  }
  return common::Status::OK();
}

common::Status MutableIndex::CommitLocked(
    const std::vector<rstar::PageId>& touched) {
  const IndexLayout& cur = *layout_;
  const int dim = cur.tree_config.dim;
  const size_t page_size = cur.page_size;

  WalCommit commit;
  commit.root = index_->tree().root();
  commit.object_count = index_->tree().size();
  std::vector<uint64_t> superseded;
  std::vector<uint8_t> buf;
  common::Status io;
  uint64_t pages_written = 0;
  for (PageId id : touched) {
    const PageLocation* old = nullptr;
    if (cur.IsLive(id)) old = &cur.pages[id];
    WalPageDelta delta;
    delta.page = id;
    if (index_->placement().IsLive(id)) {
      // Copy-on-write: the node's new bytes go to its disk's file tail;
      // the base image and every older version stay byte-identical.
      const Node& n = index_->tree().node(id);
      const int disk = index_->placement().DiskOf(id);
      const int mirror = index_->placement().MirrorOf(id);
      buf.clear();
      EncodeNode(n, dim, page_size, &buf);
      delta.loc.disk = disk;
      delta.loc.offset = tails_[static_cast<size_t>(disk)];
      delta.loc.live = true;
      delta.loc.level = static_cast<uint8_t>(n.level);
      delta.loc.mirror = mirror;
      delta.loc.cylinder =
          static_cast<uint32_t>(index_->placement().CylinderOf(id));
      io = data_store_->WriteAt(disk, delta.loc.offset, buf.data(),
                                buf.size());
      if (!io.ok()) break;
      tails_[static_cast<size_t>(disk)] += buf.size();
      ++pages_written;
      if (mirror >= 0) {
        // Replica bytes ride along on the mirror disk's tail. Like the
        // base image's replicas they are untracked recovery copies — the
        // page map records primaries only.
        io = data_store_->WriteAt(mirror,
                                  tails_[static_cast<size_t>(mirror)],
                                  buf.data(), buf.size());
        if (!io.ok()) break;
        tails_[static_cast<size_t>(mirror)] += buf.size();
      }
    } else if (old == nullptr) {
      continue;  // created and freed within this op: no durable trace
    }
    // else: freed page, delta.loc stays !live
    if (old != nullptr) superseded.push_back(PageLocationKey(*old));
    commit.deltas.push_back(std::move(delta));
  }
  if (io.ok() && !commit.deltas.empty()) io = data_store_->Sync();
  if (io.ok() && !commit.deltas.empty()) io = wal_->AppendCommit(&commit);
  if (!io.ok()) {
    // The in-memory tree is ahead of durable state — poison the index so
    // the divergence can never be observed or widened. The on-disk bytes
    // (partial copy-on-write pages, a torn WAL tail) recover to the last
    // durable commit, exactly as after a power cut.
    failed_ = true;
    return io;
  }
  if (commit.deltas.empty()) return common::Status::OK();

  ++commits_;
  ++commits_since_checkpoint_;
  cow_pages_ += pages_written;
  if (m_wal_records_ != nullptr) {
    m_wal_records_->Increment();
    m_applied_->Increment();
    m_cow_pages_->Add(pages_written);
  }

  auto next = std::make_shared<IndexLayout>(*layout_);
  ApplyCommit(commit, next.get());
  layout_ = std::move(next);
  if (commit_cb_) commit_cb_(superseded, /*full_invalidate=*/false);
  return common::Status::OK();
}

common::Status MutableIndex::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(rw_mu_);
  return CheckpointLocked(lock);
}

common::Status MutableIndex::CheckpointLocked(
    std::unique_lock<std::shared_mutex>& lock) {
  SQP_DCHECK(lock.owns_lock());
  (void)lock;
  if (failed_) {
    return common::Status::FailedPrecondition(
        "index poisoned by an earlier commit failure; reopen to recover");
  }
  // New traversals cannot start (we hold the writer lock); wait out the
  // ones already running off the current snapshot — after the flip the
  // facade points at the new generation and the old one's bytes go away.
  gate_.Advance();
  gate_.WaitForDrain();

  const uint64_t old_gen = generation_;
  const uint64_t next_gen = generation_ + 1;
  const uint64_t wal_bytes_before = wal_->tail_offset();

  // Write-aside: fold the live tree into a brand-new generation. Nothing
  // here touches the current generation, so any failure up to the flip
  // is a clean abort — drop the half-written generation and keep going.
  auto fresh = env_->CreateGeneration(next_gen, index_->num_disks());
  if (!fresh.ok()) {
    (void)env_->RemoveGeneration(next_gen);
    return fresh.status();
  }
  common::Status s = SaveIndex(*index_, fresh->data);
  if (!s.ok()) {
    fresh->owned.clear();
    (void)env_->RemoveGeneration(next_gen);
    return s;
  }

  // The flip. On error the pointer may or may not have landed (a sync
  // can fail after the bytes reached media) — re-read it to find out.
  s = env_->PublishCurrent(next_gen);
  if (!s.ok()) {
    auto cur = env_->ReadCurrent();
    if (!cur.ok()) {
      // Cannot even tell which generation is current: the index's view
      // may diverge from disk, so stop serving.
      failed_ = true;
      return cur.status();
    }
    if (*cur != next_gen) {
      fresh->owned.clear();
      (void)env_->RemoveGeneration(next_gen);
      return s;  // clean abort: still on the old generation, un-poisoned
    }
    // The flip landed despite the error; proceed as a success.
  }

  // Committed. Everything from here must leave the index consistent with
  // the new generation or poison it.
  auto relayout = ReadIndexLayout(*fresh->data);
  if (!relayout.ok()) {
    failed_ = true;
    return relayout.status();
  }
  GenerationStores old_stores = std::move(gen_stores_);
  gen_stores_ = std::move(*fresh);
  data_store_ = gen_stores_.data;
  wal_store_ = gen_stores_.wal;
  facade_.SetTarget(data_store_);
  // The new generation carries its own, empty log — the flip atomically
  // discarded every folded record with the old generation.
  wal_ = std::make_unique<WalWriter>(wal_store_, /*disk=*/0, /*next_lsn=*/1,
                                     /*tail_offset=*/0);
  tails_.assign(static_cast<size_t>(data_store_->num_disks()), 0);
  for (int d = 0; d < data_store_->num_disks(); ++d) {
    auto size = data_store_->SizeOf(d);
    if (!size.ok()) {
      failed_ = true;
      return size.status();
    }
    tails_[static_cast<size_t>(d)] = *size;
  }
  layout_ = std::make_shared<const IndexLayout>(std::move(*relayout));
  generation_ = next_gen;
  wal_bytes_reclaimed_ += wal_bytes_before;
  commits_since_checkpoint_ = 0;
  last_checkpoint_ = std::chrono::steady_clock::now();
  ++checkpoints_;
  if (m_checkpoints_ != nullptr) m_checkpoints_->Increment();

  // Reclaim the old generation. Failure just leaves an orphan for the
  // next open's garbage collection — never poisons.
  old_stores.owned.clear();  // close descriptors before removing files
  (void)env_->RemoveGeneration(old_gen);

  if (commit_cb_) commit_cb_({}, /*full_invalidate=*/true);
  return common::Status::OK();
}

void MutableIndex::StartCompaction(const CompactionPolicy& policy) {
  if (!PolicyEnabled(policy)) {
    StopCompaction();
    return;
  }
  std::unique_lock<std::mutex> lk(compact_mu_);
  compact_policy_ = policy;
  if (!compact_thread_.joinable()) {
    compact_stop_ = false;
    compact_kick_ = false;
    compact_thread_ = std::thread([this] { CompactionLoop(); });
  } else {
    compact_kick_ = true;
    compact_cv_.notify_one();
  }
}

void MutableIndex::StopCompaction() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lk(compact_mu_);
    if (!compact_thread_.joinable()) return;
    compact_stop_ = true;
    compact_cv_.notify_one();
    t = std::move(compact_thread_);
  }
  t.join();
  std::lock_guard<std::mutex> lk(compact_mu_);
  compact_stop_ = false;
}

void MutableIndex::CompactionLoop() {
  std::unique_lock<std::mutex> lk(compact_mu_);
  while (!compact_stop_) {
    // The periodic tick re-evaluates min_interval deferrals; commits set
    // the kick so a bursty writer is checked without waiting a full tick.
    compact_cv_.wait_for(lk, std::chrono::milliseconds(200),
                         [this] { return compact_stop_ || compact_kick_; });
    if (compact_stop_) break;
    compact_kick_ = false;
    CompactionPolicy policy = compact_policy_;
    lk.unlock();
    {
      bool due = false;
      {
        std::shared_lock<std::shared_mutex> rl(rw_mu_);
        if (!failed_) {
          const uint64_t bytes = wal_->tail_offset();
          const uint64_t records = commits_since_checkpoint_;
          due = (policy.max_wal_bytes > 0 && bytes > policy.max_wal_bytes) ||
                (policy.max_wal_records > 0 &&
                 records >= policy.max_wal_records);
          if (due && policy.min_interval_s > 0) {
            const auto since =
                std::chrono::steady_clock::now() - last_checkpoint_;
            due = std::chrono::duration<double>(since).count() >=
                  policy.min_interval_s;
          }
        }
      }
      if (due) {
        std::unique_lock<std::shared_mutex> wl(rw_mu_);
        // Re-check under the writer lock: an explicit checkpoint (or a
        // poisoning failure) may have raced the evaluation above.
        const bool still_due =
            !failed_ &&
            ((policy.max_wal_bytes > 0 &&
              wal_->tail_offset() > policy.max_wal_bytes) ||
             (policy.max_wal_records > 0 &&
              commits_since_checkpoint_ >= policy.max_wal_records));
        if (still_due) {
          common::Status s = CheckpointLocked(wl);
          if (s.ok()) {
            ++auto_checkpoints_;
          } else {
            std::fprintf(stderr, "background compaction failed: %s\n",
                         s.ToString().c_str());
          }
        }
      }
    }
    lk.lock();
  }
}

MutationStats MutableIndex::mutation_stats() const {
  std::shared_lock<std::shared_mutex> lock(rw_mu_);
  MutationStats out;
  out.commits = commits_;
  out.cow_pages = cow_pages_;
  out.checkpoints = checkpoints_;
  out.auto_checkpoints = auto_checkpoints_;
  out.generation = generation_;
  out.wal_bytes = wal_ != nullptr ? wal_->tail_offset() : 0;
  out.wal_bytes_reclaimed = wal_bytes_reclaimed_;
  return out;
}

void MutableIndex::EnableMetrics(obs::MetricsRegistry* registry) {
  m_wal_records_ = registry->GetCounter("sqp_wal_records_total");
  m_applied_ = registry->GetCounter("sqp_wal_applied_total");
  m_replayed_ = registry->GetCounter("sqp_wal_replayed_total");
  m_torn_dropped_ = registry->GetCounter("sqp_wal_torn_tail_dropped_total");
  m_cow_pages_ = registry->GetCounter("sqp_cow_pages_total");
  m_checkpoints_ = registry->GetCounter("sqp_checkpoints_total");
  // Seed with what recovery found so the conservation identity
  //   wal_records == applied + replayed + torn_tail_dropped
  // holds from the first scrape.
  m_wal_records_->Add(recovery_.wal_records);
  m_replayed_->Add(recovery_.replayed);
  m_torn_dropped_->Add(recovery_.torn_tail_dropped);
  m_wal_records_->Add(commits_);
  m_applied_->Add(commits_);
  m_cow_pages_->Add(cow_pages_);
  m_checkpoints_->Add(checkpoints_);
}

}  // namespace sqp::storage
