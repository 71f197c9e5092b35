// Sharded LRU cache of decoded tree nodes, shared by all concurrent
// queries of the real execution engine.
//
// This is the wall-clock analogue of sim/buffer_pool.h: where the
// simulator's pool only decides whether a virtual-time I/O is charged,
// this cache holds nodes read from a storage::PageStore and already
// converted to the SoA FlatNode layout (so a page is decoded and
// flattened once per residency, not once per visit), and its lock
// sharding is what keeps dozens of query threads from serializing on one
// mutex. Entries are pinned while a query is processing them, so eviction
// can never free a node out from under an OnPagesFetched callback. One
// frame holds one node, which is one disk page, so capacity is a frame
// count.
//
// Keys are PHYSICAL LOCATIONS, not PageIds. The tree reuses PageIds after
// a delete and the durable write path (storage::MutableIndex) moves a
// surviving PageId to fresh bytes on every commit, so the stable identity
// of a cached frame is storage::PageLocationKey(loc) — (disk, offset)
// packed into one uint64_t. Two versions of one PageId never share a key,
// and a key's bytes never change while any query snapshot can reach them,
// which is what makes a hit unconditionally safe under concurrent
// mutation. (Against an immutable store, PageIds passed as keys work
// unchanged — they are just one particular stable 64-bit naming.)
//
// Invalidate() retires keys superseded by a commit; a pinned frame is only
// marked dying (in-flight readers of an older snapshot finish against it)
// and reclaimed on its last Unpin. Dying frames are invisible to every
// lookup path.

#ifndef SQP_EXEC_PAGE_CACHE_H_
#define SQP_EXEC_PAGE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/flat_node.h"
#include "obs/metrics.h"
#include "rstar/types.h"

namespace sqp::exec {

// The exec layer stores and serves the core layer's SoA node form.
using FlatNode = core::FlatNode;

struct PageCacheOptions {
  // Total capacity in frames (one node, one disk page each), split evenly
  // across shards. Pinned entries may transiently push a shard past its
  // share (they are never evicted), so this is a target, not a hard
  // ceiling.
  size_t capacity_pages = 4096;
  // Power of two recommended. One mutex + LRU list per shard.
  int shards = 16;
};

struct PageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t resident_pages = 0;
  // Frames retired by Invalidate()/InvalidateAll() — erased outright, or
  // marked dying and erased on their last Unpin.
  uint64_t invalidations = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

class ShardedPageCache {
 public:
  // With a non-null `metrics`, the cache reports sqp_cache_hits_total,
  // sqp_cache_misses_total, sqp_cache_insertions_total,
  // sqp_cache_evictions_total, sqp_cache_pinned_skips_total (eviction
  // scans that stepped over a pinned frame) and the
  // sqp_cache_resident_pages gauge.
  explicit ShardedPageCache(const PageCacheOptions& options,
                            obs::MetricsRegistry* metrics = nullptr);

  ShardedPageCache(const ShardedPageCache&) = delete;
  ShardedPageCache& operator=(const ShardedPageCache&) = delete;

  // If `key` is resident: pins it, moves it to MRU, and returns the node
  // (stable until the matching Unpin). Returns nullptr on a miss.
  const FlatNode* LookupPinned(uint64_t key);

  // Like LookupPinned, but does not touch the hit/miss statistics. Used
  // for the re-probes of read coalescing: the miss was already counted
  // when the query thread looked the page up, so counting the probe
  // would double-book the request.
  const FlatNode* ProbePinned(uint64_t key);

  // Makes `key` resident with the given decoded contents and returns it
  // pinned. If another thread inserted `key` first, the existing entry wins
  // (the engine may decode the same missed page twice under contention)
  // and `node` is discarded.
  const FlatNode* InsertPinned(uint64_t key, FlatNode node);

  // Releases one pin taken by LookupPinned/InsertPinned.
  void Unpin(uint64_t key);

  // Retires the frames under `keys` (a commit superseded their bytes in
  // the newest snapshot). Unpinned frames are erased outright; pinned
  // frames are marked dying — invisible to all lookups from now on,
  // reclaimed on their last Unpin. Keys not resident are ignored.
  void Invalidate(std::span<const uint64_t> keys);

  // Retires every frame (a checkpoint rewrote the base image, so any
  // (disk, offset) key may now name different bytes). Same pin-safe
  // semantics as Invalidate.
  void InvalidateAll();

  // Aggregated over all shards (each shard counts under its own lock).
  PageCacheStats GetStats() const;

  // Frames currently pinned by at least one in-flight query. Zero when
  // the engine is quiescent — the invariant the cancellation tests assert
  // (a cancelled or deadline-expired query must leave no pin behind).
  size_t PinnedFrames() const;

  size_t capacity_pages() const { return capacity_pages_; }
  int shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Frame {
    FlatNode node;
    int pins = 0;
    // Invalidated while pinned; erased on the last Unpin, hidden from
    // every lookup until then.
    bool dying = false;
    std::list<uint64_t>::iterator lru_pos;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Frame> frames;
    std::list<uint64_t> lru;  // front = MRU
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  Shard& ShardFor(uint64_t key) {
    return shards_[static_cast<size_t>(key) % shards_.size()];
  }

  const Shard& ShardFor(uint64_t key) const {
    return shards_[static_cast<size_t>(key) % shards_.size()];
  }

  // Evicts unpinned LRU entries of `shard` until it fits its share.
  // Caller holds shard.mu.
  void EvictLocked(Shard& shard);

  // Retires one resident frame (erase now, or mark dying if pinned).
  // Caller holds shard.mu; `it` must be valid.
  void InvalidateOneLocked(Shard& shard,
                           std::unordered_map<uint64_t, Frame>::iterator it);

  // Removes `it`'s frame from the shard's bookkeeping and map. Caller
  // holds shard.mu; the frame must be unpinned.
  void EraseFrameLocked(Shard& shard,
                        std::unordered_map<uint64_t, Frame>::iterator it);

  size_t capacity_pages_;
  size_t shard_capacity_;
  std::vector<Shard> shards_;

  // Registry instruments; all null when unmetered.
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_insertions_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_pinned_skips_ = nullptr;
  obs::Gauge* m_resident_ = nullptr;
};

}  // namespace sqp::exec

#endif  // SQP_EXEC_PAGE_CACHE_H_
