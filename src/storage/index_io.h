// Durable storage of a full parallel R*-tree index (docs/STORAGE.md).
//
// Layout per disk file (all units = the tree's page size):
//   page 0                superblock: config + root + counts + directory size
//   pages 1..dir_pages    directory: one record per node page in this file
//   remaining pages       one node per page (primary copies, then mirror
//                         replicas)
//
// Every page that the DiskAssigner placed on disk d is serialized into
// store disk d (replicas onto their mirror disk), so the byte layout
// mirrors the declustering assignment. Opening verifies magic, version and
// CRC32C of every page read, cross-checks the superblocks of all disks,
// re-derives parent pointers and runs the tree's full structural
// validation; any damage surfaces as a common::Status error (see
// page_format.h IsCorruption), never a crash or a silently wrong answer.

#ifndef SQP_STORAGE_INDEX_IO_H_
#define SQP_STORAGE_INDEX_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "parallel/parallel_tree.h"
#include "storage/page_store.h"

namespace sqp::storage {

// Knobs of the serialization pass.
struct SaveIndexOptions {
  // Hot-neighbor page placement: order each disk's node records so that
  // the children of one parent — the pages a traversal activates together
  // when it expands that parent — sit at adjacent file offsets, hottest
  // subtree (largest Entry.count) first. Offset-adjacent records merge
  // into a single pread on the batched read path (PlanReadRuns), so the
  // layout raises pages-per-media-read without changing a single answer:
  // only the record order inside each file moves, never which disk a page
  // lives on. Off = legacy order (tree allocation order per disk).
  bool hot_neighbor_placement = true;
};

// Serializes `index` into `store`, replacing its contents. The store must
// have exactly index.num_disks() disks. InvalidArgument when the tree's
// config can build a node larger than one page (node_codec.h
// CheckOneNodePerPage): supernodes, or a fanout floor above the page.
common::Status SaveIndex(const parallel::ParallelRStarTree& index,
                         PageStore* store);
common::Status SaveIndex(const parallel::ParallelRStarTree& index,
                         PageStore* store, const SaveIndexOptions& options);

// Deserializes an index previously written by SaveIndex. The returned
// in-memory index answers queries, and its declustering map (disk, mirror,
// cylinder per page) is identical to the saved one, so simulated
// page-access counts match the original exactly. Inserts and deletes on it
// mutate only the in-memory tree; for mutations that survive a crash,
// open the image through MutableIndex (mutable_index.h), which routes them
// through the write-ahead log and copy-on-write page path.
common::Result<std::unique_ptr<parallel::ParallelRStarTree>> OpenIndex(
    const PageStore& store);

// Where one node lives on the array: the page starting at byte `offset` of
// `disk`'s file. `live` is false for a PageId with no node (a free slot).
// `mirror` / `cylinder` carry the declustering placement so a recovered
// layout can rebuild the DiskAssigner without the base tree.
struct PageLocation {
  int disk = -1;
  uint64_t offset = 0;
  bool live = false;
  uint8_t level = 0;
  int32_t mirror = -1;    // mirror disk, -1 when unmirrored
  uint32_t cylinder = 0;  // cylinder of the primary copy
};

// Stable identity of a physical node record: (disk, byte offset) packed
// into one word. PageIds are reused after a delete (the tree keeps a free
// list) and copy-on-write moves a surviving PageId to fresh bytes, so
// caches and read-coalescers key on the *location* — two versions of the
// same PageId never share a key, and a key's bytes never change while any
// snapshot can reach them.
inline uint64_t PageLocationKey(const PageLocation& loc) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(loc.disk)) << 48) |
         (loc.offset & ((uint64_t{1} << 48) - 1));
}

// The metadata needed to serve queries straight from a PageStore without
// materializing the tree: configuration, root, and the page -> location
// directory (primary copies only; mirror replicas are recovery copies).
// This is what the real execution engine (src/exec/) fetches through —
// node bytes are read and checksum-verified per access, not up front.
struct IndexLayout {
  rstar::TreeConfig tree_config;
  parallel::DeclusterConfig decluster;
  rstar::PageId root = rstar::kInvalidPage;
  uint64_t object_count = 0;
  uint64_t live_pages = 0;
  uint32_t page_size = 0;
  std::vector<PageLocation> pages;  // indexed by PageId

  bool IsLive(rstar::PageId id) const {
    return id < pages.size() && pages[id].live;
  }
};

// Reads and cross-checks the superblocks and directories of every disk.
// Node records themselves are not touched (and so not yet verified).
common::Result<IndexLayout> ReadIndexLayout(const PageStore& store);

// Convenience wrappers over FilePageStore: one backing file per disk in
// directory `dir` (created if absent).
common::Status SaveIndexToDir(const parallel::ParallelRStarTree& index,
                              const std::string& dir);
common::Result<std::unique_ptr<parallel::ParallelRStarTree>> OpenIndexFromDir(
    const std::string& dir);

}  // namespace sqp::storage

#endif  // SQP_STORAGE_INDEX_IO_H_
