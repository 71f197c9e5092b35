#include "storage/index_io.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "storage/node_codec.h"
#include "storage/page_format.h"

namespace sqp::storage {
namespace {

using parallel::DeclusterConfig;
using parallel::DeclusterPolicy;
using parallel::PagePlacement;
using parallel::ParallelRStarTree;
using rstar::Node;
using rstar::PageId;
using rstar::TreeConfig;

// Superblock payload layout (offsets from the start of the page). The
// fields needed to bootstrap a reader — page size and disk count — sit
// first so they can be parsed from a fixed-size prefix before the page
// size is known.
constexpr size_t kSbPageSize = 40;
constexpr size_t kSbNumDisks = 44;
constexpr size_t kSbDiskIndex = 48;
constexpr size_t kSbDim = 52;
constexpr size_t kSbMaxEntriesOverride = 56;
constexpr size_t kSbPageSlots = 60;
constexpr size_t kSbRoot = 64;
constexpr size_t kSbDirPageCount = 68;
constexpr size_t kSbObjectCount = 72;
constexpr size_t kSbLivePages = 80;
constexpr size_t kSbMinFill = 88;
constexpr size_t kSbReinsert = 96;
constexpr size_t kSbSupernodeOverlap = 104;
constexpr size_t kSbProximityQuerySide = 112;
constexpr size_t kSbSeed = 120;
constexpr size_t kSbNumCylinders = 128;
constexpr size_t kSbMaxSupernodePages = 132;
constexpr size_t kSbPolicy = 136;
constexpr size_t kSbForcedReinsert = 137;
constexpr size_t kSbAllowSupernodes = 138;
constexpr size_t kSbMirrored = 139;

// The bootstrap prefix must reach kSbNumDisks + 4.
constexpr size_t kBootstrapBytes = 64;

// Directory record layout (18 bytes).
constexpr size_t kDirPageId = 0;
constexpr size_t kDirLocalIndex = 4;
constexpr size_t kDirCylinder = 8;
constexpr size_t kDirMirror = 12;
constexpr size_t kDirFlags = 16;
constexpr size_t kDirLevel = 17;
constexpr size_t kDirRecordBytes = 18;
constexpr uint8_t kDirFlagReplica = 1;

size_t DirRecordsPerPage(size_t page_size) {
  return (page_size - kPageHeaderBytes) / kDirRecordBytes;
}

std::string DiskTag(int disk) { return "disk " + std::to_string(disk); }

// Everything the superblock carries.
struct Superblock {
  TreeConfig tree;
  DeclusterConfig decluster;
  uint32_t page_size = 0;
  uint32_t disk_index = 0;
  uint32_t page_slots = 0;
  PageId root = rstar::kInvalidPage;
  uint32_t dir_page_count = 0;
  uint64_t object_count = 0;
  uint64_t live_pages = 0;
};

void EncodeSuperblock(const Superblock& sb, uint8_t* page) {
  PageHeader h;
  h.type = PageType::kSuperblock;
  WritePageHeader(h, page);
  PutU32(page + kSbPageSize, sb.page_size);
  PutU32(page + kSbNumDisks,
         static_cast<uint32_t>(sb.decluster.num_disks));
  PutU32(page + kSbDiskIndex, sb.disk_index);
  PutU32(page + kSbDim, static_cast<uint32_t>(sb.tree.dim));
  PutU32(page + kSbMaxEntriesOverride,
         static_cast<uint32_t>(sb.tree.max_entries_override));
  PutU32(page + kSbPageSlots, sb.page_slots);
  PutU32(page + kSbRoot, sb.root);
  PutU32(page + kSbDirPageCount, sb.dir_page_count);
  PutU64(page + kSbObjectCount, sb.object_count);
  PutU64(page + kSbLivePages, sb.live_pages);
  PutF64(page + kSbMinFill, sb.tree.min_fill_fraction);
  PutF64(page + kSbReinsert, sb.tree.reinsert_fraction);
  PutF64(page + kSbSupernodeOverlap, sb.tree.supernode_overlap_threshold);
  PutF64(page + kSbProximityQuerySide, sb.decluster.proximity_query_side);
  PutU64(page + kSbSeed, sb.decluster.seed);
  PutU32(page + kSbNumCylinders,
         static_cast<uint32_t>(sb.decluster.num_cylinders));
  PutU32(page + kSbMaxSupernodePages,
         static_cast<uint32_t>(sb.tree.max_supernode_pages));
  page[kSbPolicy] = static_cast<uint8_t>(sb.decluster.policy);
  page[kSbForcedReinsert] = sb.tree.forced_reinsert ? 1 : 0;
  page[kSbAllowSupernodes] = sb.tree.allow_supernodes ? 1 : 0;
  page[kSbMirrored] = sb.decluster.mirrored ? 1 : 0;
  SealPage(page, sb.page_size);
}

// Parses a checksum-verified superblock page and soft-validates every
// field that TreeConfig::Validate()/DiskAssigner would otherwise enforce
// with a process-aborting CHECK, so a crafted-but-checksummed file still
// fails with a Status instead of a crash.
common::Status DecodeSuperblock(const uint8_t* page, size_t page_size,
                                const std::string& what, Superblock* sb) {
  sb->page_size = GetU32(page + kSbPageSize);
  if (sb->page_size != page_size) {
    return CorruptionError(what + ": page size field " +
                           std::to_string(sb->page_size) +
                           " does not match file layout");
  }
  sb->decluster.num_disks = static_cast<int>(GetU32(page + kSbNumDisks));
  sb->disk_index = GetU32(page + kSbDiskIndex);
  sb->tree.dim = static_cast<int>(GetU32(page + kSbDim));
  sb->tree.page_size_bytes = static_cast<int>(sb->page_size);
  sb->tree.max_entries_override =
      static_cast<int>(GetU32(page + kSbMaxEntriesOverride));
  sb->page_slots = GetU32(page + kSbPageSlots);
  sb->root = GetU32(page + kSbRoot);
  sb->dir_page_count = GetU32(page + kSbDirPageCount);
  sb->object_count = GetU64(page + kSbObjectCount);
  sb->live_pages = GetU64(page + kSbLivePages);
  sb->tree.min_fill_fraction = GetF64(page + kSbMinFill);
  sb->tree.reinsert_fraction = GetF64(page + kSbReinsert);
  sb->tree.supernode_overlap_threshold =
      GetF64(page + kSbSupernodeOverlap);
  sb->decluster.proximity_query_side =
      GetF64(page + kSbProximityQuerySide);
  sb->decluster.seed = GetU64(page + kSbSeed);
  sb->decluster.num_cylinders =
      static_cast<int>(GetU32(page + kSbNumCylinders));
  sb->tree.max_supernode_pages =
      static_cast<int>(GetU32(page + kSbMaxSupernodePages));
  sb->decluster.policy = static_cast<DeclusterPolicy>(page[kSbPolicy]);
  sb->tree.forced_reinsert = page[kSbForcedReinsert] != 0;
  sb->tree.allow_supernodes = page[kSbAllowSupernodes] != 0;
  sb->decluster.mirrored = page[kSbMirrored] != 0;

  const TreeConfig& t = sb->tree;
  const DeclusterConfig& d = sb->decluster;
  const bool config_ok =
      t.dim >= 1 && t.dim <= 4096 &&
      (t.max_entries_override == 0 || t.max_entries_override >= 4) &&
      t.min_fill_fraction > 0.0 && t.min_fill_fraction <= 0.5 &&
      t.reinsert_fraction > 0.0 && t.reinsert_fraction < 1.0 &&
      t.max_supernode_pages >= 1 &&
      t.supernode_overlap_threshold >= 0.0 &&
      t.supernode_overlap_threshold <= 1.0 && d.num_disks >= 1 &&
      d.num_cylinders >= 1 && (!d.mirrored || d.num_disks >= 2) &&
      page[kSbPolicy] <= static_cast<uint8_t>(DeclusterPolicy::kAreaBalance);
  if (!config_ok) {
    return CorruptionError(what + ": configuration fields out of range");
  }
  if (sb->page_size < 256) {
    return CorruptionError(what + ": page size too small");
  }
  if (common::Status fits = CheckOneNodePerPage(t); !fits.ok()) {
    return common::Status::InvalidArgument(what + ": " + fits.message());
  }
  if (sb->page_slots < 1 || sb->root >= sb->page_slots ||
      sb->live_pages < 1 || sb->live_pages > sb->page_slots) {
    return CorruptionError(what + ": tree shape fields out of range");
  }
  return common::Status::OK();
}

// Upper plausibility bound for the superblock's page_slots field, derived
// from the store's actual file sizes. Every live page occupies at least
// one page in some disk file, and our writer never leaves the id space
// more than modestly sparse; without this bound a crafted-but-checksummed
// superblock could demand a page_slots-sized allocation of tens of
// gigabytes before any directory record is read.
common::Result<uint64_t> MaxPlausiblePageSlots(const PageStore& store,
                                               size_t page_size) {
  uint64_t total_pages = 0;
  for (int d = 0; d < store.num_disks(); ++d) {
    auto size = store.SizeOf(d);
    if (!size.ok()) return size.status();
    total_pages += *size / page_size;
  }
  return 64 * total_pages + 1024;
}

common::Status CheckPageSlotsPlausible(const Superblock& sb,
                                       uint64_t max_slots,
                                       const std::string& what) {
  if (sb.page_slots > max_slots) {
    return CorruptionError(
        what + ": page_slots " + std::to_string(sb.page_slots) +
        " implausible for the store's file sizes (limit " +
        std::to_string(max_slots) + ")");
  }
  return common::Status::OK();
}

bool SuperblocksAgree(const Superblock& a, const Superblock& b) {
  return a.page_size == b.page_size && a.page_slots == b.page_slots &&
         a.root == b.root && a.object_count == b.object_count &&
         a.live_pages == b.live_pages && a.tree.dim == b.tree.dim &&
         a.tree.max_entries_override == b.tree.max_entries_override &&
         a.tree.min_fill_fraction == b.tree.min_fill_fraction &&
         a.tree.reinsert_fraction == b.tree.reinsert_fraction &&
         a.tree.forced_reinsert == b.tree.forced_reinsert &&
         a.tree.allow_supernodes == b.tree.allow_supernodes &&
         a.tree.supernode_overlap_threshold ==
             b.tree.supernode_overlap_threshold &&
         a.tree.max_supernode_pages == b.tree.max_supernode_pages &&
         a.decluster.num_disks == b.decluster.num_disks &&
         a.decluster.policy == b.decluster.policy &&
         a.decluster.proximity_query_side ==
             b.decluster.proximity_query_side &&
         a.decluster.num_cylinders == b.decluster.num_cylinders &&
         a.decluster.seed == b.decluster.seed &&
         a.decluster.mirrored == b.decluster.mirrored;
}

// One node page scheduled for a disk file.
struct RecordPlan {
  PageId page = rstar::kInvalidPage;
  uint32_t local_index = 0;  // filled in during layout
  int mirror = -1;
  int cylinder = 0;
  uint8_t level = 0;
  bool replica = false;
};

// A directory record parsed back from a disk file.
struct DirRecord {
  PageId page = rstar::kInvalidPage;
  uint32_t local_index = 0;
  uint32_t cylinder = 0;
  int32_t mirror = -1;
  uint8_t flags = 0;
  uint8_t level = 0;
};

// Reads exactly `len` bytes, mapping a short read to a corruption error
// (a well-formed index never points past the end of its own files).
common::Status ReadExact(const PageStore& store, int disk, uint64_t offset,
                         void* buf, size_t len, const std::string& what) {
  common::Status s = store.ReadAt(disk, offset, buf, len);
  if (s.code() == common::StatusCode::kOutOfRange) {
    return CorruptionError(what + ": file truncated (" + s.message() + ")");
  }
  return s;
}

// Reads disk `d`'s checksum-verified superblock into `sb` and its
// directory records into `records`. `page` is a page_size scratch buffer.
common::Status ReadDiskDirectory(const PageStore& store, int d,
                                 size_t page_size, uint8_t* page,
                                 Superblock* sb,
                                 std::vector<DirRecord>* records) {
  const std::string sb_tag = DiskTag(d) + " superblock";
  SQP_RETURN_IF_ERROR(ReadExact(store, d, 0, page, page_size, sb_tag));
  SQP_RETURN_IF_ERROR(
      CheckPage(page, page_size, PageType::kSuperblock, sb_tag));
  SQP_RETURN_IF_ERROR(DecodeSuperblock(page, page_size, sb_tag, sb));
  if (sb->disk_index != static_cast<uint32_t>(d)) {
    return CorruptionError(sb_tag + ": claims to be disk " +
                           std::to_string(sb->disk_index) +
                           " (files renamed or shuffled?)");
  }

  const size_t dir_per_page = DirRecordsPerPage(page_size);
  for (uint32_t p = 0; p < sb->dir_page_count; ++p) {
    const std::string dir_tag =
        DiskTag(d) + " directory page " + std::to_string(p);
    SQP_RETURN_IF_ERROR(
        ReadExact(store, d, (1 + p) * page_size, page, page_size, dir_tag));
    SQP_RETURN_IF_ERROR(
        CheckPage(page, page_size, PageType::kDirectory, dir_tag));
    // A directory page carries its position in the header's page id, so
    // a page out of place is caught.
    const PageHeader h = ReadPageHeader(page);
    if (h.page_id != p || h.entry_count > dir_per_page) {
      return CorruptionError(dir_tag + ": directory page out of place");
    }
    const uint8_t* rec = page + kPageHeaderBytes;
    for (uint32_t i = 0; i < h.entry_count; ++i, rec += kDirRecordBytes) {
      DirRecord r;
      r.page = GetU32(rec + kDirPageId);
      r.local_index = GetU32(rec + kDirLocalIndex);
      r.cylinder = GetU32(rec + kDirCylinder);
      r.mirror = GetI32(rec + kDirMirror);
      r.flags = rec[kDirFlags];
      r.level = rec[kDirLevel];
      records->push_back(r);
    }
  }
  return common::Status::OK();
}

// Bootstraps the page size and disk count from disk 0's superblock prefix,
// validating magic and format version.
common::Status ReadBootstrap(const PageStore& store, size_t* page_size,
                             int* num_disks) {
  uint8_t prefix[kBootstrapBytes];
  SQP_RETURN_IF_ERROR(ReadExact(store, 0, 0, prefix, sizeof(prefix),
                                "disk 0 superblock"));
  if (GetU32(prefix) != kPageMagic) {
    return CorruptionError("disk 0 superblock: bad page magic (not an sqp "
                           "index file?)");
  }
  const uint16_t version = GetU16(prefix + 4);
  if (version != kFormatVersion) {
    return common::Status::InvalidArgument(
        "disk 0 superblock: unsupported format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kFormatVersion) +
        "; re-save the index with a matching build)");
  }
  const uint32_t page_size_u32 = GetU32(prefix + kSbPageSize);
  if (page_size_u32 < 256 || page_size_u32 > (1u << 24)) {
    return CorruptionError("disk 0 superblock: implausible page size " +
                           std::to_string(page_size_u32));
  }
  *page_size = page_size_u32;
  *num_disks = static_cast<int>(GetU32(prefix + kSbNumDisks));
  if (*num_disks != store.num_disks()) {
    return CorruptionError(
        "superblock names " + std::to_string(*num_disks) +
        " disks but the store has " + std::to_string(store.num_disks()) +
        " (missing or extra disk files?)");
  }
  return common::Status::OK();
}

// Emission ranks of the hot-neighbor placement (SaveIndexOptions). A
// breadth-first walk from the root emits every node's children as one
// consecutive run, ordered by descending subtree object count (Entry.count
// — derivable from the tree itself, no access trace needed), so after the
// per-disk sort a sibling group activated together by a traversal lands at
// adjacent offsets and merges into one pread. Pages not reachable from the
// root (none, in a valid tree) keep rank UINT32_MAX and sort last.
std::vector<uint32_t> HotNeighborRanks(const rstar::RStarTree& tree,
                                       PageId page_slots) {
  std::vector<uint32_t> rank(page_slots,
                             std::numeric_limits<uint32_t>::max());
  if (tree.root() == rstar::kInvalidPage || page_slots == 0) return rank;
  uint32_t next = 0;
  std::deque<PageId> queue = {tree.root()};
  std::vector<std::pair<uint32_t, PageId>> kids;
  while (!queue.empty()) {
    const PageId id = queue.front();
    queue.pop_front();
    if (id >= page_slots ||
        rank[id] != std::numeric_limits<uint32_t>::max()) {
      continue;
    }
    rank[id] = next++;
    const Node& n = tree.node(id);
    if (n.IsLeaf()) continue;
    kids.clear();
    for (const rstar::Entry& e : n.entries) {
      kids.emplace_back(e.count, e.child);
    }
    std::stable_sort(kids.begin(), kids.end(),
                     [](const std::pair<uint32_t, PageId>& a,
                        const std::pair<uint32_t, PageId>& b) {
                       return a.first > b.first;
                     });
    for (const auto& [weight, child] : kids) queue.push_back(child);
  }
  return rank;
}

}  // namespace

common::Status SaveIndex(const ParallelRStarTree& index, PageStore* store) {
  return SaveIndex(index, store, SaveIndexOptions{});
}

common::Status SaveIndex(const ParallelRStarTree& index, PageStore* store,
                         const SaveIndexOptions& options) {
  SQP_CHECK(store != nullptr);
  const rstar::RStarTree& tree = index.tree();
  const parallel::DiskAssigner& placement = index.placement();
  const TreeConfig& cfg = tree.config();
  SQP_RETURN_IF_ERROR(CheckOneNodePerPage(cfg));
  const size_t page_size = static_cast<size_t>(cfg.page_size_bytes);
  const int num_disks = index.num_disks();
  if (store->num_disks() != num_disks) {
    return common::Status::InvalidArgument(
        "store has " + std::to_string(store->num_disks()) +
        " disks, index needs " + std::to_string(num_disks));
  }

  // Plan: group node pages per disk — primaries where the assigner
  // placed them, replicas on their mirror disk.
  const std::vector<PageId> live = tree.LiveNodeIds();
  PageId page_slots = 0;
  for (PageId id : live) page_slots = std::max(page_slots, id + 1);
  std::vector<std::vector<RecordPlan>> plans(
      static_cast<size_t>(num_disks));
  for (PageId id : live) {
    const Node& n = tree.node(id);
    RecordPlan plan;
    plan.page = id;
    plan.mirror = placement.MirrorOf(id);
    plan.cylinder = placement.CylinderOf(id);
    plan.level = static_cast<uint8_t>(n.level);
    plans[static_cast<size_t>(placement.DiskOf(id))].push_back(plan);
    if (plan.mirror >= 0) {
      RecordPlan replica = plan;
      replica.replica = true;
      plans[static_cast<size_t>(plan.mirror)].push_back(replica);
    }
  }

  if (options.hot_neighbor_placement) {
    const std::vector<uint32_t> rank = HotNeighborRanks(tree, page_slots);
    for (std::vector<RecordPlan>& records : plans) {
      std::stable_sort(records.begin(), records.end(),
                       [&rank](const RecordPlan& a, const RecordPlan& b) {
                         if (a.replica != b.replica) return b.replica;
                         return rank[a.page] < rank[b.page];
                       });
    }
  }

  Superblock sb;
  sb.tree = cfg;
  sb.decluster = placement.config();
  sb.page_size = static_cast<uint32_t>(page_size);
  sb.page_slots = page_slots;
  sb.root = tree.root();
  sb.object_count = tree.size();
  sb.live_pages = live.size();

  const size_t dir_per_page = DirRecordsPerPage(page_size);
  for (int d = 0; d < num_disks; ++d) {
    std::vector<RecordPlan>& records = plans[static_cast<size_t>(d)];
    const uint32_t dir_pages = static_cast<uint32_t>(
        (records.size() + dir_per_page - 1) / dir_per_page);
    uint32_t next_page = 1 + dir_pages;
    for (RecordPlan& r : records) r.local_index = next_page++;

    std::vector<uint8_t> file;
    file.reserve(static_cast<size_t>(next_page) * page_size);
    // Superblock.
    file.resize(page_size, 0);
    sb.disk_index = static_cast<uint32_t>(d);
    sb.dir_page_count = dir_pages;
    EncodeSuperblock(sb, file.data());
    // Directory.
    for (uint32_t p = 0; p < dir_pages; ++p) {
      const size_t base = file.size();
      file.resize(base + page_size, 0);
      uint8_t* page = file.data() + base;
      const size_t first = static_cast<size_t>(p) * dir_per_page;
      const size_t count = std::min(dir_per_page, records.size() - first);
      PageHeader h;
      h.type = PageType::kDirectory;
      h.page_id = p;
      h.entry_count = static_cast<uint32_t>(count);
      WritePageHeader(h, page);
      uint8_t* rec = page + kPageHeaderBytes;
      for (size_t i = 0; i < count; ++i, rec += kDirRecordBytes) {
        const RecordPlan& r = records[first + i];
        PutU32(rec + kDirPageId, r.page);
        PutU32(rec + kDirLocalIndex, r.local_index);
        PutU32(rec + kDirCylinder, static_cast<uint32_t>(r.cylinder));
        PutI32(rec + kDirMirror, r.mirror);
        rec[kDirFlags] = r.replica ? kDirFlagReplica : 0;
        rec[kDirLevel] = r.level;
      }
      SealPage(page, page_size);
    }
    // Node pages.
    for (const RecordPlan& r : records) {
      SQP_DCHECK(file.size() ==
                 static_cast<size_t>(r.local_index) * page_size);
      EncodeNode(tree.node(r.page), cfg.dim, page_size, &file);
    }

    SQP_RETURN_IF_ERROR(store->Truncate(d));
    SQP_RETURN_IF_ERROR(store->WriteAt(d, 0, file.data(), file.size()));
  }
  return store->Sync();
}

common::Result<std::unique_ptr<ParallelRStarTree>> OpenIndex(
    const PageStore& store) {
  // Bootstrap: page size and disk count live at fixed offsets in disk 0's
  // superblock, readable before the page size is known.
  size_t page_size = 0;
  int num_disks = 0;
  SQP_RETURN_IF_ERROR(ReadBootstrap(store, &page_size, &num_disks));
  auto max_slots = MaxPlausiblePageSlots(store, page_size);
  if (!max_slots.ok()) return max_slots.status();

  Superblock ref;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<PagePlacement> placements;
  std::vector<uint8_t> page(page_size);
  for (int d = 0; d < num_disks; ++d) {
    Superblock sb;
    std::vector<DirRecord> records;
    SQP_RETURN_IF_ERROR(ReadDiskDirectory(store, d, page_size, page.data(),
                                          &sb, &records));
    SQP_RETURN_IF_ERROR(CheckPageSlotsPlausible(
        sb, *max_slots, DiskTag(d) + " superblock"));
    if (d == 0) {
      ref = sb;
      nodes.resize(ref.page_slots);
      placements.reserve(ref.live_pages);
    } else if (!SuperblocksAgree(ref, sb)) {
      return CorruptionError(DiskTag(d) + " superblock" +
                             ": disagrees with disk 0 (mixed index files?)");
    }

    // Node pages. Replicas are recovery copies; primaries are
    // authoritative, so only those are decoded here.
    for (const DirRecord& r : records) {
      if ((r.flags & kDirFlagReplica) != 0) continue;
      const std::string node_tag = DiskTag(d) + " node record for page " +
                                   std::to_string(r.page);
      if (r.local_index < 1 + sb.dir_page_count) {
        return CorruptionError(node_tag + ": bad directory record");
      }
      if (r.page >= ref.page_slots) {
        return CorruptionError(node_tag + ": page id out of range");
      }
      if (nodes[r.page] != nullptr) {
        return CorruptionError(node_tag + ": page stored twice");
      }
      SQP_RETURN_IF_ERROR(
          ReadExact(store, d, static_cast<uint64_t>(r.local_index) * page_size,
                    page.data(), page_size, node_tag));
      auto decoded = DecodeNode(page.data(), ref.tree.dim, page_size, r.page,
                                node_tag);
      if (!decoded.ok()) return decoded.status();
      if (decoded->level != r.level) {
        return CorruptionError(node_tag +
                               ": level disagrees with directory");
      }
      nodes[r.page] = std::make_unique<Node>(std::move(*decoded));
      PagePlacement pl;
      pl.page = r.page;
      pl.disk = d;
      pl.mirror = r.mirror;
      pl.cylinder = static_cast<int>(r.cylinder);
      placements.push_back(pl);
    }
  }

  if (placements.size() != ref.live_pages) {
    return CorruptionError(
        "index stores " + std::to_string(placements.size()) +
        " pages but superblock promises " + std::to_string(ref.live_pages));
  }
  if (ref.root >= nodes.size() || nodes[ref.root] == nullptr) {
    return CorruptionError("root page " + std::to_string(ref.root) +
                           " missing from index");
  }

  auto index =
      std::make_unique<ParallelRStarTree>(ref.tree, ref.decluster);
  common::Status restored = index->Restore(ref.root, ref.object_count,
                                           std::move(nodes), placements);
  if (!restored.ok()) {
    return CorruptionError("index fails structural validation: " +
                           restored.ToString());
  }
  return index;
}

common::Result<IndexLayout> ReadIndexLayout(const PageStore& store) {
  size_t page_size = 0;
  int num_disks = 0;
  SQP_RETURN_IF_ERROR(ReadBootstrap(store, &page_size, &num_disks));
  auto max_slots = MaxPlausiblePageSlots(store, page_size);
  if (!max_slots.ok()) return max_slots.status();

  IndexLayout layout;
  Superblock ref;
  std::vector<uint8_t> page(page_size);
  uint64_t live = 0;
  for (int d = 0; d < num_disks; ++d) {
    Superblock sb;
    std::vector<DirRecord> records;
    SQP_RETURN_IF_ERROR(ReadDiskDirectory(store, d, page_size, page.data(),
                                          &sb, &records));
    SQP_RETURN_IF_ERROR(CheckPageSlotsPlausible(
        sb, *max_slots, DiskTag(d) + " superblock"));
    if (d == 0) {
      ref = sb;
      layout.pages.resize(ref.page_slots);
    } else if (!SuperblocksAgree(ref, sb)) {
      return CorruptionError(DiskTag(d) + " superblock" +
                             ": disagrees with disk 0 (mixed index files?)");
    }
    for (const DirRecord& r : records) {
      if ((r.flags & kDirFlagReplica) != 0) continue;
      const std::string tag = DiskTag(d) + " directory record for page " +
                              std::to_string(r.page);
      if (r.local_index < 1 + sb.dir_page_count) {
        return CorruptionError(tag + ": bad directory record");
      }
      if (r.page >= ref.page_slots) {
        return CorruptionError(tag + ": page id out of range");
      }
      PageLocation& loc = layout.pages[r.page];
      if (loc.live) {
        return CorruptionError(tag + ": page stored twice");
      }
      loc.disk = d;
      loc.offset = static_cast<uint64_t>(r.local_index) * page_size;
      loc.live = true;
      loc.level = r.level;
      loc.mirror = r.mirror;
      loc.cylinder = r.cylinder;
      ++live;
    }
  }
  if (live != ref.live_pages) {
    return CorruptionError(
        "index stores " + std::to_string(live) +
        " pages but superblock promises " + std::to_string(ref.live_pages));
  }
  if (!layout.IsLive(ref.root)) {
    return CorruptionError("root page " + std::to_string(ref.root) +
                           " missing from index");
  }
  layout.tree_config = ref.tree;
  layout.decluster = ref.decluster;
  layout.root = ref.root;
  layout.object_count = ref.object_count;
  layout.live_pages = ref.live_pages;
  layout.page_size = static_cast<uint32_t>(page_size);
  return layout;
}

common::Status SaveIndexToDir(const ParallelRStarTree& index,
                              const std::string& dir) {
  auto store = FilePageStore::Create(dir, index.num_disks());
  if (!store.ok()) return store.status();
  return SaveIndex(index, store->get());
}

common::Result<std::unique_ptr<ParallelRStarTree>> OpenIndexFromDir(
    const std::string& dir) {
  auto store = FilePageStore::Open(dir);
  if (!store.ok()) return store.status();
  return OpenIndex(**store);
}

}  // namespace sqp::storage
