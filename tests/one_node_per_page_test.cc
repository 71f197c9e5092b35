// One node, one page: the storage contract of a served index.
//
// The tree sizes a node as one disk page (rstar/config.h: 8*dim + 8 bytes
// per entry after a 24-byte node header), and the page codec stores
// exactly that (node_codec.h). These tests pin the contract end to end:
// a full node of every configuration either encodes to exactly one page
// and round-trips bit for bit, or SaveIndex refuses the configuration;
// bulk-loaded indexes shaped like the benchmark's keep every node in one
// page; the engine reads one page per cache miss; and images or WAL
// records of the previous format version are refused with a typed error
// instead of being misread.

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "exec/parallel_engine.h"
#include "obs/metrics.h"
#include "parallel/parallel_tree.h"
#include "rstar/config.h"
#include "storage/generation.h"
#include "storage/index_io.h"
#include "storage/mutable_index.h"
#include "storage/node_codec.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "storage/wal.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"
#include "workload/workload.h"

namespace sqp {
namespace {

using rstar::Entry;
using rstar::Node;
using rstar::TreeConfig;

// The paper figures depend on the tree's fanout, so the codec must fit
// the tree, never the other way round.
static_assert(rstar::kNodeHeaderBytes == 24);
static_assert(storage::kPageHeaderBytes <= rstar::kNodeHeaderBytes);

geometry::Point RandomPoint(int dim, common::Rng* rng) {
  std::vector<geometry::Coord> c(static_cast<size_t>(dim));
  for (auto& v : c) v = static_cast<geometry::Coord>(rng->Uniform(-5, 5));
  return geometry::Point::FromVector(std::move(c));
}

Node FullLeaf(const TreeConfig& cfg, uint64_t seed) {
  common::Rng rng(seed);
  Node n;
  n.id = 7;
  n.level = 0;
  for (int i = 0; i < cfg.MaxEntries(); ++i) {
    // Object ids use all 64 bits.
    const rstar::ObjectId id =
        (static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)) << 33) ^
        static_cast<uint64_t>(i);
    n.entries.push_back(Entry::ForObject(RandomPoint(cfg.dim, &rng), id));
  }
  return n;
}

Node FullInternal(const TreeConfig& cfg, uint64_t seed) {
  common::Rng rng(seed);
  Node n;
  n.id = 9;
  n.level = 3;
  for (int i = 0; i < cfg.MaxEntries(); ++i) {
    geometry::Rect r = geometry::Rect::ForPoint(RandomPoint(cfg.dim, &rng));
    r.ExpandToInclude(RandomPoint(cfg.dim, &rng));
    n.entries.push_back(Entry::ForChild(
        r, static_cast<rstar::PageId>(rng.UniformInt(0, 0x7FFFFFFF)) * 2,
        static_cast<uint32_t>(rng.UniformInt(1, 0x7FFFFFFF)) * 2));
  }
  return n;
}

void ExpectBitIdentical(const Node& a, const Node& b, const TreeConfig& cfg) {
  ASSERT_EQ(a.id, b.id);
  ASSERT_EQ(a.level, b.level);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const Entry& x = a.entries[i];
    const Entry& y = b.entries[i];
    for (int c = 0; c < cfg.dim; ++c) {
      ASSERT_EQ(std::bit_cast<uint32_t>(x.mbr.lo()[c]),
                std::bit_cast<uint32_t>(y.mbr.lo()[c]));
      ASSERT_EQ(std::bit_cast<uint32_t>(x.mbr.hi()[c]),
                std::bit_cast<uint32_t>(y.mbr.hi()[c]));
    }
    ASSERT_EQ(x.child, y.child);
    ASSERT_EQ(x.object, y.object);
    ASSERT_EQ(x.count, y.count);
  }
}

// For every dim 1-64 and page size 1-16 KiB: a full node fits one page,
// encodes to exactly that page and round-trips bit for bit — or the
// configuration cannot be saved. No configuration yields a multi-page
// record.
TEST(NodeCodecPropertyTest, FullNodesFillOnePageOrSaveRefuses) {
  int fitting = 0, refused = 0;
  for (int page : {1024, 2048, 4096, 8192, 16384}) {
    for (int dim = 1; dim <= 64; ++dim) {
      TreeConfig cfg;
      cfg.dim = dim;
      cfg.page_size_bytes = page;
      const size_t per_page =
          storage::EntriesPerPage(dim, static_cast<size_t>(page));
      const bool fits = per_page >= static_cast<size_t>(cfg.MaxEntries());
      EXPECT_EQ(storage::CheckOneNodePerPage(cfg).ok(), fits)
          << "dim " << dim << " page " << page;
      if (fits) {
        ++fitting;
        for (const Node& node : {FullLeaf(cfg, dim * 131 + page),
                                 FullInternal(cfg, dim * 137 + page)}) {
          std::vector<uint8_t> image;
          storage::EncodeNode(node, dim, static_cast<size_t>(page), &image);
          ASSERT_EQ(image.size(), static_cast<size_t>(page))
              << "dim " << dim << " page " << page;
          auto back = storage::DecodeNode(image.data(), dim,
                                          static_cast<size_t>(page), node.id,
                                          "property page");
          ASSERT_TRUE(back.ok()) << back.status();
          ExpectBitIdentical(node, *back, cfg);
          std::vector<uint8_t> again;
          storage::EncodeNode(*back, dim, static_cast<size_t>(page), &again);
          ASSERT_EQ(again, image) << "dim " << dim << " page " << page;
        }
        continue;
      }
      ++refused;
      // The fanout floor of MaxEntries() (4) is above what the page holds.
      EXPECT_EQ(cfg.MaxEntries(), 4) << "dim " << dim << " page " << page;
      common::Rng rng(static_cast<uint64_t>(dim));
      workload::Dataset data;
      data.dim = dim;
      for (int i = 0; i < 3; ++i) data.points.push_back(RandomPoint(dim, &rng));
      parallel::DeclusterConfig dc;
      dc.num_disks = 2;
      auto index = workload::BuildParallelIndex(data, cfg, dc);
      storage::MemPageStore store(2);
      const common::Status saved = storage::SaveIndex(*index, &store);
      EXPECT_EQ(saved.code(), common::StatusCode::kInvalidArgument)
          << "dim " << dim << " page " << page << ": " << saved;
    }
  }
  EXPECT_GT(fitting, 250);
  EXPECT_GT(refused, 0);  // the refusal branch was exercised
  // The paper's fanouts at 4 KiB pages are unchanged.
  TreeConfig cfg;
  cfg.page_size_bytes = 4096;
  for (auto [dim, fanout] :
       {std::pair{2, 169}, std::pair{8, 56}, std::pair{16, 29}}) {
    cfg.dim = dim;
    EXPECT_EQ(cfg.MaxEntries(), fanout) << "dim " << dim;
  }
}

// An index bulk-loaded like the benchmark's (clustered points, STR, 4 KiB
// pages, 10 disks).
std::unique_ptr<parallel::ParallelRStarTree> BulkLoaded(int dim) {
  const workload::Dataset data =
      workload::MakeClustered(20000, dim, 8, 0.1, 40 + dim);
  TreeConfig tc;
  tc.dim = dim;
  tc.page_size_bytes = 4096;
  parallel::DeclusterConfig dc;
  dc.num_disks = 10;
  auto index = std::make_unique<parallel::ParallelRStarTree>(tc, dc);
  std::vector<rstar::ObjectId> ids(data.points.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  SQP_CHECK_OK(index->tree().BulkLoad(data.points, ids));
  return index;
}

// Every live location names one page that holds the whole node, and no two
// live locations share a page.
TEST(OneNodePerPageTest, BulkLoadedIndexesKeepEachNodeInOnePage) {
  for (int dim : {2, 8, 16}) {
    auto index = BulkLoaded(dim);
    storage::MemPageStore store(10);
    ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
    auto layout = storage::ReadIndexLayout(store);
    ASSERT_TRUE(layout.ok()) << layout.status();
    const size_t page_size = layout->page_size;

    std::vector<std::set<uint64_t>> offsets(10);
    std::vector<uint8_t> page(page_size);
    size_t live = 0;
    for (rstar::PageId id = 0; id < layout->pages.size(); ++id) {
      const storage::PageLocation& loc = layout->pages[id];
      if (!loc.live) continue;
      ++live;
      ASSERT_EQ(loc.offset % page_size, 0u);
      ASSERT_TRUE(offsets[static_cast<size_t>(loc.disk)].insert(loc.offset)
                      .second)
          << "two nodes share a page";
      ASSERT_TRUE(
          store.ReadAt(loc.disk, loc.offset, page.data(), page_size).ok());
      auto node = storage::DecodeNode(page.data(), dim, page_size, id, "node");
      ASSERT_TRUE(node.ok()) << "dim " << dim << ": " << node.status();
      EXPECT_EQ(node->entries.size(), index->tree().node(id).entries.size());
    }
    EXPECT_EQ(live, index->tree().LiveNodeIds().size());
    // Each disk file is its superblock, its directory and one page per
    // node placed on it.
    for (int d = 0; d < 10; ++d) {
      const uint64_t pages = *store.SizeOf(d) / page_size;
      EXPECT_LE(offsets[static_cast<size_t>(d)].size(), pages);
      EXPECT_GE(offsets[static_cast<size_t>(d)].size() + 2, pages)
          << "dim " << dim << " disk " << d;
    }
  }
}

// With no cache, every miss is one node read from one disk: the reader's
// per-disk page counters sum to the cache's misses. One query in flight,
// so no miss is served by another query's read.
TEST(OneNodePerPageTest, ReaderPagesEqualCacheMissesWithoutCache) {
  for (int dim : {2, 8, 16}) {
    auto index = BulkLoaded(dim);
    storage::MemPageStore store(10);
    ASSERT_TRUE(storage::SaveIndex(*index, &store).ok());
    common::Rng rng(static_cast<uint64_t>(dim) * 3 + 1);
    std::vector<exec::EngineQuery> queries;
    for (int q = 0; q < 20; ++q) {
      exec::EngineQuery eq;
      std::vector<geometry::Coord> c(static_cast<size_t>(dim));
      for (auto& v : c) v = static_cast<geometry::Coord>(rng.Uniform());
      eq.point = geometry::Point::FromVector(std::move(c));
      eq.k = 20;
      queries.push_back(eq);
    }
    for (const exec::IoBackendKind backend :
         {exec::IoBackendKind::kThreads, exec::IoBackendKind::kSerial}) {
      exec::EngineOptions options;
      options.query_threads = 1;
      options.cache_pages = 0;
      options.io_backend = backend;
      auto engine = exec::ParallelQueryEngine::Create(*index, &store, options);
      ASSERT_TRUE(engine.ok()) << engine.status();
      size_t pages = 0;
      for (const exec::QueryOutcome& out : (*engine)->RunBatch(queries)) {
        ASSERT_TRUE(out.status.ok()) << out.status;
        pages += out.pages_fetched;
      }
      const obs::MetricsSnapshot snap = (*engine)->metrics()->Snapshot();
      const uint64_t misses = snap.CounterValue("sqp_cache_misses_total");
      EXPECT_GT(misses, 0u);
      EXPECT_EQ(snap.CounterSumByPrefix("sqp_reader_pages_read_total"), misses)
          << "dim " << dim << " on " << (*engine)->io_backend_name();
      EXPECT_EQ(misses, pages);
    }
  }
}

// Restamps disk `d`'s superblock through `edit` and reseals it, as a
// crafted-but-checksummed file would look.
template <typename Edit>
void ForgeSuperblock(storage::PageStore* store, int d, size_t page_size,
                     Edit edit) {
  std::vector<uint8_t> page(page_size);
  ASSERT_TRUE(store->ReadAt(d, 0, page.data(), page_size).ok());
  edit(page.data());
  storage::SealPage(page.data(), page_size);
  ASSERT_TRUE(store->WriteAt(d, 0, page.data(), page_size).ok());
}

std::unique_ptr<parallel::ParallelRStarTree> SmallIndex(int disks) {
  const workload::Dataset data = workload::MakeClustered(500, 2, 4, 0.1, 5);
  TreeConfig tc;
  tc.dim = 2;
  tc.max_entries_override = 10;
  parallel::DeclusterConfig dc;
  dc.num_disks = disks;
  return workload::BuildParallelIndex(data, tc, dc);
}

// SaveIndex refuses a supernode tree and a tree whose fanout floor
// overflows the page; an image whose superblock claims either (a crafted
// file — no build writes one) is refused by every reader, the mutable
// index included.
TEST(OneNodePerPageTest, MultiPageConfigsAreRefusedTyped) {
  // A tree whose 4-entry fanout floor needs more than a 1 KiB page.
  TreeConfig wide;
  wide.dim = 40;
  wide.page_size_bytes = 1024;
  ASSERT_EQ(wide.MaxEntries(), 4);
  ASSERT_LT(storage::EntriesPerPage(40, 1024), 4u);
  workload::Dataset data;
  data.dim = 40;
  common::Rng rng(8);
  for (int i = 0; i < 3; ++i) data.points.push_back(RandomPoint(40, &rng));
  parallel::DeclusterConfig dc;
  dc.num_disks = 2;
  auto too_wide = workload::BuildParallelIndex(data, wide, dc);
  storage::MemPageStore store(2);
  const common::Status saved = storage::SaveIndex(*too_wide, &store);
  EXPECT_EQ(saved.code(), common::StatusCode::kInvalidArgument) << saved;
  EXPECT_NE(saved.message().find("does not fit"), std::string::npos) << saved;

  constexpr int kDisks = 3;
  auto index = SmallIndex(kDisks);
  const size_t page_size = 4096;
  struct Forgery {
    const char* name;
    void (*edit)(uint8_t* page);
  };
  const Forgery forgeries[] = {
      // kSbAllowSupernodes (index_io.cc superblock layout).
      {"supernodes", [](uint8_t* p) { p[138] = 1; }},
      // kSbMaxEntriesOverride: 200 two-d entries cannot fit 4 KiB.
      {"overfull fanout", [](uint8_t* p) { storage::PutU32(p + 56, 200); }},
  };
  for (const Forgery& f : forgeries) {
    storage::MemPageStore image(kDisks);
    ASSERT_TRUE(storage::SaveIndex(*index, &image).ok());
    for (int d = 0; d < kDisks; ++d) {
      ForgeSuperblock(&image, d, page_size, f.edit);
    }
    auto layout = storage::ReadIndexLayout(image);
    EXPECT_EQ(layout.status().code(), common::StatusCode::kInvalidArgument)
        << f.name << ": " << layout.status();
    auto opened = storage::OpenIndex(image);
    EXPECT_EQ(opened.status().code(), common::StatusCode::kInvalidArgument)
        << f.name << ": " << opened.status();

    // The mutable index over a generation holding the forged image.
    storage::MemPageStore base(1 + 2 * (kDisks + 1));
    storage::MemGenerationEnv env(&base, kDisks);
    ASSERT_TRUE(storage::InitializeGenerations(&env, *index).ok());
    for (int d = 0; d < kDisks; ++d) {
      ForgeSuperblock(&base, env.first_disk_of(1) + d, page_size, f.edit);
    }
    auto mi = storage::MutableIndex::Open(&env);
    EXPECT_EQ(mi.status().code(), common::StatusCode::kInvalidArgument)
        << f.name << ": " << mi.status();
  }
}

// Pages and WAL records stamped with the previous format version (1: the
// multi-page record layout) are refused with the typed "re-save the
// index" error, never decoded under the current layout.
TEST(FormatVersionTest, PreviousVersionPagesAndWalRecordsAreRefused) {
  constexpr uint16_t kOld = storage::kFormatVersion - 1;
  ASSERT_EQ(kOld, 1);
  auto expect_refused = [](const common::Status& s, const char* what) {
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument)
        << what << ": " << s;
    EXPECT_NE(s.message().find("unsupported format version 1"),
              std::string::npos)
        << what << ": " << s;
    EXPECT_NE(s.message().find("re-save the index"), std::string::npos)
        << what << ": " << s;
  };

  // A node page.
  TreeConfig cfg;
  cfg.dim = 2;
  std::vector<uint8_t> page;
  storage::EncodeNode(FullLeaf(cfg, 1), 2, 4096, &page);
  storage::PutU16(page.data() + 4, kOld);
  storage::SealPage(page.data(), page.size());
  expect_refused(
      storage::DecodeNode(page.data(), 2, 4096, 7, "old page").status(),
      "node page");

  // A whole index image.
  constexpr int kDisks = 3;
  auto index = SmallIndex(kDisks);
  storage::MemPageStore image(kDisks);
  ASSERT_TRUE(storage::SaveIndex(*index, &image).ok());
  for (int d = 0; d < kDisks; ++d) {
    ForgeSuperblock(&image, d, 4096,
                    [](uint8_t* p) { storage::PutU16(p + 4, kOld); });
  }
  expect_refused(storage::OpenIndex(image).status(), "index image");
  expect_refused(storage::ReadIndexLayout(image).status(), "index layout");

  // A WAL record: valid framing and checksum, old version.
  storage::WalCommit commit;
  commit.lsn = 1;
  commit.root = 0;
  commit.object_count = 1;
  storage::WalPageDelta delta;
  delta.page = 0;
  delta.loc.disk = 0;
  delta.loc.offset = 4096;
  delta.loc.live = true;
  commit.deltas.push_back(delta);
  std::vector<uint8_t> rec = storage::EncodeWalCommit(commit);
  storage::PutU16(rec.data() + 4, kOld);
  storage::PutU32(rec.data() + 12, 0);
  storage::PutU32(rec.data() + 12, storage::Crc32c(rec.data(), rec.size()));
  storage::MemPageStore wal(1);
  ASSERT_TRUE(wal.WriteAt(0, 0, rec.data(), rec.size()).ok());
  expect_refused(storage::ScanWal(wal, 0).status(), "WAL record");

  // Recovery reads that log and refuses it too.
  storage::MemPageStore base(1 + 2 * (kDisks + 1));
  storage::MemGenerationEnv env(&base, kDisks);
  ASSERT_TRUE(storage::InitializeGenerations(&env, *index).ok());
  ASSERT_TRUE(
      base.WriteAt(env.wal_disk_of(1), 0, rec.data(), rec.size()).ok());
  expect_refused(storage::MutableIndex::Open(&env).status(), "recovery");
}

}  // namespace
}  // namespace sqp
