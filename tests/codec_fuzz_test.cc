// Fuzz-style robustness tests of the on-disk decoders: node_codec,
// page_format and the index bootstrap (superblock + directory) readers.
// Thousands of seeded random mutations — bit flips, byte stomps,
// truncations, resealed-header forgeries — are thrown at DecodeNode,
// CheckPage and ReadIndexLayout/OpenIndex. The decoders must never crash,
// over-read, or return OK for an image that fails verification; damage
// surfaces as a Status (usually CorruptionError). Crafted-but-resealed
// headers additionally pin the bounds checks: a checksummed page whose
// counts imply absurd allocations must be rejected, not trusted.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "parallel/parallel_tree.h"
#include "storage/index_io.h"
#include "storage/node_codec.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"

namespace sqp {
namespace {

using parallel::DeclusterPolicy;

constexpr size_t kPage = 1024;  // small pages: 41 records of 2-d entries
constexpr int kDim = 2;
const int kFull = static_cast<int>(storage::EntriesPerPage(kDim, kPage));

rstar::Node MakeNode(rstar::PageId id, uint8_t level, int n_entries,
                     uint64_t seed) {
  common::Rng rng(seed);
  rstar::Node node;
  node.id = id;
  node.level = level;
  for (int i = 0; i < n_entries; ++i) {
    geometry::Point lo{static_cast<geometry::Coord>(rng.Uniform()),
                       static_cast<geometry::Coord>(rng.Uniform())};
    geometry::Point hi = lo;
    for (int d = 0; d < kDim; ++d) {
      hi[d] += static_cast<geometry::Coord>(rng.Uniform());
    }
    if (level == 0) {
      node.entries.push_back(rstar::Entry::ForObject(
          lo, static_cast<rstar::ObjectId>(rng.UniformInt(0, 1 << 20))));
    } else {
      rstar::Entry e;
      e.mbr = geometry::Rect(lo, hi);
      e.child = static_cast<rstar::PageId>(rng.UniformInt(1, 1 << 16));
      e.count = static_cast<uint32_t>(rng.UniformInt(1, 1000));
      node.entries.push_back(e);
    }
  }
  return node;
}

// Encodes `node` into its one-page image.
std::vector<uint8_t> Encode(const rstar::Node& node) {
  std::vector<uint8_t> image;
  storage::EncodeNode(node, kDim, kPage, &image);
  return image;
}

common::Result<rstar::Node> Decode(const std::vector<uint8_t>& image,
                                   rstar::PageId id) {
  SQP_CHECK(image.size() == kPage);
  return storage::DecodeNode(image.data(), kDim, kPage, id, "fuzzed page");
}

// --- Random mutations of valid node images --------------------------------

TEST(CodecFuzzTest, RandomByteMutationsNeverCrashOrDecode) {
  // A corpus mixing leaf/internal, partly filled and full pages.
  std::vector<std::pair<rstar::PageId, std::vector<uint8_t>>> corpus;
  corpus.emplace_back(3, Encode(MakeNode(3, 0, 5, 1)));
  corpus.emplace_back(9, Encode(MakeNode(9, 2, 30, 2)));
  corpus.emplace_back(11, Encode(MakeNode(11, 0, kFull, 3)));  // full leaf
  corpus.emplace_back(12, Encode(MakeNode(12, 1, kFull, 4)));  // full internal
  corpus.emplace_back(1, Encode(MakeNode(1, 0, 0, 5)));        // empty node
  for (const auto& [id, image] : corpus) {
    ASSERT_TRUE(Decode(image, id).ok());
    ASSERT_EQ(image.size(), kPage);
  }

  common::Rng rng(20250806);
  size_t rejected = 0, accepted = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const auto& [id, original] = corpus[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))];
    std::vector<uint8_t> image = original;
    // 1-8 independent mutations: bit flip, byte stomp, or zeroed run.
    const int n_mutations = static_cast<int>(rng.UniformInt(1, 8));
    for (int m = 0; m < n_mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(image.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          image[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
          break;
        case 1:
          image[pos] = static_cast<uint8_t>(rng.UniformInt(0, 255));
          break;
        default: {
          const size_t run = std::min(
              image.size() - pos,
              static_cast<size_t>(rng.UniformInt(1, 64)));
          std::memset(image.data() + pos, 0, run);
          break;
        }
      }
    }
    // Must never crash; OK only if the mutations happened to cancel out
    // (byte stomps can write the original value back).
    auto result = Decode(image, id);
    if (result.ok()) {
      ++accepted;
      ASSERT_EQ(std::memcmp(image.data(), original.data(), image.size()), 0)
          << "decoder accepted a damaged image on iteration " << iter;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 5000u);
  // `accepted` only counts no-op mutations; nothing to assert beyond the
  // bit-identity check above.
  (void)accepted;
}

TEST(CodecFuzzTest, TruncatedAndOversizedTailsAreRejected) {
  const rstar::Node node = MakeNode(21, 0, kFull, 6);  // a full page
  const std::vector<uint8_t> image = Encode(node);
  ASSERT_TRUE(Decode(image, 21).ok());

  // A torn read: the page zeroed from a cut point on. The checksum fails
  // whenever the cut zeroes a nonzero byte; written - 9 is the high byte
  // of the last record's last coordinate.
  const size_t written =
      storage::kPageHeaderBytes + kFull * storage::EntryRecordBytes(kDim);
  for (size_t cut : {written - 9, kPage / 2, storage::kPageHeaderBytes + 3,
                     size_t{12}}) {
    std::vector<uint8_t> torn = image;
    std::memset(torn.data() + cut, 0, kPage - cut);
    EXPECT_FALSE(Decode(torn, 21).ok()) << "cut at " << cut;
  }

  // A page swapped in from a different node.
  EXPECT_FALSE(Decode(Encode(MakeNode(22, 0, kFull, 7)), 21).ok());

  // Wrong expected id: the page is valid but belongs to someone else.
  EXPECT_FALSE(Decode(image, 20).ok());

  // An entry count one past the page's capacity, resealed: the records
  // would run off the end of the page.
  std::vector<uint8_t> oversized = image;
  storage::PutU32(oversized.data() + 16, static_cast<uint32_t>(kFull) + 1);
  storage::SealPage(oversized.data(), kPage);
  EXPECT_FALSE(Decode(oversized, 21).ok());

  // A lowered entry count, resealed: the records past it are not the zero
  // fill the encoder leaves, so the page does not describe itself.
  std::vector<uint8_t> short_count = image;
  storage::PutU32(short_count.data() + 16, static_cast<uint32_t>(kFull) - 1);
  storage::SealPage(short_count.data(), kPage);
  EXPECT_FALSE(Decode(short_count, 21).ok());
}

// Forged-but-checksummed headers: reseal after each field edit so only the
// semantic validation (not the CRC) stands between the decoder and a bogus
// allocation or overflow.
TEST(CodecFuzzTest, ResealedHeaderForgeriesAreRejected) {
  const rstar::Node node = MakeNode(33, 1, 40, 8);
  const std::vector<uint8_t> image = Encode(node);

  struct Forgery {
    const char* name;
    size_t offset;   // header byte offset
    uint32_t value;  // little-endian u32 to stomp in
  };
  const Forgery forgeries[] = {
      // An entry count far beyond what the page can carry: the bounds
      // check must reject it BEFORE reserving memory for it.
      {"entry_count beyond page capacity", 16, 0x00FFFFFFu},
      {"huge entry_count", 16, 0xFFFFFFFFu},
      {"foreign page id", 12, 0xDEADu},
  };
  for (const Forgery& f : forgeries) {
    std::vector<uint8_t> forged = image;
    storage::PutU32(forged.data() + f.offset, f.value);
    storage::SealPage(forged.data(), kPage);  // make the CRC pass again
    auto result = Decode(forged, 33);
    EXPECT_FALSE(result.ok()) << "forgery '" << f.name << "' was accepted";
  }
  // Page types other than kNode, including the retired continuation-page
  // type 4 of format version 1.
  for (uint8_t type : {1, 2, 4, 0xFF}) {
    std::vector<uint8_t> forged = image;
    forged[6] = type;
    storage::SealPage(forged.data(), kPage);
    EXPECT_FALSE(Decode(forged, 33).ok()) << "page type " << int{type};
  }

  // Randomized header stomps, resealed: never a crash, and a page the
  // decoder accepts must be exactly what its bytes say — re-encoding the
  // decoded node reproduces the forged page bit for bit (a stomped level
  // or checksum byte can survive; a misread cannot).
  common::Rng rng(44);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<uint8_t> forged = image;
    const int n_stomps = static_cast<int>(rng.UniformInt(1, 3));
    for (int s = 0; s < n_stomps; ++s) {
      // Any header byte from the type on (bytes [6, 20)), skipping
      // magic/version so the page still looks like ours and reaches the
      // semantic checks. A CRC stomp is erased by the reseal.
      const size_t off = 6 + static_cast<size_t>(rng.UniformInt(0, 13));
      forged[off] = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    storage::SealPage(forged.data(), kPage);
    auto result = Decode(forged, 33);
    if (result.ok()) {
      ASSERT_EQ(Encode(*result), forged) << "iteration " << iter;
    }
  }
}

TEST(CodecFuzzTest, CheckPageOnRandomBuffersNeverCrashes) {
  common::Rng rng(55);
  std::vector<uint8_t> buf(kPage);
  int passed = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    for (auto& b : buf) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    if (iter % 4 == 0) {
      // Make the magic/version plausible so deeper checks run too.
      storage::PutU32(buf.data(), storage::kPageMagic);
      storage::PutU16(buf.data() + 4, storage::kFormatVersion);
    }
    if (iter % 8 == 0) {
      storage::SealPage(buf.data(), kPage);  // CRC valid, content random
    }
    const common::Status s = storage::CheckPage(
        buf.data(), kPage, storage::PageType::kNode, "random page");
    if (s.ok()) ++passed;
  }
  // Sealed random pages may pass CheckPage (type byte roulette) but the
  // overwhelming majority must fail; none may crash.
  EXPECT_LT(passed, 2000 / 8);
}

// --- Index image (superblock + directory) fuzz ----------------------------

storage::MemPageStore SaveSmallIndex(
    std::unique_ptr<parallel::ParallelRStarTree>* index_out) {
  const workload::Dataset data = workload::MakeClustered(400, 2, 6, 0.1, 9);
  rstar::TreeConfig tree_config;
  tree_config.dim = 2;
  tree_config.max_entries_override = 10;
  parallel::DeclusterConfig dc;
  dc.num_disks = 3;
  dc.policy = DeclusterPolicy::kProximityIndex;
  auto index = workload::BuildParallelIndex(data, tree_config, dc);
  storage::MemPageStore store(3);
  SQP_CHECK(storage::SaveIndex(*index, &store).ok());
  if (index_out != nullptr) *index_out = std::move(index);
  return store;
}

TEST(IndexImageFuzzTest, MutatedImagesNeverCrashTheBootstrap) {
  storage::MemPageStore pristine = SaveSmallIndex(nullptr);
  ASSERT_TRUE(storage::ReadIndexLayout(pristine).ok());

  common::Rng rng(66);
  size_t rejected = 0;
  for (int iter = 0; iter < 800; ++iter) {
    storage::MemPageStore store = pristine;  // fresh copy to damage
    const int disk = static_cast<int>(rng.UniformInt(0, 2));
    const uint64_t size = *store.SizeOf(disk);
    ASSERT_GT(size, 0u);
    // Damage a random run of bytes somewhere on one disk.
    const uint64_t pos = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(size) - 1));
    const size_t run = static_cast<size_t>(std::min<uint64_t>(
        static_cast<uint64_t>(rng.UniformInt(1, 256)), size - pos));
    std::vector<uint8_t> junk(run);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    ASSERT_TRUE(store.WriteAt(disk, pos, junk.data(), run).ok());

    // Neither the layout bootstrap nor the full open may crash; both must
    // either reject the image or succeed having dodged the damage (the
    // stomp may land in node payloads the bootstrap never reads, or write
    // back identical bytes).
    auto layout = storage::ReadIndexLayout(store);
    auto opened = storage::OpenIndex(store);
    if (!layout.ok()) ++rejected;
    if (layout.ok() && !opened.ok()) {
      // Bootstrap dodged the damage but a node record did not — that is
      // the expected split when the stomp lands past the directory.
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(IndexImageFuzzTest, ForgedDirectoryCountsAreBoundedNotTrusted) {
  storage::MemPageStore pristine = SaveSmallIndex(nullptr);
  auto layout = storage::ReadIndexLayout(pristine);
  ASSERT_TRUE(layout.ok());
  const size_t page_size = layout->page_size;

  // Each forgery stomps one count field on disk 0, reseals the page's CRC,
  // and expects BOTH the layout bootstrap and the full open to reject the
  // image. The real point: rejection must come from semantic validation
  // BEFORE any count-sized allocation or read (a DoS if counts were
  // trusted). The superblock keeps its counts in the page payload; the
  // directory keeps per-page record counts in the page header.
  struct Forgery {
    const char* name;
    uint64_t page_offset;  // byte offset of the page to forge on disk 0
    size_t field_offset;   // byte offset of the u32 field within the page
  };
  const Forgery forgeries[] = {
      // Superblock payload (offsets fixed by the on-disk format).
      {"superblock page_slots", 0, 60},
      {"superblock root", 0, 64},
      {"superblock dir_page_count", 0, 68},
      {"superblock live_pages", 0, 80},
      // First directory page: header entry_count far beyond what one page
      // of 18-byte records can carry.
      {"directory entry_count", page_size, 16},
  };
  for (const Forgery& f : forgeries) {
    storage::MemPageStore store = pristine;  // fresh copy to forge
    std::vector<uint8_t> page(page_size);
    ASSERT_TRUE(
        store.ReadAt(0, f.page_offset, page.data(), page.size()).ok());
    ASSERT_EQ(storage::GetU32(page.data()), storage::kPageMagic);
    storage::PutU32(page.data() + f.field_offset, 0xFFFFFF00u);
    storage::SealPage(page.data(), page.size());
    ASSERT_TRUE(
        store.WriteAt(0, f.page_offset, page.data(), page.size()).ok());

    EXPECT_FALSE(storage::ReadIndexLayout(store).ok())
        << "layout accepted forged " << f.name;
    EXPECT_FALSE(storage::OpenIndex(store).ok())
        << "open accepted forged " << f.name;
  }
}

TEST(IndexImageFuzzTest, TruncatedDiskFilesAreRejected) {
  std::unique_ptr<parallel::ParallelRStarTree> index;
  storage::MemPageStore pristine = SaveSmallIndex(&index);
  for (int disk = 0; disk < 3; ++disk) {
    const uint64_t size = *pristine.SizeOf(disk);
    common::Rng rng(static_cast<uint64_t>(disk) + 70);
    for (int iter = 0; iter < 20; ++iter) {
      storage::MemPageStore store = pristine;
      const uint64_t keep = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(size) - 1));
      ASSERT_TRUE(store.Truncate(disk).ok());
      if (keep > 0) {
        std::vector<uint8_t> head(keep);
        ASSERT_TRUE(pristine.ReadAt(disk, 0, head.data(), keep).ok());
        ASSERT_TRUE(store.WriteAt(disk, 0, head.data(), keep).ok());
      }
      // A truncated disk can never open successfully: some record,
      // directory or superblock is missing its bytes.
      EXPECT_FALSE(storage::OpenIndex(store).ok())
          << "disk " << disk << " truncated to " << keep << " bytes";
    }
  }
}

}  // namespace
}  // namespace sqp
