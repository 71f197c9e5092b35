// Tests of the per-index write-ahead log (src/storage/wal.h): record
// framing round-trips, torn-tail detection, forged/stale-remnant records,
// and the strict-LSN acceptance rule the recovery protocol rests on.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "storage/page_store.h"
#include "storage/wal.h"

namespace sqp {
namespace {

using storage::MemPageStore;
using storage::PageLocation;
using storage::ScanWal;
using storage::WalCommit;
using storage::WalPageDelta;
using storage::WalWriter;

WalCommit MakeCommit(rstar::PageId root, uint64_t objects) {
  WalCommit c;
  c.root = root;
  c.object_count = objects;
  WalPageDelta moved;
  moved.page = root;
  moved.loc.disk = 2;
  moved.loc.offset = 8192;
  moved.loc.live = true;
  moved.loc.level = 1;
  moved.loc.mirror = 4;
  moved.loc.cylinder = 17;
  c.deltas.push_back(moved);
  WalPageDelta freed;
  freed.page = root + 1;
  // loc stays default: !live frees the page.
  c.deltas.push_back(freed);
  return c;
}

TEST(WalTest, EmptyLogScansClean) {
  MemPageStore store(1);
  auto scan = ScanWal(store, 0);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_end_offset, 0u);
  EXPECT_EQ(scan->next_lsn, 1u);
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalTest, AppendAndScanRoundTrip) {
  MemPageStore store(1);
  WalWriter writer(&store, 0, /*next_lsn=*/1, /*tail_offset=*/0);
  for (uint64_t i = 0; i < 5; ++i) {
    WalCommit c = MakeCommit(static_cast<rstar::PageId>(10 + i), 100 + i);
    ASSERT_TRUE(writer.AppendCommit(&c).ok());
    EXPECT_EQ(c.lsn, i + 1);  // stamped by the writer
  }
  EXPECT_EQ(writer.next_lsn(), 6u);

  auto scan = ScanWal(store, 0);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->records.size(), 5u);
  EXPECT_EQ(scan->valid_end_offset, writer.tail_offset());
  EXPECT_EQ(scan->next_lsn, 6u);
  EXPECT_FALSE(scan->torn_tail);
  for (uint64_t i = 0; i < 5; ++i) {
    const WalCommit& r = scan->records[i];
    EXPECT_EQ(r.lsn, i + 1);
    EXPECT_EQ(r.root, static_cast<rstar::PageId>(10 + i));
    EXPECT_EQ(r.object_count, 100 + i);
    ASSERT_EQ(r.deltas.size(), 2u);
    const PageLocation& loc = r.deltas[0].loc;
    EXPECT_EQ(r.deltas[0].page, r.root);
    EXPECT_EQ(loc.disk, 2);
    EXPECT_EQ(loc.offset, 8192u);
    EXPECT_TRUE(loc.live);
    EXPECT_EQ(loc.level, 1);
    EXPECT_EQ(loc.mirror, 4);
    EXPECT_EQ(loc.cylinder, 17u);
    EXPECT_EQ(r.deltas[1].page, r.root + 1);
    EXPECT_FALSE(r.deltas[1].loc.live);  // freed
  }
}

TEST(WalTest, TornAppendPrefixIsDroppedNotReturned) {
  MemPageStore store(1);
  WalWriter writer(&store, 0, 1, 0);
  WalCommit a = MakeCommit(1, 10);
  WalCommit b = MakeCommit(2, 11);
  ASSERT_TRUE(writer.AppendCommit(&a).ok());
  ASSERT_TRUE(writer.AppendCommit(&b).ok());
  const uint64_t good_end = writer.tail_offset();

  // A crash mid-append leaves an arbitrary prefix of the record; every
  // prefix length must scan as a torn tail, never as a record.
  WalCommit c = MakeCommit(3, 12);
  c.lsn = 3;
  const std::vector<uint8_t> full = storage::EncodeWalCommit(c);
  for (size_t cut = 1; cut < full.size(); ++cut) {
    ASSERT_TRUE(store.WriteAt(0, good_end, full.data(), cut).ok());
    auto scan = ScanWal(store, 0);
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_EQ(scan->records.size(), 2u) << "cut " << cut;
    EXPECT_EQ(scan->valid_end_offset, good_end) << "cut " << cut;
    EXPECT_EQ(scan->next_lsn, 3u) << "cut " << cut;
    EXPECT_TRUE(scan->torn_tail) << "cut " << cut;
  }
}

TEST(WalTest, CorruptedRecordEndsTheScan) {
  MemPageStore store(1);
  WalWriter writer(&store, 0, 1, 0);
  WalCommit a = MakeCommit(1, 10);
  ASSERT_TRUE(writer.AppendCommit(&a).ok());
  const uint64_t first_end = writer.tail_offset();
  WalCommit b = MakeCommit(2, 11);
  ASSERT_TRUE(writer.AppendCommit(&b).ok());

  // Flip one payload byte of the second record: its CRC gate must reject
  // it, and with it everything after.
  uint8_t byte = 0;
  const uint64_t target = first_end + storage::kWalHeaderBytes + 2;
  ASSERT_TRUE(store.ReadAt(0, target, &byte, 1).ok());
  byte ^= 0x40;
  ASSERT_TRUE(store.WriteAt(0, target, &byte, 1).ok());

  auto scan = ScanWal(store, 0);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].lsn, 1u);
  EXPECT_EQ(scan->valid_end_offset, first_end);
  EXPECT_TRUE(scan->torn_tail);
}

TEST(WalTest, ForgedRecordWithWrongLsnIsRejected) {
  MemPageStore store(1);
  WalWriter writer(&store, 0, 1, 0);
  WalCommit a = MakeCommit(1, 10);
  ASSERT_TRUE(writer.AppendCommit(&a).ok());

  // A CRC-valid record carrying the wrong sequence number (a stale
  // remnant of a pre-checkpoint log generation, say) must not be
  // accepted: only the exact next LSN continues the scan.
  WalCommit forged = MakeCommit(9, 99);
  forged.lsn = 7;  // next must be 2
  const std::vector<uint8_t> bytes = storage::EncodeWalCommit(forged);
  ASSERT_TRUE(
      store.WriteAt(0, writer.tail_offset(), bytes.data(), bytes.size())
          .ok());

  auto scan = ScanWal(store, 0);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->next_lsn, 2u);
  EXPECT_TRUE(scan->torn_tail);
}

TEST(WalTest, AppendAfterRecoveryBuriesTheTornTail) {
  MemPageStore store(1);
  WalWriter writer(&store, 0, 1, 0);
  WalCommit a = MakeCommit(1, 10);
  ASSERT_TRUE(writer.AppendCommit(&a).ok());
  const uint64_t good_end = writer.tail_offset();

  // Crash artifact: most of a big record (two deltas) minus its last byte.
  WalCommit big = MakeCommit(2, 11);
  big.lsn = 2;
  std::vector<uint8_t> torn = storage::EncodeWalCommit(big);
  torn.pop_back();
  ASSERT_TRUE(store.WriteAt(0, good_end, torn.data(), torn.size()).ok());

  // Recovery: scan, then continue appending at the valid end — the new
  // record is SMALLER than the remnant, so stale bytes survive past it.
  auto scan = ScanWal(store, 0);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  WalWriter recovered(&store, 0, scan->next_lsn, scan->valid_end_offset);
  WalCommit small;
  small.root = 3;
  small.object_count = 12;
  WalPageDelta d;
  d.page = 3;
  d.loc.disk = 0;
  d.loc.offset = 0;
  d.loc.live = true;
  small.deltas.push_back(d);
  ASSERT_TRUE(recovered.AppendCommit(&small).ok());

  // The remnant's leftover bytes start mid-payload of a dead record:
  // they must fail the gate, not resurrect.
  auto rescan = ScanWal(store, 0);
  ASSERT_TRUE(rescan.ok());
  ASSERT_EQ(rescan->records.size(), 2u);
  EXPECT_EQ(rescan->records[1].lsn, 2u);
  EXPECT_EQ(rescan->records[1].root, 3u);
  EXPECT_EQ(rescan->valid_end_offset, recovered.tail_offset());
  EXPECT_TRUE(rescan->torn_tail);
}

TEST(WalTest, ResetRestartsTheSequence) {
  MemPageStore store(1);
  WalWriter writer(&store, 0, 1, 0);
  WalCommit a = MakeCommit(1, 10);
  ASSERT_TRUE(writer.AppendCommit(&a).ok());
  ASSERT_TRUE(writer.Reset().ok());
  EXPECT_EQ(writer.next_lsn(), 1u);
  EXPECT_EQ(writer.tail_offset(), 0u);

  auto scan = ScanWal(store, 0);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_FALSE(scan->torn_tail);

  // The sequence restarts at 1 — and scans back.
  WalCommit b = MakeCommit(5, 50);
  ASSERT_TRUE(writer.AppendCommit(&b).ok());
  EXPECT_EQ(b.lsn, 1u);
  auto rescan = ScanWal(store, 0);
  ASSERT_TRUE(rescan.ok());
  ASSERT_EQ(rescan->records.size(), 1u);
  EXPECT_EQ(rescan->records[0].lsn, 1u);
}

}  // namespace
}  // namespace sqp
