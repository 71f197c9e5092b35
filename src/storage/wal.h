// Per-index write-ahead log (docs/STORAGE.md).
//
// The log is an append-only byte stream on one PageStore disk. Each record
// describes one committed mutation against the base index image: the new
// root, the new object count, and the physical page-map deltas (PageId ->
// fresh copy-on-write location, or a free marker). The record
// is the unit of atomicity — node bytes are made durable *before* the
// record is appended, so a record that scans as valid implies its pages
// are readable, and a crash mid-append leaves a torn tail that the scanner
// detects (magic / CRC / exact-next-LSN checks) and drops.
//
// Record framing (little-endian, 24-byte header + payload):
//   0  u32 magic "SQPW"
//   4  u16 format version (page_format.h kFormatVersion)
//   6  u16 record type (1 = commit)
//   8  u32 payload length in bytes
//   12 u32 crc32c over the whole record with this field zeroed
//   16 u64 lsn (1, 2, 3, ... strictly sequential)
// Commit payload:
//   0  u32 root PageId
//   4  u64 object count after the op
//   12 u32 delta count
//   16 deltas, 26 bytes each:
//      u32 page id, i32 disk, u64 byte offset, u8 level,
//      i32 mirror disk (-1 unmirrored), u32 cylinder,
//      u8 free marker (1 = the PageId was freed, 0 = it lives at the
//      location above)
//
// Why torn tails cannot be mistaken for records: the scanner accepts a
// record only if magic, type, length bound, CRC *and* the exact next LSN
// all hold. A CRC-valid record stamped with another format version was
// written by another build; the scan refuses it with InvalidArgument
// instead of dropping it as a torn tail or misreading its deltas. After recovery, new appends overwrite the dropped tail in
// place; any stale remnant bytes beyond the new tail start mid-payload of
// a dead record and fail the magic/CRC gate on the next scan.

#ifndef SQP_STORAGE_WAL_H_
#define SQP_STORAGE_WAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/index_io.h"
#include "storage/page_store.h"

namespace sqp::storage {

// "SQPW" in ASCII; first four bytes of every WAL record.
inline constexpr uint32_t kWalMagic = 0x57505153;
inline constexpr uint16_t kWalRecordCommit = 1;
inline constexpr size_t kWalHeaderBytes = 24;

// One page-map delta of a commit. !loc.live frees the PageId; otherwise
// the PageId's current bytes live at `loc` (a fresh copy-on-write page).
struct WalPageDelta {
  rstar::PageId page = rstar::kInvalidPage;
  PageLocation loc;
};

struct WalCommit {
  uint64_t lsn = 0;  // assigned by WalWriter::AppendCommit
  rstar::PageId root = rstar::kInvalidPage;
  uint64_t object_count = 0;
  std::vector<WalPageDelta> deltas;
};

struct WalScanResult {
  std::vector<WalCommit> records;   // every valid record, in LSN order
  uint64_t valid_end_offset = 0;    // byte offset just past the last one
  uint64_t next_lsn = 1;            // LSN the next append must carry
  bool torn_tail = false;           // bytes past valid_end_offset that did
                                    // not parse as the next record
};

// Scans the log on `disk` from byte 0, validating each record in turn.
// Stops at the first byte position that does not hold a complete, CRC-
// valid record carrying the exact next LSN; anything from there on is the
// torn tail of a crashed append (or its stale remnant) and is reported,
// not returned. Only I/O errors and a record of another format version
// fail the scan — a damaged tail is an expected crash artifact, not
// corruption.
common::Result<WalScanResult> ScanWal(const PageStore& store, int disk);

// Appends commit records. Single-writer: the caller serializes appends
// (MutableIndex holds its writer lock across the whole commit pipeline).
class WalWriter {
 public:
  // Continues a log whose scan said the next record belongs at
  // `tail_offset` with LSN `next_lsn`. `store` must outlive the writer.
  WalWriter(PageStore* store, int disk, uint64_t next_lsn,
            uint64_t tail_offset);

  // Stamps `commit` with the next LSN, appends it and syncs the store.
  // The append + sync IS the commit point: once this returns OK the
  // mutation is durable. On error the in-memory stamp is rolled back and
  // the on-disk bytes, whatever subset landed, scan as a torn tail.
  common::Status AppendCommit(WalCommit* commit);

  // Restarts the log after a checkpoint folded all records into the base
  // image: truncates the disk and resets the LSN sequence.
  common::Status Reset();

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t tail_offset() const { return tail_offset_; }
  int disk() const { return disk_; }

 private:
  PageStore* store_;  // not owned
  int disk_;
  uint64_t next_lsn_;
  uint64_t tail_offset_;
};

// Serializes `commit` (which must already carry its LSN) into the exact
// byte image AppendCommit writes. Exposed for tests that forge records.
std::vector<uint8_t> EncodeWalCommit(const WalCommit& commit);

}  // namespace sqp::storage

#endif  // SQP_STORAGE_WAL_H_
