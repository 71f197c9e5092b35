#include "storage/wal.h"

#include <cstring>

#include "common/check.h"
#include "storage/page_format.h"

namespace sqp::storage {
namespace {

inline constexpr size_t kWalDeltaBytes = 26;
inline constexpr size_t kWalCommitFixedBytes = 16;

// An upper bound no legitimate payload reaches (a commit touches a handful
// of tree nodes); anything larger is remnant garbage, not a record.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 28;

}  // namespace

std::vector<uint8_t> EncodeWalCommit(const WalCommit& commit) {
  const size_t payload_len =
      kWalCommitFixedBytes + commit.deltas.size() * kWalDeltaBytes;
  std::vector<uint8_t> rec(kWalHeaderBytes + payload_len, 0);
  PutU32(rec.data() + 0, kWalMagic);
  PutU16(rec.data() + 4, kFormatVersion);
  PutU16(rec.data() + 6, kWalRecordCommit);
  PutU32(rec.data() + 8, static_cast<uint32_t>(payload_len));
  // crc at 12 stays zero until the end
  PutU64(rec.data() + 16, commit.lsn);

  uint8_t* p = rec.data() + kWalHeaderBytes;
  PutU32(p + 0, commit.root);
  PutU64(p + 4, commit.object_count);
  PutU32(p + 12, static_cast<uint32_t>(commit.deltas.size()));
  p += kWalCommitFixedBytes;
  for (const WalPageDelta& d : commit.deltas) {
    PutU32(p + 0, d.page);
    PutI32(p + 4, d.loc.disk);
    PutU64(p + 8, d.loc.offset);
    p[16] = d.loc.level;
    PutI32(p + 17, d.loc.mirror);
    PutU32(p + 21, d.loc.cylinder);
    p[25] = d.loc.live ? 0 : 1;
    p += kWalDeltaBytes;
  }
  PutU32(rec.data() + 12, Crc32c(rec.data(), rec.size()));
  return rec;
}

common::Result<WalScanResult> ScanWal(const PageStore& store, int disk) {
  auto size = store.SizeOf(disk);
  if (!size.ok()) return size.status();

  WalScanResult out;
  uint64_t pos = 0;
  std::vector<uint8_t> buf;
  while (pos + kWalHeaderBytes <= *size) {
    uint8_t header[kWalHeaderBytes];
    SQP_RETURN_IF_ERROR(
        store.ReadAt(disk, pos, header, kWalHeaderBytes));
    if (GetU32(header + 0) != kWalMagic) break;
    if (GetU16(header + 6) != kWalRecordCommit) break;
    const uint32_t payload_len = GetU32(header + 8);
    if (payload_len > kMaxPayloadBytes) break;
    if (pos + kWalHeaderBytes + payload_len > *size) break;

    buf.resize(kWalHeaderBytes + payload_len);
    std::memcpy(buf.data(), header, kWalHeaderBytes);
    SQP_RETURN_IF_ERROR(store.ReadAt(disk, pos + kWalHeaderBytes,
                                     buf.data() + kWalHeaderBytes,
                                     payload_len));
    const uint32_t stored_crc = GetU32(buf.data() + 12);
    PutU32(buf.data() + 12, 0);
    if (Crc32c(buf.data(), buf.size()) != stored_crc) break;
    // The framing (magic, type, length, CRC) is shared by every version,
    // so a record that passed it was really written — by this build or
    // another.
    const uint16_t version = GetU16(header + 4);
    if (version != kFormatVersion) {
      return common::Status::InvalidArgument(
          "WAL record at byte " + std::to_string(pos) +
          ": unsupported format version " + std::to_string(version) +
          " (this build reads version " + std::to_string(kFormatVersion) +
          "; re-save the index with a matching build)");
    }
    if (payload_len < kWalCommitFixedBytes ||
        (payload_len - kWalCommitFixedBytes) % kWalDeltaBytes != 0) {
      break;
    }
    if (GetU64(header + 16) != out.next_lsn) break;

    const uint8_t* p = buf.data() + kWalHeaderBytes;
    WalCommit commit;
    commit.lsn = out.next_lsn;
    commit.root = GetU32(p + 0);
    commit.object_count = GetU64(p + 4);
    const uint32_t delta_count = GetU32(p + 12);
    if (delta_count !=
        (payload_len - kWalCommitFixedBytes) / kWalDeltaBytes) {
      break;
    }
    p += kWalCommitFixedBytes;
    commit.deltas.resize(delta_count);
    for (uint32_t i = 0; i < delta_count; ++i, p += kWalDeltaBytes) {
      WalPageDelta& d = commit.deltas[i];
      d.page = GetU32(p + 0);
      d.loc.disk = GetI32(p + 4);
      d.loc.offset = GetU64(p + 8);
      d.loc.level = p[16];
      d.loc.mirror = GetI32(p + 17);
      d.loc.cylinder = GetU32(p + 21);
      d.loc.live = p[25] == 0;
    }
    out.records.push_back(std::move(commit));
    pos += kWalHeaderBytes + payload_len;
    ++out.next_lsn;
  }
  out.valid_end_offset = pos;
  out.torn_tail = pos < *size;
  return out;
}

WalWriter::WalWriter(PageStore* store, int disk, uint64_t next_lsn,
                     uint64_t tail_offset)
    : store_(store),
      disk_(disk),
      next_lsn_(next_lsn),
      tail_offset_(tail_offset) {
  SQP_CHECK(store != nullptr);
  SQP_CHECK(disk >= 0 && disk < store->num_disks());
  SQP_CHECK(next_lsn >= 1);
}

common::Status WalWriter::AppendCommit(WalCommit* commit) {
  commit->lsn = next_lsn_;
  const std::vector<uint8_t> rec = EncodeWalCommit(*commit);
  common::Status s =
      store_->WriteAt(disk_, tail_offset_, rec.data(), rec.size());
  if (s.ok()) s = store_->Sync();
  if (!s.ok()) {
    commit->lsn = 0;  // not committed; bytes on disk are a torn tail
    return s;
  }
  tail_offset_ += rec.size();
  ++next_lsn_;
  return common::Status::OK();
}

common::Status WalWriter::Reset() {
  SQP_RETURN_IF_ERROR(store_->Truncate(disk_));
  SQP_RETURN_IF_ERROR(store_->Sync());
  next_lsn_ = 1;
  tail_offset_ = 0;
  return common::Status::OK();
}

}  // namespace sqp::storage
