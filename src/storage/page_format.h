// On-disk page format shared by every persistent structure (docs/STORAGE.md).
//
// All multi-byte fields are little-endian regardless of host byte order.
// Every page starts with a fixed 20-byte header carrying a magic number,
// the format version, the page type and a CRC32C checksum computed over
// the whole page (with the checksum field itself zeroed). Readers verify
// magic, version and checksum before interpreting a single payload byte,
// so corruption surfaces as a common::Status error instead of undefined
// behavior.

#ifndef SQP_STORAGE_PAGE_FORMAT_H_
#define SQP_STORAGE_PAGE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace sqp::storage {

// "SQPG" in ASCII; first four bytes of every page.
inline constexpr uint32_t kPageMagic = 0x47505153;

// Bumped whenever the page or WAL record layout changes incompatibly.
// Readers reject any other version with a clear error (no silent
// reinterpretation). Version 2: one node per page, 8*dim + 8-byte records,
// 20-byte header.
inline constexpr uint16_t kFormatVersion = 2;

enum class PageType : uint8_t {
  kSuperblock = 1,  // per-disk-file metadata + index configuration
  kDirectory = 2,   // page-id -> file-offset records for one disk
  kNode = 3,        // one serialized tree node
};

// Header layout (byte offsets within the page):
//   0  u32 magic
//   4  u16 format version
//   6  u8  page type
//   7  u8  node level (kNode; 0 otherwise)
//   8  u32 crc32c over the page with these four bytes zeroed
//   12 u32 page id: the node's tree PageId, a directory page's position
//          in its disk's directory, 0 for the superblock
//   16 u32 entry count (node entries / directory records)
// The header is no larger than the tree's own node-header allowance
// (rstar::kNodeHeaderBytes), so a node of TreeConfig::MaxEntries() fits
// one page whenever its records do (node_codec.h).
inline constexpr size_t kPageHeaderBytes = 20;
inline constexpr size_t kCrcFieldOffset = 8;

struct PageHeader {
  PageType type = PageType::kNode;
  uint8_t level = 0;
  uint32_t page_id = 0;
  uint32_t entry_count = 0;
};

// --- Little-endian primitives -------------------------------------------

inline void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
inline void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
inline void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}
inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}
inline uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}
inline void PutF32(uint8_t* p, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(p, bits);
}
inline float GetF32(const uint8_t* p) {
  const uint32_t bits = GetU32(p);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
inline void PutF64(uint8_t* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(p, bits);
}
inline double GetF64(const uint8_t* p) {
  const uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
inline void PutI32(uint8_t* p, int32_t v) {
  PutU32(p, static_cast<uint32_t>(v));
}
inline int32_t GetI32(const uint8_t* p) {
  return static_cast<int32_t>(GetU32(p));
}

// --- Checksumming -------------------------------------------------------

// CRC32C (Castagnoli polynomial, as used by iSCSI/ext4/LevelDB). Software
// table implementation; `Crc32cExtend` continues a running checksum.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);
uint32_t Crc32c(const void* data, size_t len);

// An error class for on-disk damage (bit rot, truncation, foreign files).
// Kept distinct from InvalidArgument so callers can tell "you handed me a
// bad argument" from "the bytes on disk are bad".
common::Status CorruptionError(std::string message);
bool IsCorruption(const common::Status& s);

// --- Page header read/write ---------------------------------------------

// Writes magic, version and `h` into `page` (checksum left zero). The
// payload must be filled in afterwards, then the page sealed.
void WritePageHeader(const PageHeader& h, uint8_t* page);

// Computes and stamps the checksum of a fully assembled page. Must be the
// last write to the buffer.
void SealPage(uint8_t* page, size_t page_size);

// Verifies magic, format version and checksum of `page`, in that order,
// and checks the page type. `what` names the page in error messages, e.g.
// "disk 3 page 17". Returns CorruptionError / InvalidArgument on failure.
common::Status CheckPage(const uint8_t* page, size_t page_size,
                         PageType expected_type, const std::string& what);

// Parses the header fields. Call only after CheckPage succeeded.
PageHeader ReadPageHeader(const uint8_t* page);

}  // namespace sqp::storage

#endif  // SQP_STORAGE_PAGE_FORMAT_H_
