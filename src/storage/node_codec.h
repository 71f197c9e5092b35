// Portable (de)serialization of rstar::Node into one fixed-size page.
//
// A node is one page (paper §2.1): the page header (page_format.h), then
// `entry_count` records of 8*dim + 8 bytes each — the tree's own entry
// footprint, rstar::TreeConfig::EntryBytes(). Little-endian:
//
//   leaf record      0        f32[dim]  lower corner
//                    4*dim    f32[dim]  upper corner
//                    8*dim    u64       ObjectId
//   internal record  0        f32[dim]  MBR lower corner
//                    4*dim    f32[dim]  MBR upper corner
//                    8*dim    u32       child PageId
//                    8*dim+4  u32       subtree object count (Lemma 1)
//
// A leaf entry's count is always 1, so it is not stored; decode restores
// it. Served indexes never hold a node larger than one page: SaveIndex
// and the index readers refuse a TreeConfig that allows X-tree supernodes
// or whose MaxEntries() node does not fit (CheckOneNodePerPage).

#ifndef SQP_STORAGE_NODE_CODEC_H_
#define SQP_STORAGE_NODE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "rstar/config.h"
#include "rstar/node.h"
#include "storage/page_format.h"

namespace sqp::storage {

// Entry record footprint for dimensionality `dim` (leaf and internal).
size_t EntryRecordBytes(int dim);

// Entry records that fit in one page after the header (0 when not even
// one does).
size_t EntriesPerPage(int dim, size_t page_size);

// OK when every node a tree of `config` can build fits one page: no
// supernodes, and EntriesPerPage >= MaxEntries(). InvalidArgument
// otherwise — the `max(m, 4)` fanout floor of MaxEntries() can exceed a
// small page at high dimensionality.
common::Status CheckOneNodePerPage(const rstar::TreeConfig& config);

// Serializes `node` into one sealed page, appended to `out`. The node must
// fit: at most EntriesPerPage(dim, page_size) entries.
void EncodeNode(const rstar::Node& node, int dim, size_t page_size,
                std::vector<uint8_t>* out);

// Decodes the node page at `page` (exactly `page_size` bytes), verifying
// its checksum, that it is a node page for `expected_id`, and every
// entry. `what` names the page in error messages.
common::Result<rstar::Node> DecodeNode(const uint8_t* page, int dim,
                                       size_t page_size,
                                       rstar::PageId expected_id,
                                       const std::string& what);

}  // namespace sqp::storage

#endif  // SQP_STORAGE_NODE_CODEC_H_
