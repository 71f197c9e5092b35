#include "storage/node_codec.h"

#include <cmath>

#include "common/check.h"
#include "geometry/point.h"
#include "geometry/rect.h"

namespace sqp::storage {

size_t EntryRecordBytes(int dim) { return 8 * static_cast<size_t>(dim) + 8; }

size_t EntriesPerPage(int dim, size_t page_size) {
  if (page_size < kPageHeaderBytes) return 0;
  return (page_size - kPageHeaderBytes) / EntryRecordBytes(dim);
}

common::Status CheckOneNodePerPage(const rstar::TreeConfig& config) {
  if (config.allow_supernodes) {
    return common::Status::InvalidArgument(
        "X-tree supernodes span several pages; a stored index holds one "
        "node per page (build it with allow_supernodes = false)");
  }
  const size_t per_page = EntriesPerPage(
      config.dim, static_cast<size_t>(config.page_size_bytes));
  if (per_page < static_cast<size_t>(config.MaxEntries())) {
    return common::Status::InvalidArgument(
        "a full node of " + std::to_string(config.MaxEntries()) +
        " entries does not fit one " +
        std::to_string(config.page_size_bytes) + "-byte page at dim " +
        std::to_string(config.dim) + " (the page holds " +
        std::to_string(per_page) + "); use larger pages");
  }
  return common::Status::OK();
}

void EncodeNode(const rstar::Node& node, int dim, size_t page_size,
                std::vector<uint8_t>* out) {
  const size_t record_bytes = EntryRecordBytes(dim);
  SQP_CHECK(node.entries.size() <= EntriesPerPage(dim, page_size));
  const size_t base = out->size();
  out->resize(base + page_size, 0);
  uint8_t* page = out->data() + base;

  PageHeader h;
  h.type = PageType::kNode;
  h.level = static_cast<uint8_t>(node.level);
  h.page_id = node.id;
  h.entry_count = static_cast<uint32_t>(node.entries.size());
  WritePageHeader(h, page);

  uint8_t* rec = page + kPageHeaderBytes;
  for (const rstar::Entry& e : node.entries) {
    SQP_DCHECK(e.mbr.dim() == dim);
    for (int c = 0; c < dim; ++c) PutF32(rec + 4 * c, e.mbr.lo()[c]);
    for (int c = 0; c < dim; ++c) PutF32(rec + 4 * (dim + c), e.mbr.hi()[c]);
    if (node.IsLeaf()) {
      SQP_DCHECK(e.count == 1);
      PutU64(rec + 8 * dim, e.object);
    } else {
      PutU32(rec + 8 * dim, e.child);
      PutU32(rec + 8 * dim + 4, e.count);
    }
    rec += record_bytes;
  }
  SealPage(page, page_size);
}

common::Result<rstar::Node> DecodeNode(const uint8_t* page, int dim,
                                       size_t page_size,
                                       rstar::PageId expected_id,
                                       const std::string& what) {
  SQP_RETURN_IF_ERROR(CheckPage(page, page_size, PageType::kNode, what));
  const PageHeader h = ReadPageHeader(page);
  if (h.page_id != expected_id) {
    return CorruptionError(what + ": page holds node " +
                           std::to_string(h.page_id));
  }
  // Bound before reserving: a crafted-but-checksummed header could
  // otherwise demand a multi-gigabyte allocation.
  const size_t per_page = EntriesPerPage(dim, page_size);
  if (h.entry_count > per_page) {
    return CorruptionError(what + ": entry count " +
                           std::to_string(h.entry_count) +
                           " exceeds page capacity " +
                           std::to_string(per_page));
  }

  rstar::Node node;
  node.id = expected_id;
  node.level = h.level;
  node.entries.reserve(h.entry_count);
  const size_t record_bytes = EntryRecordBytes(dim);
  const uint8_t* rec = page + kPageHeaderBytes;
  for (uint32_t i = 0; i < h.entry_count; ++i, rec += record_bytes) {
    std::vector<geometry::Coord> lo(static_cast<size_t>(dim));
    std::vector<geometry::Coord> hi(static_cast<size_t>(dim));
    for (int c = 0; c < dim; ++c) {
      const float l = GetF32(rec + 4 * c);
      const float u = GetF32(rec + 4 * (dim + c));
      if (std::isnan(l) || std::isnan(u) || l > u) {
        return CorruptionError(what + ": invalid MBR in entry " +
                               std::to_string(i));
      }
      lo[static_cast<size_t>(c)] = l;
      hi[static_cast<size_t>(c)] = u;
    }
    rstar::Entry e;
    e.mbr = geometry::Rect(geometry::Point::FromVector(std::move(lo)),
                           geometry::Point::FromVector(std::move(hi)));
    if (node.IsLeaf()) {
      e.object = GetU64(rec + 8 * dim);
      e.count = 1;
    } else {
      e.child = GetU32(rec + 8 * dim);
      e.count = GetU32(rec + 8 * dim + 4);
      if (e.child == rstar::kInvalidPage) {
        return CorruptionError(what + ": invalid child pointer in entry " +
                               std::to_string(i));
      }
    }
    node.entries.push_back(std::move(e));
  }
  // EncodeNode zero-fills past the last record; anything else there means
  // the header's entry count does not describe this page.
  for (const uint8_t* end = page + page_size; rec < end; ++rec) {
    if (*rec != 0) {
      return CorruptionError(what + ": bytes past entry " +
                             std::to_string(h.entry_count) + " are not zero");
    }
  }
  return node;
}

}  // namespace sqp::storage
