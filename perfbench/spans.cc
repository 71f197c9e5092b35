#include "spans.h"

#include <cstdio>

#include "harness.h"

namespace sqp::perfbench {

void SpanLog::Record(uint64_t id, uint64_t parent, const char* name,
                     double start_s, double end_s) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, name, start_s, end_s});
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":%s,\"start_s\":%s,"
                 "\"end_s\":%s}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 JsonString(s.name).c_str(), JsonNumber(s.start_s).c_str(),
                 JsonNumber(s.end_s).c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

ObservedPageStore::ObservedPageStore(const storage::PageStore* base,
                                     StoreCounters* counters, SpanLog* log)
    : rbase_(base), wbase_(nullptr), counters_(counters), log_(log) {}

ObservedPageStore::ObservedPageStore(storage::PageStore* base,
                                     StoreCounters* counters, SpanLog* log)
    : rbase_(base), wbase_(base), counters_(counters), log_(log) {}

template <typename F>
common::Status ObservedPageStore::TimedRead(F&& f) const {
  counters_->read_calls.fetch_add(1, std::memory_order_relaxed);
  if (!log_->enabled()) return f();
  const double start = NowS();
  common::Status s = f();
  const double end = NowS();
  counters_->read_ns.fetch_add(static_cast<uint64_t>((end - start) * 1e9),
                               std::memory_order_relaxed);
  log_->Record(log_->NewId(), log_->ambient_parent(), "storage.read_pages",
               start, end);
  return s;
}

common::Status ObservedPageStore::ReadAt(int disk, uint64_t offset, void* buf,
                                         size_t len) const {
  return TimedRead([&] { return rbase_->ReadAt(disk, offset, buf, len); });
}

common::Status ObservedPageStore::ReadPages(
    std::span<const storage::ReadRequest> requests) const {
  return TimedRead([&] { return rbase_->ReadPages(requests); });
}

common::Status ObservedPageStore::WriteAt(int disk, uint64_t offset,
                                          const void* buf, size_t len) {
  if (wbase_ == nullptr) {
    return common::Status::FailedPrecondition("read-only observed store");
  }
  const common::Status s = wbase_->WriteAt(disk, offset, buf, len);
  if (s.ok()) {
    counters_->bytes_written.fetch_add(len, std::memory_order_relaxed);
  }
  return s;
}

common::Status ObservedPageStore::Truncate(int disk) {
  if (wbase_ == nullptr) {
    return common::Status::FailedPrecondition("read-only observed store");
  }
  return wbase_->Truncate(disk);
}

common::Status ObservedPageStore::Sync() {
  if (wbase_ == nullptr) return common::Status::OK();
  counters_->sync_calls.fetch_add(1, std::memory_order_relaxed);
  if (!log_->enabled()) return wbase_->Sync();
  const double start = NowS();
  const common::Status s = wbase_->Sync();
  const double end = NowS();
  counters_->sync_ns.fetch_add(static_cast<uint64_t>((end - start) * 1e9),
                               std::memory_order_relaxed);
  log_->Record(log_->NewId(), log_->ambient_parent(), "storage.sync", start,
               end);
  return s;
}

common::Result<storage::GenerationStores> ObservedGenerationEnv::Wrap(
    common::Result<storage::GenerationStores> opened) {
  if (!opened.ok()) return opened.status();
  storage::GenerationStores stores = std::move(opened.value());
  auto data =
      std::make_unique<ObservedPageStore>(stores.data, counters_, log_);
  auto wal = std::make_unique<ObservedPageStore>(stores.wal, counters_, log_);
  stores.data = data.get();
  stores.wal = wal.get();
  stores.owned.push_back(std::move(data));
  stores.owned.push_back(std::move(wal));
  return stores;
}

}  // namespace sqp::perfbench
