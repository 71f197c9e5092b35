// Resumable interfaces shared by all query algorithms.
//
// Algorithms are written as state machines that communicate in *batches of
// page requests*: the executor (sequential counter or event-driven disk
// array simulator) fetches a batch — in parallel where the declustering
// permits — and hands the pages back. This mirrors the paper's activation
// list / fetch list structures and lets the exact same algorithm object run
// under both executors.

#ifndef SQP_CORE_SEARCH_ALGORITHM_H_
#define SQP_CORE_SEARCH_ALGORITHM_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/flat_node.h"
#include "core/knn_result.h"
#include "rstar/types.h"

namespace sqp::core {

// A page delivered to the algorithm, in plane-major (structure-of-arrays)
// form ready for the geometry/kernels.h batch kernels. The node pointer
// stays valid for the duration of the callback only.
struct FetchedPage {
  rstar::PageId id = rstar::kInvalidPage;
  const FlatNode* node = nullptr;
};

// Output of one processing step.
struct StepResult {
  // Pages to fetch next; the executor delivers them all before the next
  // OnPagesFetched call. Empty together with done=false is illegal.
  std::vector<rstar::PageId> requests;
  // CPU instructions consumed by the processing that produced this step
  // (the paper's 2N + 3M log M model); charged by the simulator.
  uint64_t cpu_instructions = 0;
  // True when the query is answered; `requests` must then be empty.
  bool done = false;
};

// Any query that walks the tree in batch rounds: k-NN search, parallel
// range queries, and future traversals. Executors depend only on this.
class BatchTraversal {
 public:
  virtual ~BatchTraversal() = default;

  // Starts the query. Typically requests the root page. May return
  // done=true immediately (empty tree).
  virtual StepResult Begin() = 0;

  // Consumes a completed batch; every page previously requested is
  // delivered exactly once, in request order.
  virtual StepResult OnPagesFetched(const std::vector<FetchedPage>& pages) = 0;

  // Number of result items produced so far (k-NN neighbors, range query
  // matches, ...). Final once a step returned done=true.
  virtual size_t ResultCount() const = 0;

  // True for algorithms that may legitimately fetch the same page more
  // than once (e.g. RQSS re-walks the tree each phase). Executors use this
  // to decide whether a duplicate fetch indicates a bug.
  virtual bool MayRefetchPages() const { return false; }

  virtual std::string_view name() const = 0;
};

// A k-nearest-neighbor traversal.
class SearchAlgorithm : public BatchTraversal {
 public:
  // The k nearest neighbors found. Valid once a step returned done=true.
  virtual const KnnResultSet& result() const = 0;

  size_t ResultCount() const override { return result().size(); }
};

// CPU cost of scanning `n_scanned` entries and sorting `m_sorted` of them
// (paper §4.1): 2N + 3M*log2(M) instructions.
uint64_t ScanSortCost(uint64_t n_scanned, uint64_t m_sorted);

}  // namespace sqp::core

#endif  // SQP_CORE_SEARCH_ALGORITHM_H_
