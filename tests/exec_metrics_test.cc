// Conservation identities between the engine's QueryOutcome counters and
// the MetricsRegistry instruments (docs/OBSERVABILITY.md): the same
// events counted at two layers must agree exactly. Each test uses an
// engine-exclusive registry so the identities hold with equality, not >=.
//
//   * cache:   sqp_cache_hits_total + sqp_cache_misses_total
//                == sqp_engine_page_requests_total          (always)
//   * reader:  sum over disks of sqp_reader_pages_read_total{disk=d}
//                == sqp_engine_pages_fetched_total          (no cache,
//                                                            fault-free)
//   * retries: sum of QueryOutcome::io_retries
//                == sqp_reader_retries_total                (transient
//                                                            faults only)

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "exec/parallel_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_tree.h"
#include "storage/fault_injection.h"
#include "storage/index_io.h"
#include "storage/page_store.h"
#include "tests/test_seeds.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"

namespace sqp {
namespace {

using geometry::Point;
using storage::FaultInjectingPageStore;
using storage::FaultKind;
using storage::FaultSpec;

constexpr uint64_t kRigSeed = 3;  // within the shared property-sweep range
static_assert(kRigSeed <= test_seeds::kPropertySweepSeeds);

struct MetricsRig {
  std::unique_ptr<parallel::ParallelRStarTree> index;
  storage::MemPageStore store{4};
  std::vector<exec::EngineQuery> queries;
};

MetricsRig MakeRig(size_t n_queries) {
  MetricsRig rig;
  const workload::Dataset data =
      workload::MakeClustered(1200, 2, 6, 0.1, kRigSeed);
  rstar::TreeConfig tree_config;
  tree_config.dim = 2;
  tree_config.max_entries_override = 10;
  parallel::DeclusterConfig dc;
  dc.num_disks = 4;
  dc.policy = parallel::DeclusterPolicy::kProximityIndex;
  dc.seed = kRigSeed;
  rig.index = workload::BuildParallelIndex(data, tree_config, dc);
  SQP_CHECK(storage::SaveIndex(*rig.index, &rig.store).ok());

  constexpr core::AlgorithmKind kKinds[] = {
      core::AlgorithmKind::kBbss, core::AlgorithmKind::kFpss,
      core::AlgorithmKind::kCrss, core::AlgorithmKind::kWoptss};
  common::Rng rng(kRigSeed * 7 + 5);
  for (size_t i = 0; i < n_queries; ++i) {
    const Point q{static_cast<geometry::Coord>(rng.Uniform()),
                  static_cast<geometry::Coord>(rng.Uniform())};
    rig.queries.push_back({q, 10, kKinds[i % 4]});
  }
  return rig;
}

struct OutcomeTotals {
  size_t ok = 0, failed = 0, steps = 0, pages = 0, hits = 0, misses = 0;
  uint64_t faults = 0, retries = 0;
};

OutcomeTotals Sum(const std::vector<exec::QueryOutcome>& outcomes) {
  OutcomeTotals t;
  for (const exec::QueryOutcome& o : outcomes) {
    if (o.status.ok()) {
      ++t.ok;
    } else {
      ++t.failed;
    }
    t.steps += o.steps;
    t.pages += o.pages_fetched;
    t.hits += o.cache_hits;
    t.misses += o.cache_misses;
    t.faults += o.io_faults;
    t.retries += o.io_retries;
  }
  return t;
}

// Every page id an algorithm requests goes through the cache exactly once
// per step, so hits + misses accounts for every request — with a warm,
// churning, or even zero-capacity cache.
TEST(ExecMetricsTest, CacheHitsPlusMissesEqualPageRequests) {
  MetricsRig rig = MakeRig(60);
  exec::EngineOptions options;
  options.query_threads = 4;
  options.cache_pages = 64;  // small enough to evict: hits AND misses
  auto engine =
      exec::ParallelQueryEngine::Create(*rig.index, &rig.store, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const OutcomeTotals t = Sum((*engine)->RunBatch(rig.queries));
  ASSERT_EQ(t.failed, 0u);

  const obs::MetricsSnapshot snap = (*engine)->metrics()->Snapshot();
  const uint64_t hits = snap.CounterValue("sqp_cache_hits_total");
  const uint64_t misses = snap.CounterValue("sqp_cache_misses_total");
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(hits + misses, snap.CounterValue("sqp_engine_page_requests_total"));

  // The registry totals are exactly the outcome totals.
  EXPECT_EQ(hits, t.hits);
  EXPECT_EQ(misses, t.misses);
  EXPECT_EQ(snap.CounterValue("sqp_engine_steps_total"), t.steps);
  EXPECT_EQ(snap.CounterValue("sqp_engine_pages_fetched_total"), t.pages);
  EXPECT_EQ(snap.CounterValue("sqp_engine_queries_total"), rig.queries.size());
  EXPECT_EQ(snap.CounterValue("sqp_engine_query_failures_total"), 0u);
  EXPECT_EQ(snap.GaugeValue("sqp_engine_inflight_queries"), 0);

  const obs::HistogramSnapshot* lat =
      snap.FindHistogram("sqp_engine_query_latency_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->TotalCount(), rig.queries.size());
  const obs::HistogramSnapshot* batch =
      snap.FindHistogram("sqp_engine_batch_pages");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->TotalCount(), t.steps);
}

// With no cache and no faults, every page the engine counts as fetched
// was read from exactly one disk, so the per-disk reader counters sum to
// the engine total — exactly, with no carve-out term. Run on the serial
// and the threads backend: the identity may not depend on how reads
// reach the media. One query in flight at a time: even a zero-capacity
// cache shares pages that a concurrent query holds pinned, and any such
// hit would be a page fetched but not read from a disk.
TEST(ExecMetricsTest, PerDiskReadsSumToPagesFetched) {
  for (const exec::IoBackendKind backend :
       {exec::IoBackendKind::kThreads, exec::IoBackendKind::kSerial}) {
    MetricsRig rig = MakeRig(40);
    exec::EngineOptions options;
    options.query_threads = 1;
    options.cache_pages = 0;  // every fetch reads the store
    options.io_backend = backend;
    auto engine =
        exec::ParallelQueryEngine::Create(*rig.index, &rig.store, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    const std::string name = (*engine)->io_backend_name();

    const OutcomeTotals t = Sum((*engine)->RunBatch(rig.queries));
    ASSERT_EQ(t.failed, 0u);
    EXPECT_EQ(t.hits, 0u) << "zero-capacity cache produced hits";

    const obs::MetricsSnapshot snap = (*engine)->metrics()->Snapshot();
    const uint64_t per_disk_sum =
        snap.CounterSumByPrefix("sqp_reader_pages_read_total");
    EXPECT_EQ(per_disk_sum, snap.CounterValue("sqp_engine_pages_fetched_total"))
        << name;
    EXPECT_EQ(per_disk_sum, t.pages) << name;

    // Declustering actually spread the load: every disk served pages.
    for (int d = 0; d < (*engine)->num_disks(); ++d) {
      EXPECT_GT(snap.CounterValue(
                    obs::WithLabel("sqp_reader_pages_read_total", "disk", d)),
                0u)
          << "disk " << d << " served nothing on " << name;
    }
  }
}

// Transient-only faults with a generous retry budget: every query heals,
// and the retries it reports are exactly the retries the reader issued.
TEST(ExecMetricsTest, RetriesSurfaceInOutcomesAndRegistry) {
  MetricsRig rig = MakeRig(60);
  FaultInjectingPageStore faulty(&rig.store,
                                 test_seeds::FaultInjectorSeed(kRigSeed));
  FaultSpec spec;
  spec.kind = FaultKind::kTransientError;
  spec.probability = 1.0 / 25.0;
  faulty.AddFault(spec);

  exec::EngineOptions options;
  options.query_threads = 4;
  options.cache_pages = 0;  // keep every read visible to the injector
  options.retry.max_attempts = 6;
  options.retry.initial_backoff_s = 1e-6;
  options.retry.max_backoff_s = 1e-5;
  auto engine = exec::ParallelQueryEngine::Create(*rig.index, &faulty, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const OutcomeTotals t = Sum((*engine)->RunBatch(rig.queries));
  ASSERT_EQ(t.failed, 0u) << "transient faults should heal under retry";
  ASSERT_GT(faulty.stats().faults, 0u) << "the injector never fired";
  EXPECT_GT(t.retries, 0u);

  const obs::MetricsSnapshot snap = (*engine)->metrics()->Snapshot();
  EXPECT_EQ(snap.CounterValue("sqp_reader_retries_total"), t.retries);
  EXPECT_EQ(snap.CounterValue("sqp_reader_faults_total"), t.faults);
  EXPECT_EQ(snap.CounterValue("sqp_reader_failed_records_total"), 0u);
  EXPECT_EQ(snap.CounterValue("sqp_engine_query_failures_total"), 0u);

  // And the reader's own running totals agree with both.
  const exec::ReaderFaultTotals totals = (*engine)->reader().fault_totals();
  EXPECT_EQ(totals.retries, t.retries);
  EXPECT_EQ(totals.faults, t.faults);
  EXPECT_EQ(totals.failed_records, 0u);
}

TEST(ExecMetricsTest, UnmeteredEngineHasNoRegistryOrTrace) {
  MetricsRig rig = MakeRig(8);
  exec::EngineOptions options;
  options.enable_metrics = false;
  options.trace_capacity = 0;
  auto engine =
      exec::ParallelQueryEngine::Create(*rig.index, &rig.store, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine)->metrics(), nullptr);
  EXPECT_EQ((*engine)->trace(), nullptr);
  // The unmetered engine still answers, and per-outcome counters still work.
  const OutcomeTotals t = Sum((*engine)->RunBatch(rig.queries));
  EXPECT_EQ(t.failed, 0u);
  EXPECT_GT(t.pages, 0u);
}

// A caller-supplied registry receives the engine's instruments (several
// engines may share one registry; each test above relies on exclusivity,
// a server would rely on sharing).
TEST(ExecMetricsTest, ExternalRegistryIsHonored) {
  MetricsRig rig = MakeRig(8);
  obs::MetricsRegistry reg;
  reg.GetCounter("preexisting")->Add(7);
  exec::EngineOptions options;
  options.metrics = &reg;
  auto engine =
      exec::ParallelQueryEngine::Create(*rig.index, &rig.store, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine)->metrics(), &reg);

  (void)(*engine)->RunBatch(rig.queries);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("sqp_engine_queries_total"), rig.queries.size());
  EXPECT_EQ(snap.CounterValue("preexisting"), 7u);
}

// Outcomes and trace spans are tied together by engine-unique query ids:
// every outcome's id is distinct, and its closing "query" span carries
// the same totals the outcome does.
TEST(ExecMetricsTest, TraceSpansMatchOutcomes) {
  MetricsRig rig = MakeRig(24);
  exec::EngineOptions options;
  options.query_threads = 4;
  options.trace_capacity = 4096;  // large enough: nothing dropped
  auto engine =
      exec::ParallelQueryEngine::Create(*rig.index, &rig.store, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const std::vector<exec::QueryOutcome> outcomes =
      (*engine)->RunBatch(rig.queries);
  std::set<uint64_t> ids;
  for (const exec::QueryOutcome& o : outcomes) {
    ASSERT_TRUE(o.status.ok());
    EXPECT_TRUE(ids.insert(o.query_id).second)
        << "duplicate query id " << o.query_id;
  }

  const obs::TraceRecorder* trace = (*engine)->trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->dropped(), 0u);
  size_t query_spans = 0;
  for (const obs::TraceSpan& span : trace->Snapshot()) {
    EXPECT_EQ(ids.count(span.query_id), 1u);
    if (std::string(span.phase) == "step") {
      // Step spans balance per step: every requested id hit or missed.
      EXPECT_EQ(span.cache_hits + span.cache_misses, span.batch_requests);
      continue;
    }
    ASSERT_EQ(std::string(span.phase), "query");
    ++query_spans;
    const auto it =
        std::find_if(outcomes.begin(), outcomes.end(),
                     [&](const exec::QueryOutcome& o) {
                       return o.query_id == span.query_id;
                     });
    ASSERT_NE(it, outcomes.end());
    EXPECT_EQ(span.step, it->steps);
    EXPECT_EQ(span.pages, it->pages_fetched);
    EXPECT_EQ(span.cache_hits, it->cache_hits);
    EXPECT_EQ(span.cache_misses, it->cache_misses);
    EXPECT_EQ(span.io_retries, it->io_retries);
  }
  EXPECT_EQ(query_spans, outcomes.size());
}

}  // namespace
}  // namespace sqp
