// The streaming query service, bottom to top: wire protocol round trips,
// the paged distance browser's equivalence to its sequential form and to
// the batch k-NN algorithms, engine deadlines/cancellation (and that both
// leave zero pinned cache frames behind), the QueryService's incremental
// delivery on throttled media, typed admission-control shedding, and the
// TCP front end with its three protocols on one port.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include "core/algorithms.h"
#include "core/distance_browser.h"
#include "core/range_search.h"
#include "core/sequential_executor.h"
#include "exec/parallel_engine.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "storage/page_store.h"
#include "storage/index_io.h"
#include "tests/test_seeds.h"
#include "workload/dataset.h"
#include "workload/index_builder.h"
#include "workload/workload.h"

namespace sqp::server {
namespace {

using core::AlgorithmKind;
using core::Neighbor;
using geometry::Point;
using workload::Dataset;

std::unique_ptr<parallel::ParallelRStarTree> BuildIndex(const Dataset& data,
                                                        int disks,
                                                        int fanout = 16) {
  rstar::TreeConfig tree_cfg;
  tree_cfg.dim = data.dim;
  tree_cfg.max_entries_override = fanout;
  parallel::DeclusterConfig dc;
  dc.num_disks = disks;
  dc.seed = 1;
  return workload::BuildParallelIndex(data, tree_cfg, dc);
}

// An engine over an in-memory image of `index`, optionally with a fixed
// per-read latency (the throttled-media scenarios).
struct EngineFixture {
  std::unique_ptr<storage::MemPageStore> mem;
  std::unique_ptr<storage::ThrottledPageStore> throttled;
  std::unique_ptr<exec::ParallelQueryEngine> engine;

  static EngineFixture Create(const parallel::ParallelRStarTree& index,
                              double read_latency_s = 0.0,
                              int query_threads = 4) {
    EngineFixture f;
    f.mem = std::make_unique<storage::MemPageStore>(index.num_disks());
    EXPECT_TRUE(storage::SaveIndex(index, f.mem.get()).ok());
    const storage::PageStore* store = f.mem.get();
    if (read_latency_s > 0.0) {
      f.throttled = std::make_unique<storage::ThrottledPageStore>(
          f.mem.get(), read_latency_s);
      store = f.throttled.get();
    }
    exec::EngineOptions opts;
    opts.query_threads = query_threads;
    auto engine = exec::ParallelQueryEngine::Create(index, store, opts);
    EXPECT_TRUE(engine.ok()) << engine.status();
    f.engine = std::move(*engine);
    return f;
  }
};

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].object, b[i].object) << "position " << i;
    EXPECT_EQ(a[i].dist_sq, b[i].dist_sq) << "position " << i;
  }
}

// --- ProtocolTest ---------------------------------------------------------

TEST(ProtocolTest, QuerySpecRoundTrips) {
  QuerySpec spec;
  spec.mode = QueryMode::kRange;
  spec.algo = AlgorithmKind::kBbss;
  spec.point = Point{1.5, -2.25, 7.0};
  spec.k = 42;
  spec.radius = 0.125;
  spec.deadline_s = 1.75;
  spec.priority = -3;

  auto decoded = DecodeQuerySpec(EncodeQuerySpec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->mode, spec.mode);
  EXPECT_EQ(decoded->algo, spec.algo);
  EXPECT_EQ(decoded->point, spec.point);
  EXPECT_EQ(decoded->k, spec.k);
  EXPECT_EQ(decoded->radius, spec.radius);
  EXPECT_EQ(decoded->deadline_s, spec.deadline_s);
  EXPECT_EQ(decoded->priority, spec.priority);
}

TEST(ProtocolTest, ChunkAndDoneRoundTrip) {
  std::vector<Neighbor> neighbors = {{7, 0.25}, {11, 1.5}, {3, 1.5}};
  auto chunk = DecodeChunk(EncodeChunk(neighbors));
  ASSERT_TRUE(chunk.ok());
  ExpectSameNeighbors(*chunk, neighbors);

  DoneSummary s;
  s.status_code = static_cast<uint8_t>(common::StatusCode::kDeadlineExceeded);
  s.message = "too slow";
  s.results = 9;
  s.pages_fetched = 31;
  s.steps = 5;
  s.deadline_exceeded = 1;
  s.latency_s = 0.125;
  auto done = DecodeDone(EncodeDone(s));
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->status_code, s.status_code);
  EXPECT_EQ(done->message, s.message);
  EXPECT_EQ(done->results, s.results);
  EXPECT_EQ(done->pages_fetched, s.pages_fetched);
  EXPECT_EQ(done->steps, s.steps);
  EXPECT_EQ(done->deadline_exceeded, s.deadline_exceeded);
  EXPECT_EQ(done->latency_s, s.latency_s);
}

TEST(ProtocolTest, ErrorRoundTripsWithTypedCode) {
  const common::Status shed =
      common::Status::ResourceExhausted("queue full");
  const common::Status decoded = DecodeError(EncodeError(shed));
  EXPECT_EQ(decoded.code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.message(), "queue full");
}

TEST(ProtocolTest, DecoderReassemblesByteByByte) {
  QuerySpec spec;
  spec.point = Point{0.5, 0.5};
  const std::string frame =
      EncodeFrame(FrameType::kQuery, EncodeQuerySpec(spec)) +
      EncodeFrame(FrameType::kCancel, "");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame f;
  for (char c : frame) {
    decoder.Feed(&c, 1);
    while (decoder.Next(&f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kQuery);
  EXPECT_EQ(frames[1].type, FrameType::kCancel);
  EXPECT_TRUE(DecodeQuerySpec(frames[0].payload).ok());
}

TEST(ProtocolTest, DecoderPoisonsOnGarbage) {
  FrameDecoder decoder;
  const char garbage[] = "\xff\x00\x00\x00\x00junk";
  decoder.Feed(garbage, sizeof(garbage) - 1);
  Frame f;
  EXPECT_FALSE(decoder.Next(&f));
  EXPECT_FALSE(decoder.error().ok());
  // Poisoned for good: feeding more never yields frames again.
  const std::string ok = EncodeFrame(FrameType::kCancel, "");
  decoder.Feed(ok.data(), ok.size());
  EXPECT_FALSE(decoder.Next(&f));
}

TEST(ProtocolTest, DecoderRejectsOversizedFrame) {
  std::string header;
  header.push_back(static_cast<char>(FrameType::kQuery));
  const uint32_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  FrameDecoder decoder;
  decoder.Feed(header.data(), header.size());
  Frame f;
  EXPECT_FALSE(decoder.Next(&f));
  EXPECT_FALSE(decoder.error().ok());
}

// --- PagedBrowserTest -----------------------------------------------------

// The paged browser must emit the exact sequence of the sequential
// DistanceBrowser, whole-tree, across tree shapes — and its first k
// therefore equal the batch k-NN answer.
TEST(PagedBrowserTest, MatchesSequentialBrowserAcrossSeeds) {
  for (uint64_t seed = 1; seed <= test_seeds::kPropertySweepSeeds / 2;
       ++seed) {
    const size_t n = 300 + seed * 97;
    const Dataset data =
        seed % 2 == 0 ? workload::MakeClustered(n, 2, 8, 0.1, seed)
                      : workload::MakeUniform(n, 3, seed);
    auto index = BuildIndex(data, 3 + static_cast<int>(seed % 5));
    const auto points = workload::MakeQueryPoints(
        data, 3, workload::QueryDistribution::kDataDistributed, seed + 50);
    for (const Point& q : points) {
      core::DistanceBrowser sequential(index->tree(), q);
      core::PagedDistanceBrowser paged(index->tree(), q, /*limit=*/0,
                                       index->num_disks());
      core::RunToCompletion(index->tree(), &paged);
      std::vector<Neighbor> expected;
      while (auto n_opt = sequential.Next()) expected.push_back(*n_opt);
      ExpectSameNeighbors(paged.TakeStable(), expected);
    }
  }
}

TEST(PagedBrowserTest, FirstKEqualsBatchKnn) {
  const Dataset data = workload::MakeClustered(2500, 2, 10, 0.08, 77);
  auto index = BuildIndex(data, 5);
  const auto points = workload::MakeQueryPoints(
      data, 5, workload::QueryDistribution::kDataDistributed, 78);
  for (const Point& q : points) {
    for (size_t k : {1u, 10u, 40u}) {
      core::PagedDistanceBrowser paged(index->tree(), q, k,
                                       index->num_disks());
      core::RunToCompletion(index->tree(), &paged);
      auto batch = core::MakeAlgorithm(AlgorithmKind::kCrss, index->tree(),
                                       q, k, index->num_disks());
      core::RunToCompletion(index->tree(), batch.get());
      ExpectSameNeighbors(paged.TakeStable(), batch->result().Sorted());
    }
  }
}

TEST(PagedBrowserTest, EmptyTreeAndLimitBeyondSize) {
  rstar::TreeConfig cfg;
  cfg.dim = 2;
  rstar::RStarTree empty(cfg);
  core::PagedDistanceBrowser browser(empty, Point{0.0, 0.0}, 5, 4);
  EXPECT_TRUE(browser.Begin().done);
  EXPECT_TRUE(browser.TakeStable().empty());

  const Dataset data = workload::MakeUniform(50, 2, 5);
  auto index = BuildIndex(data, 2);
  core::PagedDistanceBrowser all(index->tree(), Point{0.5, 0.5},
                                 /*limit=*/500, index->num_disks());
  core::RunToCompletion(index->tree(), &all);
  EXPECT_EQ(all.TakeStable().size(), data.size());
}

// --- EngineDeadlineTest ---------------------------------------------------

TEST(EngineDeadlineTest, DeadlineExceededIsTypedAndReleasesPins) {
  const Dataset data = workload::MakeClustered(3000, 2, 10, 0.1, 11);
  auto index = BuildIndex(data, 4);
  // 5 ms per read: any multi-step query blows a 1 ms budget.
  EngineFixture f = EngineFixture::Create(*index, /*read_latency_s=*/0.005);

  exec::EngineQuery q;
  q.point = Point{0.5, 0.5};
  q.k = 20;
  q.deadline_s = 0.001;
  const exec::QueryOutcome out = f.engine->RunQuery(q);
  EXPECT_EQ(out.status.code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(out.deadline_exceeded);
  EXPECT_TRUE(out.neighbors.empty());
  EXPECT_EQ(f.engine->cache().PinnedFrames(), 0u);

  // The same query unconstrained succeeds — the engine stayed healthy.
  q.deadline_s = 0.0;
  const exec::QueryOutcome ok = f.engine->RunQuery(q);
  ASSERT_TRUE(ok.status.ok()) << ok.status;
  EXPECT_EQ(ok.neighbors.size(), 20u);
  EXPECT_FALSE(ok.deadline_exceeded);
}

TEST(EngineDeadlineTest, CancellationIsTypedAndReleasesPins) {
  const Dataset data = workload::MakeClustered(3000, 2, 10, 0.1, 12);
  auto index = BuildIndex(data, 4);
  EngineFixture f = EngineFixture::Create(*index, /*read_latency_s=*/0.002);

  exec::QueryControl control;
  control.cancel.store(true);
  exec::EngineQuery q;
  q.point = Point{0.5, 0.5};
  q.k = 10;
  q.control = &control;
  const exec::QueryOutcome out = f.engine->RunQuery(q);
  EXPECT_EQ(out.status.code(), common::StatusCode::kCancelled);
  EXPECT_EQ(f.engine->cache().PinnedFrames(), 0u);

  const obs::MetricsSnapshot snap = f.engine->metrics()->Snapshot();
  EXPECT_EQ(snap.CounterValue("sqp_engine_cancelled_total"), 1u);
}

// --- StreamingServiceTest -------------------------------------------------

TEST(StreamingServiceTest, FirstResultsArriveBeforeCompletion) {
  const Dataset data = workload::MakeClustered(4000, 2, 12, 0.08, 21);
  auto index = BuildIndex(data, 4, /*fanout=*/8);  // deeper tree
  // Throttled media: every step costs >= 3 ms, so the stream's early
  // chunks demonstrably precede the traversal's end.
  EngineFixture f = EngineFixture::Create(*index, /*read_latency_s=*/0.003);
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_chunk = 4;
  QueryService service(*index, f.engine.get(), opts);

  QuerySpec spec;
  spec.mode = QueryMode::kKnnStream;
  spec.point = Point{0.5, 0.5};
  spec.k = 60;
  auto submitted = service.Submit(spec);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  const std::shared_ptr<StreamingQuery>& q = *submitted;

  std::vector<Neighbor> streamed, chunk;
  size_t chunks = 0;
  bool saw_chunk_before_finish = false;
  while (q->NextChunk(&chunk)) {
    ++chunks;
    if (!q->finished()) saw_chunk_before_finish = true;
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
  }
  ASSERT_TRUE(q->outcome().status.ok()) << q->outcome().status;
  EXPECT_GT(chunks, 1u);
  EXPECT_TRUE(saw_chunk_before_finish)
      << "every chunk arrived only after the traversal finished";

  // Bit-identical to the batch answer on the same service.
  QuerySpec batch = spec;
  batch.mode = QueryMode::kKnnBatch;
  const exec::QueryOutcome truth = service.RunBlocking(batch);
  ASSERT_TRUE(truth.status.ok());
  ExpectSameNeighbors(streamed, truth.neighbors);
  // And to brute force over the raw data.
  const auto brute = workload::BruteForceKnn(data, spec.point, spec.k);
  ASSERT_EQ(streamed.size(), brute.size());
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(streamed[i].object, brute[i].first);
  }
}

TEST(StreamingServiceTest, RangeQueryStreamsAllMatches) {
  const Dataset data = workload::MakeUniform(3000, 2, 31);
  auto index = BuildIndex(data, 4);
  EngineFixture f = EngineFixture::Create(*index);
  ServiceOptions opts;
  opts.max_chunk = 8;
  QueryService service(*index, f.engine.get(), opts);

  QuerySpec spec;
  spec.mode = QueryMode::kRange;
  spec.point = Point{0.5, 0.5};
  spec.radius = 0.15;
  const exec::QueryOutcome out = service.RunBlocking(spec);
  ASSERT_TRUE(out.status.ok()) << out.status;

  // Ground truth from the sequential executor's range query.
  core::ParallelRangeQuery truth(
      index->tree(), core::RangeRegion::Ball(spec.point, spec.radius));
  core::RunToCompletion(index->tree(), &truth);
  std::vector<rstar::ObjectId> got;
  for (const Neighbor& n : out.neighbors) got.push_back(n.object);
  std::vector<rstar::ObjectId> want = truth.objects();
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(want.empty());
}

TEST(StreamingServiceTest, CancellationStopsStreamAndReleasesPins) {
  const Dataset data = workload::MakeClustered(4000, 2, 12, 0.08, 22);
  auto index = BuildIndex(data, 4, /*fanout=*/8);
  EngineFixture f = EngineFixture::Create(*index, /*read_latency_s=*/0.003);
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_chunk = 2;
  QueryService service(*index, f.engine.get(), opts);

  QuerySpec spec;
  spec.mode = QueryMode::kKnnStream;
  spec.point = Point{0.5, 0.5};
  spec.k = 200;
  auto submitted = service.Submit(spec);
  ASSERT_TRUE(submitted.ok());
  const std::shared_ptr<StreamingQuery>& q = *submitted;
  std::vector<Neighbor> chunk;
  ASSERT_TRUE(q->NextChunk(&chunk));  // stream is live
  q->Cancel();
  while (q->NextChunk(&chunk)) {
  }
  EXPECT_EQ(q->outcome().status.code(), common::StatusCode::kCancelled);
  EXPECT_LT(q->outcome().steps + 1, 200u);  // stopped early
  EXPECT_EQ(f.engine->cache().PinnedFrames(), 0u)
      << "cancelled query left pinned cache frames behind";
}

TEST(StreamingServiceTest, DestructorCancelsRunningQueryWithNoConsumer) {
  const Dataset data = workload::MakeClustered(3000, 2, 10, 0.1, 23);
  auto index = BuildIndex(data, 4, /*fanout=*/8);
  EngineFixture f = EngineFixture::Create(*index, /*read_latency_s=*/0.002);
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_chunk = 1;
  opts.max_buffered_chunks = 1;
  {
    QueryService service(*index, f.engine.get(), opts);
    QuerySpec spec;
    spec.mode = QueryMode::kKnnStream;
    spec.point = Point{0.5, 0.5};
    spec.k = 200;
    auto submitted = service.Submit(spec);
    ASSERT_TRUE(submitted.ok());
    // Wait until the worker is provably producing, then abandon the
    // handle without draining: the producer fills the 1-slot buffer and
    // blocks in PushChunk with nobody left to consume.
    std::vector<Neighbor> chunk;
    ASSERT_TRUE((*submitted)->NextChunk(&chunk));
  }  // ~QueryService must cancel the running query, not deadlock on join
  EXPECT_EQ(f.engine->cache().PinnedFrames(), 0u);
}

// --- AdmissionTest --------------------------------------------------------

TEST(AdmissionTest, OverloadShedsTypedAndConservesCounts) {
  const Dataset data = workload::MakeClustered(3000, 2, 10, 0.1, 41);
  auto index = BuildIndex(data, 4);
  EngineFixture f = EngineFixture::Create(*index, /*read_latency_s=*/0.002);
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_pending = 3;
  QueryService service(*index, f.engine.get(), opts);
  const auto points = workload::MakeQueryPoints(
      data, 32, workload::QueryDistribution::kDataDistributed, 42);

  size_t shed = 0;
  std::vector<std::shared_ptr<StreamingQuery>> admitted;
  for (const Point& p : points) {
    QuerySpec spec;
    spec.mode = QueryMode::kKnnStream;
    spec.point = p;
    spec.k = 10;
    spec.deadline_s = 30.0;  // generous: admitted queries must finish ok
    auto sub = service.Submit(spec);
    if (sub.ok()) {
      admitted.push_back(std::move(*sub));
      continue;
    }
    // Shedding must be *typed* — the canonical overload signal.
    EXPECT_EQ(sub.status().code(), common::StatusCode::kResourceExhausted);
    ++shed;
  }
  EXPECT_GT(shed, 0u) << "burst never overflowed the 3-slot queue";
  ASSERT_FALSE(admitted.empty());

  std::vector<Neighbor> chunk;
  for (const auto& q : admitted) {
    while (q->NextChunk(&chunk)) {
    }
    EXPECT_TRUE(q->outcome().status.ok()) << q->outcome().status;
  }

  // Conservation at rest: every submission either shed or completed. The
  // completed counter ticks just after the handle finishes, so allow the
  // worker a moment to quiesce.
  obs::MetricsRegistry* reg = f.engine->metrics();
  uint64_t submitted = 0, completed = 0, shed_counter = 0;
  for (int i = 0; i < 200; ++i) {
    const obs::MetricsSnapshot snap = reg->Snapshot();
    submitted = snap.CounterValue("sqp_server_submitted_total");
    completed = snap.CounterValue("sqp_server_completed_total");
    shed_counter = snap.CounterValue("sqp_server_shed_total");
    if (submitted == completed + shed_counter) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(submitted, points.size());
  EXPECT_EQ(shed_counter, shed);
  EXPECT_EQ(submitted, completed + shed_counter);
}

TEST(AdmissionTest, DeadlinesBoundLatencyOfAdmittedQueries) {
  const Dataset data = workload::MakeClustered(3000, 2, 10, 0.1, 43);
  auto index = BuildIndex(data, 4);
  // Slow media + one worker: queue wait dominates, so late queries must
  // fail *fast* with the typed code instead of running to completion.
  EngineFixture f = EngineFixture::Create(*index, /*read_latency_s=*/0.004);
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_pending = 64;
  QueryService service(*index, f.engine.get(), opts);
  const auto points = workload::MakeQueryPoints(
      data, 24, workload::QueryDistribution::kDataDistributed, 44);

  // ~30 ms of engine work per query and ~700 ms queued behind one
  // worker: the front of the queue completes inside the budget, the
  // tail cannot. 100 ms (not 50) keeps ok_count > 0 robust against
  // scheduler stalls on a loaded single-core CI host.
  const double deadline_s = 0.1;
  std::vector<std::shared_ptr<StreamingQuery>> admitted;
  for (const Point& p : points) {
    QuerySpec spec;
    spec.mode = QueryMode::kKnnStream;
    spec.point = p;
    spec.k = 20;
    spec.deadline_s = deadline_s;
    auto sub = service.Submit(spec);
    ASSERT_TRUE(sub.ok()) << sub.status();
    admitted.push_back(std::move(*sub));
  }
  size_t ok_count = 0, late = 0;
  std::vector<Neighbor> chunk;
  for (const auto& q : admitted) {
    const auto wait_start = std::chrono::steady_clock::now();
    while (q->NextChunk(&chunk)) {
    }
    const double drain_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wait_start)
                               .count();
    const exec::QueryOutcome& out = q->outcome();
    if (out.status.ok()) {
      ++ok_count;
    } else {
      // Every failure under pure overload is the deadline, typed.
      EXPECT_EQ(out.status.code(), common::StatusCode::kDeadlineExceeded);
      EXPECT_TRUE(out.deadline_exceeded);
      ++late;
    }
    // Bounded p99 in spirit: no admitted query can hold its client for
    // long after its budget — one engine step past the deadline at most
    // (generous wall-clock slack for CI noise).
    EXPECT_LT(drain_s, deadline_s + 1.0);
  }
  EXPECT_GT(ok_count, 0u);
  EXPECT_GT(late, 0u) << "overload never produced a deadline miss";
  EXPECT_EQ(f.engine->cache().PinnedFrames(), 0u);
}

// --- TcpServerTest --------------------------------------------------------

struct ServerFixture {
  std::unique_ptr<parallel::ParallelRStarTree> index;
  EngineFixture engine;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<TcpServer> server;
  Dataset data;

  static ServerFixture Create(double read_latency_s = 0.0) {
    ServerFixture f;
    f.data = workload::MakeClustered(2500, 2, 10, 0.1, 55);
    f.index = BuildIndex(f.data, 4);
    f.engine = EngineFixture::Create(*f.index, read_latency_s);
    ServiceOptions sopts;
    sopts.max_chunk = 8;
    f.service = std::make_unique<QueryService>(*f.index,
                                               f.engine.engine.get(), sopts);
    TcpServerOptions topts;
    auto server = TcpServer::Start(f.service.get(), topts);
    EXPECT_TRUE(server.ok()) << server.status();
    f.server = std::move(*server);
    return f;
  }
};

// One raw request/response exchange (used for HTTP and text mode).
std::string Exchange(int port, const std::string& request) {
  auto fd = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok()) << fd.status();
  EXPECT_TRUE(WriteAll(*fd, request.data(), request.size()));
  ::shutdown(*fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(*fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(*fd);
  return response;
}

TEST(TcpServerTest, BinaryStreamMatchesEngineAnswer) {
  ServerFixture f = ServerFixture::Create();
  auto client = Client::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok()) << client.status();

  QuerySpec spec;
  spec.mode = QueryMode::kKnnStream;
  spec.point = Point{0.4, 0.6};
  spec.k = 25;
  const StreamOutcome out = (*client)->Run(spec);
  ASSERT_TRUE(out.status.ok()) << out.status;
  EXPECT_EQ(out.summary.results, out.neighbors.size());

  exec::EngineQuery eq;
  eq.point = spec.point;
  eq.k = spec.k;
  const exec::QueryOutcome truth = f.engine.engine->RunQuery(eq);
  ASSERT_TRUE(truth.status.ok());
  ExpectSameNeighbors(out.neighbors, truth.neighbors);

  // A second query reuses the connection.
  spec.mode = QueryMode::kRange;
  spec.radius = 0.1;
  const StreamOutcome range = (*client)->Run(spec);
  EXPECT_TRUE(range.status.ok()) << range.status;
  EXPECT_FALSE(range.neighbors.empty());
}

TEST(TcpServerTest, StreamedChunksArriveBeforeDone) {
  ServerFixture f = ServerFixture::Create(/*read_latency_s=*/0.003);
  auto client = Client::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());

  QuerySpec spec;
  spec.mode = QueryMode::kKnnStream;
  spec.point = Point{0.5, 0.5};
  spec.k = 40;
  std::vector<size_t> chunk_sizes;
  const StreamOutcome out = (*client)->Run(
      spec, [&](const std::vector<Neighbor>& c) {
        chunk_sizes.push_back(c.size());
      });
  ASSERT_TRUE(out.status.ok()) << out.status;
  EXPECT_GT(out.chunks, 1u) << "whole answer arrived as one chunk";
  EXPECT_EQ(out.neighbors.size(), 40u);
}

TEST(TcpServerTest, InvalidSpecIsRejectedTyped) {
  ServerFixture f = ServerFixture::Create();
  auto client = Client::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.point = Point{1.0, 2.0, 3.0};  // index is 2-d
  const StreamOutcome out = (*client)->Run(spec);
  EXPECT_EQ(out.status.code(), common::StatusCode::kInvalidArgument);
  // The connection survives a rejection.
  spec.point = Point{0.5, 0.5};
  EXPECT_TRUE((*client)->Run(spec).status.ok());
}

TEST(TcpServerTest, MetricsEndpointSatisfiesConservation) {
  ServerFixture f = ServerFixture::Create();
  auto client = Client::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.point = Point{0.5, 0.5};
  spec.k = 10;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*client)->Run(spec).status.ok());
  }

  // The submitted/completed identity holds *at rest* (service.h): the
  // worker increments completed_total after the client already has its
  // result, so a scrape fired immediately can catch the gap. Re-scrape
  // until the service is quiescent, then assert on that scrape.
  std::string response;
  auto counter = [&](const std::string& name) -> uint64_t {
    const std::string needle = "\n" + name + " ";
    const size_t pos = response.find(needle);
    EXPECT_NE(pos, std::string::npos) << name << " missing from scrape";
    if (pos == std::string::npos) return 0;
    return std::strtoull(response.c_str() + pos + needle.size(), nullptr,
                         10);
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    response = Exchange(f.server->port(), "GET /metrics HTTP/1.0\r\n\r\n");
    ASSERT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    ASSERT_NE(response.find("# TYPE sqp_server_submitted_total counter"),
              std::string::npos);
    const std::string needle = "\nsqp_server_completed_total ";
    const size_t pos = response.find(needle);
    if (pos != std::string::npos &&
        std::strtoull(response.c_str() + pos + needle.size(), nullptr, 10) >=
            3) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "service never quiesced at completed_total >= 3";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Parse the scrape the way a Prometheus server would and check the
  // documented conservation identities on the *scraped* values.
  EXPECT_EQ(counter("sqp_server_submitted_total"),
            counter("sqp_server_completed_total") +
                counter("sqp_server_shed_total"));
  EXPECT_EQ(counter("sqp_cache_hits_total") +
                counter("sqp_cache_misses_total"),
            counter("sqp_engine_page_requests_total"));
  EXPECT_EQ(counter("sqp_engine_queries_total"), 3u);
}

TEST(TcpServerTest, HealthAndTraceEndpointsServe) {
  ServerFixture f = ServerFixture::Create();
  const std::string health =
      Exchange(f.server->port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string trace =
      Exchange(f.server->port(), "GET /tracez HTTP/1.0\r\n\r\n");
  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(trace.find("application/json"), std::string::npos);

  const std::string missing =
      Exchange(f.server->port(), "GET /nosuch HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(TcpServerTest, TextProtocolAnswersHumans) {
  ServerFixture f = ServerFixture::Create();
  const std::string response =
      Exchange(f.server->port(), "knn 5 0.5 0.5\nquit\n");
  // Five result lines then a summary.
  size_t results = 0, pos = 0;
  while ((pos = response.find("r ", pos)) != std::string::npos) {
    ++results;
    pos += 2;
  }
  EXPECT_EQ(results, 5u) << response;
  EXPECT_NE(response.find("done 5"), std::string::npos) << response;

  const std::string bad = Exchange(f.server->port(), "frobnicate\nquit\n");
  EXPECT_NE(bad.find("error invalid_argument"), std::string::npos) << bad;
}

// Hostile values on a text line: each gets a typed invalid_argument reply
// (never a CHECK abort, a cast to a garbage k, or an answer computed from
// NaN distances), and the same connection keeps serving afterwards.
class TextHostileValueTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TextHostileValueTest, RejectedTypedAndServerKeepsServing) {
  ServerFixture f = ServerFixture::Create();
  const std::string line = GetParam();
  const std::string response =
      Exchange(f.server->port(), line + "\nknn 3 0.5 0.5\nquit\n");
  EXPECT_EQ(response.rfind("error invalid_argument", 0), 0u) << response;
  EXPECT_NE(response.find("done 3"), std::string::npos) << response;
}

INSTANTIATE_TEST_SUITE_P(TcpServerTest, TextHostileValueTest,
                         ::testing::Values("range nan 0.5 0.5",
                                           "knn 5 nan nan", "knn -1 0.5 0.5",
                                           "knn 1e300 0.5 0.5",
                                           "range inf 0.5 0.5"));

// The same check guards the binary path: Submit itself rejects every
// hostile value, so no front end can smuggle one past it.
TEST(StreamingServiceTest, SubmitRejectsNonFiniteValues) {
  ServerFixture f = ServerFixture::Create();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<QuerySpec> hostile(5);
  hostile[0].point = Point{0.5, nan};
  hostile[1].point = Point{inf, 0.5};
  hostile[2].point = Point{0.5, 0.5};
  hostile[2].mode = QueryMode::kRange;
  hostile[2].radius = nan;
  hostile[3].point = Point{0.5, 0.5};
  hostile[3].deadline_s = inf;
  hostile[4].point = Point{0.5, 0.5};
  hostile[4].k = 0;
  for (size_t i = 0; i < hostile.size(); ++i) {
    auto submitted = f.service->Submit(hostile[i]);
    ASSERT_FALSE(submitted.ok()) << "spec " << i;
    EXPECT_EQ(submitted.status().code(), common::StatusCode::kInvalidArgument)
        << "spec " << i << ": " << submitted.status();
  }
}

TEST(TcpServerTest, ClientCancelStopsAServerQuery) {
  ServerFixture f = ServerFixture::Create(/*read_latency_s=*/0.005);
  auto client = Client::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.mode = QueryMode::kKnnStream;
  spec.point = Point{0.5, 0.5};
  spec.k = 500;  // long browse on slow media
  std::atomic<bool> cancelled{false};
  const StreamOutcome out = (*client)->Run(
      spec, [&](const std::vector<Neighbor>&) {
        if (!cancelled.exchange(true)) {
          EXPECT_TRUE((*client)->SendCancel().ok());
        }
      });
  // The stream ends with the typed cancellation (or, if the query raced
  // to completion first, ok with all results).
  if (!out.status.ok()) {
    EXPECT_EQ(out.status.code(), common::StatusCode::kCancelled);
    EXPECT_LT(out.neighbors.size(), 500u);
  }
  EXPECT_EQ(f.engine.engine->cache().PinnedFrames(), 0u);
}

TEST(TcpServerTest, StopReturnsWithIdleConnectionsOpen) {
  ServerFixture f = ServerFixture::Create();
  // An idle client that connected but never sent a byte: Stop() must
  // shut its socket down and join the handler instead of waiting for
  // the peer to quiesce.
  auto idle = ConnectTcp("127.0.0.1", f.server->port());
  ASSERT_TRUE(idle.ok());
  const auto t0 = std::chrono::steady_clock::now();
  f.server->Stop();
  const double stop_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_LT(stop_s, 5.0) << "Stop() waited on an idle connection";
  ::close(*idle);
}

TEST(TcpServerTest, PartialPreambleThenCloseDoesNotWedgeHandler) {
  ServerFixture f = ServerFixture::Create();
  // Two bytes that could still become the binary magic, then FIN: the
  // handler must conclude EOF and retire (a peeking sniffer busy-spun
  // here — the unread prefix keeps POLLIN raised forever).
  auto fd = ConnectTcp("127.0.0.1", f.server->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(*fd, "SQ", 2));
  ::shutdown(*fd, SHUT_WR);
  char buf[64];
  while (::recv(*fd, buf, sizeof(buf), 0) > 0) {
  }  // server closes its end once the handler exits
  ::close(*fd);
  f.server->Stop();
}

TEST(TcpServerTest, ShortTextLineAnswersWithoutWaitingForFourBytes) {
  ServerFixture f = ServerFixture::Create();
  auto fd = ConnectTcp("127.0.0.1", f.server->port());
  ASSERT_TRUE(fd.ok());
  // 3 bytes on a connection that stays open: the sniffer must route to
  // the text protocol as soon as the prefix rules out binary and HTTP,
  // not block for a 4th byte.
  ASSERT_TRUE(WriteAll(*fd, "hi\n", 3));
  std::string response;
  char buf[256];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(*fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection closed before a reply";
    response.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(response.find("error invalid_argument"), std::string::npos)
      << response;
  ::close(*fd);
}

// --- ExpositionTest -------------------------------------------------------

TEST(ExpositionTest, PathsRenderAndUnknownIs404) {
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_test_total")->Add(7);
  obs::TraceRecorder trace(8);

  const obs::HttpContent metrics =
      obs::HandleObservabilityPath("/metrics", &reg, &trace, true, 0);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("sqp_test_total 7"), std::string::npos);

  const obs::HttpContent json = obs::HandleObservabilityPath(
      "/metrics.json?pretty=1", &reg, &trace, true, 0);
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");

  EXPECT_EQ(obs::HandleObservabilityPath("/healthz", &reg, &trace, true, 0)
                .body,
            "ok\n");
  EXPECT_EQ(
      obs::HandleObservabilityPath("/healthz", &reg, &trace, false, 0).status,
      503);
  EXPECT_EQ(
      obs::HandleObservabilityPath("/nope", &reg, &trace, true, 0).status,
      404);
  // Unmetered server: scrapes fail loudly instead of returning "".
  EXPECT_EQ(
      obs::HandleObservabilityPath("/metrics", nullptr, &trace, true, 0)
          .status,
      404);

  const std::string rendered = obs::RenderHttpResponse(metrics);
  EXPECT_NE(rendered.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
  EXPECT_NE(rendered.find("Content-Length: " +
                          std::to_string(metrics.body.size())),
            std::string::npos);
}

}  // namespace
}  // namespace sqp::server
