// Self-tests of the benchmark's own arithmetic (harness.h). run.py runs
// this binary before every measurement and refuses to report numbers if
// it fails. Exit status 0 = every check passed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: FAILED: %s\n", __FILE__, __LINE__, \
                   #cond);                                          \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

}  // namespace

int main() {
  using namespace sqp::perfbench;

  // Nearest-rank percentiles: the smallest value with >= q*n at or below.
  std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT(Percentile(ten, 0.5) == 5);
  EXPECT(Percentile(ten, 0.9) == 9);
  EXPECT(Percentile(ten, 0.99) == 10);
  EXPECT(Percentile(ten, 0.1) == 1);
  EXPECT(Percentile({}, 0.5) == 0);

  // Ten samples beyond p99 need at least 1000 samples.
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(SamplesBeyond(100, 0.99) == 1);
  EXPECT(SamplesBeyond(0, 0.99) == 0);
  std::vector<double> thousand(1000);
  for (size_t i = 0; i < thousand.size(); ++i) thousand[i] = double(i + 1);
  LatencySummary s = Summarize(thousand);
  EXPECT(s.samples == 1000);
  EXPECT(s.p50 == 500);
  EXPECT(s.p99 == 990);
  EXPECT(s.beyond_p99 == 10 && s.p99_supported);
  thousand.pop_back();
  EXPECT(!Summarize(thousand).p99_supported);

  // Failed ops are +inf: they push percentiles up, never down, and enough
  // of them make a percentile infinite.
  std::vector<double> with_failures(1000, 1.0);
  for (int i = 0; i < 5; ++i) with_failures[static_cast<size_t>(i)] = kInf;
  s = Summarize(with_failures);
  EXPECT(s.p50 == 1.0 && s.p99 == 1.0);
  for (int i = 0; i < 20; ++i) with_failures[static_cast<size_t>(i)] = kInf;
  EXPECT(std::isinf(Summarize(with_failures).p99));
  EXPECT(JsonNumber(kInf) == "null");

  // Best-of-N: the lowest window median, the highest window rate.
  const std::vector<double> windows = {5, 5, 9, 1, 1, 1, 7, 7, 7, 7, 7};
  EXPECT(BestWindowMedian(windows, 5) == 1);
  EXPECT(BestWindowMedian({3, 1, 2}, 5) == 2);
  EXPECT(BestWindowMedian({}, 5) == 0);
  EXPECT(std::isinf(BestWindowMedian({kInf, kInf, kInf, kInf}, 2)));
  const std::vector<double> done = {0.1, 0.2, 1.1, 1.2, 1.3, 1.4, 2.5, 9.0};
  EXPECT(Near(BestWindowRate(done, 0.0, 3.0, 3), 4.0));
  EXPECT(Near(BestWindowRate(done, 0.0, 3.0, 1), 7.0 / 3.0));
  EXPECT(BestWindowRate(done, 0.0, 0.0, 3) == 0.0);

  // Lateness is measured from the due time and is never negative.
  EXPECT(Near(LatenessMs(1.000, 1.0025), 2.5));
  EXPECT(LatenessMs(2.0, 1.5) == 0.0);
  std::vector<double> on_time(1000, 0.1);
  EXPECT(CheckOpenLoop(on_time, 100, 99.0, 100.0).valid);
  std::vector<double> fell_behind = on_time;
  for (int i = 0; i < 20; ++i) fell_behind[static_cast<size_t>(i * 7)] = 800;
  EXPECT(!CheckOpenLoop(fell_behind, 100, 100.0, 100.0).valid);
  EXPECT(CheckOpenLoop(fell_behind, kInf, 100.0, 100.0).valid);
  // A system that completes under 90% of the offered rate fell behind.
  EXPECT(!CheckOpenLoop(on_time, kInf, 89.0, 100.0).valid);
  EXPECT(CheckOpenLoop(on_time, kInf, 91.0, 100.0).valid);
  EXPECT(!CheckOpenLoop({}, 100, 100.0, 100.0).valid);

  // Amplification: user data is ops x (dim*8 + 8) bytes.
  EXPECT(UserBytes(10, 2) == 240);
  EXPECT(Near(WriteAmp(4800, 10, 2), 20.0));
  EXPECT(WriteAmp(4800, 0, 2) == 0.0);
  EXPECT(Near(SpaceAmp(136 * 100, 100, 16), 1.0));

  // Ceiling guard: a throughput within 0.5% of the offered rate is a
  // generator setting, not a measurement.
  EXPECT(!CeilingGuardOk(300.0, 300.0));
  EXPECT(!CeilingGuardOk(299.0, 300.0));
  EXPECT(CeilingGuardOk(310.0, 300.0));
  EXPECT(CeilingGuardOk(150.0, 300.0));
  EXPECT(CeilingGuardOk(123.0, 0.0));

  // Histogram deltas subtract bucket by bucket; merges add per-disk
  // families.
  sqp::obs::HistogramSnapshot a, b;
  a.bounds = b.bounds = {1, 2};
  a.counts = {5, 3, 1};
  a.sum = 10;
  b.counts = {2, 3, 0};
  b.sum = 4;
  const sqp::obs::HistogramSnapshot d = HistogramDelta(a, b);
  EXPECT(d.counts == (std::vector<uint64_t>{3, 0, 1}) && d.sum == 6);
  sqp::obs::MetricsSnapshot snap;
  a.name = "x{disk=\"0\"}";
  b.name = "x{disk=\"1\"}";
  snap.histograms = {a, b};
  const sqp::obs::HistogramSnapshot m = MergedHistogram(snap, "x");
  EXPECT(m.counts == (std::vector<uint64_t>{7, 6, 1}) && m.sum == 14);

  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
