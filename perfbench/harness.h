// The benchmark's own arithmetic: percentiles with the ten-beyond rule,
// failure and lateness accounting, the amplification formulas and the
// ceiling guard. Kept free of any system code so perfbench_selftest can
// pin every formula down (selftest.cc).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace sqp::perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Nearest-rank q-quantile (q in (0, 1]) of `samples`: the smallest value
// with at least q * n samples at or below it. +inf samples (failed ops)
// sort last, so enough failures drive a percentile to +inf. 0 when empty.
double Percentile(std::vector<double> samples, double q);

// Samples strictly ranked above the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

// The median and p99 of one latency series, with its sample count and
// whether p99 has the ten samples beyond it the benchmark requires.
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  size_t samples = 0;
  size_t beyond_p99 = 0;
  bool p99_supported = false;
};
LatencySummary Summarize(const std::vector<double>& samples);

// Best-of-N estimators, the repository's way of gating timings on a
// shared machine: another guest's stall only ever adds time, so the least
// disturbed stretch of a phase is the steadiest estimate of what the code
// costs.
//
// The lowest of the medians of `windows` consecutive, equal slices of
// `samples` (in arrival order; a trailing remainder joins the last slice).
double BestWindowMedian(const std::vector<double>& samples, int windows);
// The highest completion rate over `windows` equal slices of
// [start_s, start_s + duration_s), counting the `done_s` times in each.
double BestWindowRate(const std::vector<double>& done_s, double start_s,
                      double duration_s, int windows);

// How late an open-loop send went out: sent - due, never negative.
double LatenessMs(double due_s, double sent_s);

// Validity of an open-loop phase. `late_ms` is in due order. The phase is
// invalid when its sends ran more than `p99_bound_ms` late at p99 (the
// generator fell behind), or when it completed fewer than 90% of the
// offered ops per second over [first due, last completion] (the system
// did not keep up, so its backlog grew). A stall that the system drains
// afterwards passes both.
struct OpenLoopVerdict {
  bool valid = true;
  std::string reason;
};
OpenLoopVerdict CheckOpenLoop(const std::vector<double>& late_ms,
                              double p99_bound_ms, double achieved_rate,
                              double offered_rate);

// User bytes of `ops` point records: each is dim coordinates of 8 bytes
// plus an 8-byte object id.
double UserBytes(uint64_t ops, int dim);
// Bytes the index wrote (COW pages, WAL appends, folded generations) per
// user byte submitted.
double WriteAmp(uint64_t bytes_written, uint64_t ops, int dim);
// Index directory bytes per user byte still live.
double SpaceAmp(uint64_t dir_bytes, uint64_t live_objects, int dim);

// A throughput must never be a generator setting: false when `measured`
// lies within 0.5% of the rate the phase offered (offered > 0).
bool CeilingGuardOk(double measured, double offered);

// Histogram arithmetic over registry snapshots: the difference of two
// snapshots of the same instrument, and the merge of every instrument
// whose name starts with `prefix` (per-disk families).
obs::HistogramSnapshot HistogramDelta(const obs::HistogramSnapshot& after,
                                      const obs::HistogramSnapshot& before);
obs::HistogramSnapshot MergedHistogram(const obs::MetricsSnapshot& snap,
                                       const std::string& prefix);

// One reported number.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  uint64_t samples = 0;
};

// Formats a double for JSON with all its digits; non-finite values (which
// JSON cannot carry) become null.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace sqp::perfbench

#endif  // PERFBENCH_HARNESS_H_
