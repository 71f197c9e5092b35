#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sqp::perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  s.beyond_p99 = SamplesBeyond(samples.size(), 0.99);
  s.p99_supported = s.beyond_p99 >= 10;
  return s;
}

double BestWindowMedian(const std::vector<double>& samples, int windows) {
  const size_t n = samples.size();
  const size_t w = static_cast<size_t>(std::max(1, windows));
  if (n == 0) return 0.0;
  if (n < w) return Percentile(samples, 0.5);
  const size_t len = n / w;
  double best = kInf;
  for (size_t i = 0; i < w; ++i) {
    const auto first = samples.begin() + static_cast<long>(i * len);
    const auto last =
        i + 1 == w ? samples.end() : first + static_cast<long>(len);
    best = std::min(best, Percentile(std::vector<double>(first, last), 0.5));
  }
  return best;
}

double BestWindowRate(const std::vector<double>& done_s, double start_s,
                      double duration_s, int windows) {
  if (windows < 1 || !(duration_s > 0)) return 0.0;
  const double len = duration_s / windows;
  std::vector<size_t> counts(static_cast<size_t>(windows), 0);
  for (double t : done_s) {
    const double at = (t - start_s) / len;
    if (at < 0 || at >= windows) continue;
    ++counts[static_cast<size_t>(at)];
  }
  return static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
         len;
}

double LatenessMs(double due_s, double sent_s) {
  return std::max(0.0, (sent_s - due_s) * 1e3);
}

OpenLoopVerdict CheckOpenLoop(const std::vector<double>& late_ms,
                              double p99_bound_ms, double achieved_rate,
                              double offered_rate) {
  OpenLoopVerdict v;
  if (late_ms.empty()) {
    v.valid = false;
    v.reason = "no sends";
    return v;
  }
  const double p99 = Percentile(late_ms, 0.99);
  if (p99 > p99_bound_ms) {
    v.valid = false;
    v.reason = "generator p99 lateness " + std::to_string(p99) +
               " ms exceeds " + std::to_string(p99_bound_ms) + " ms";
  } else if (achieved_rate < 0.9 * offered_rate) {
    v.valid = false;
    v.reason = "backlog grew: completed " + std::to_string(achieved_rate) +
               " ops/s of " + std::to_string(offered_rate) + " offered";
  }
  return v;
}

double UserBytes(uint64_t ops, int dim) {
  return static_cast<double>(ops) * (8.0 * dim + 8.0);
}

double WriteAmp(uint64_t bytes_written, uint64_t ops, int dim) {
  const double user = UserBytes(ops, dim);
  return user > 0 ? static_cast<double>(bytes_written) / user : 0.0;
}

double SpaceAmp(uint64_t dir_bytes, uint64_t live_objects, int dim) {
  const double user = UserBytes(live_objects, dim);
  return user > 0 ? static_cast<double>(dir_bytes) / user : 0.0;
}

bool CeilingGuardOk(double measured, double offered) {
  if (offered <= 0) return true;
  return std::fabs(measured - offered) > 0.005 * offered;
}

obs::HistogramSnapshot HistogramDelta(const obs::HistogramSnapshot& after,
                                      const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d = after;
  if (before.counts.size() != after.counts.size()) return d;
  for (size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] -= std::min(d.counts[i], before.counts[i]);
  }
  d.sum = std::max(0.0, after.sum - before.sum);
  return d;
}

obs::HistogramSnapshot MergedHistogram(const obs::MetricsSnapshot& snap,
                                       const std::string& prefix) {
  obs::HistogramSnapshot merged;
  merged.name = prefix;
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name.compare(0, prefix.size(), prefix) != 0) continue;
    if (merged.counts.empty()) {
      merged.bounds = h.bounds;
      merged.counts.assign(h.counts.size(), 0);
    }
    if (h.counts.size() != merged.counts.size()) continue;
    for (size_t i = 0; i < h.counts.size(); ++i) merged.counts[i] += h.counts[i];
    merged.sum += h.sum;
  }
  return merged;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace sqp::perfbench
