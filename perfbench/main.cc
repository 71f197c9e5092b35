// perfbench: runs one workload of the repository benchmark and prints its
// metrics. run.py builds this binary and is the documented entry point;
// see README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE] [--result-out FILE]
//             [--git-describe TEXT]
//   perfbench --workload NAME --seed N --seconds S --trace 0
//             --work-dir DIR --setup-only FILE
//
// Prints one line per metric (name, value, unit, samples) and the run's
// provenance, then, as the last line, the result object: every
// end-to-end metric with --trace 0, every per-layer metric with --trace 1.
// The second form runs one set-up and writes its times to FILE; the first
// form runs it for all but its last set-up.
//
// Exit status: 0 on a valid, correct run; 1 when an answer or a recovery
// check was wrong (the result line still prints, with "correct": false);
// 2 on bad arguments; 3 when the run is invalid (a growing backlog, too
// few samples, a throughput equal to an offered rate) and no result line
// is printed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using sqp::perfbench::JsonNumber;
using sqp::perfbench::JsonString;
using sqp::perfbench::Metric;

std::string MetricsJson(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i > 0 ? ", " : "") + JsonString(m.name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "every flag takes a value\n");
    return 2;
  }
  const sqp::perfbench::WorkloadSpec* spec =
      sqp::perfbench::FindWorkload(flags["workload"]);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'; one of:",
                 flags["workload"].c_str());
    for (const auto& w : sqp::perfbench::Workloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  sqp::perfbench::RunArgs args;
  args.seed = std::strtoull(flags.count("seed") ? flags["seed"].c_str() : "1",
                            nullptr, 10);
  args.seconds =
      std::strtod(flags.count("seconds") ? flags["seconds"].c_str() : "10",
                  nullptr);
  args.trace = flags["trace"] == "1";
  args.work_dir = flags.count("work-dir") ? flags["work-dir"] : ".bench_out";
  args.trace_path = flags["trace-out"];
  args.git_describe = flags["git-describe"];
  if (!(args.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (flags.count("setup-only")) {
    return sqp::perfbench::RunSetupOnly(*spec, args, flags["setup-only"]);
  }

  const sqp::perfbench::RunResult r = sqp::perfbench::RunWorkload(*spec, args);

  std::printf("workload %s, seed %llu\n", spec->name,
              static_cast<unsigned long long>(args.seed));
  for (const auto& [k, v] : r.provenance) {
    std::printf("  %-24s %s\n", k.c_str(), v.c_str());
  }
  PrintTable("end-to-end:", r.end_to_end);
  PrintTable("end-to-end, not gated:", r.ungated);
  PrintTable("per-layer (read phase):", r.per_layer);
  std::printf("ops: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& p : r.problems) std::printf("PROBLEM: %s\n", p.c_str());

  if (flags.count("result-out")) {
    std::string doc = "{\"workload\": " + JsonString(spec->name) +
                      ", \"correct\": " + (r.correct ? "true" : "false") +
                      ", \"valid\": " + (r.valid ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.attempted) +
                      ", \"failed\": " + std::to_string(r.failed) +
                      ", \"end_to_end\": " + MetricsJson(r.end_to_end, true) +
                      ", \"ungated\": " + MetricsJson(r.ungated, true) +
                      ", \"per_layer\": " + MetricsJson(r.per_layer, true) +
                      ", \"provenance\": {";
    for (size_t i = 0; i < r.provenance.size(); ++i) {
      doc += (i > 0 ? ", " : "") + JsonString(r.provenance[i].first) + ": " +
             JsonString(r.provenance[i].second);
    }
    doc += "}, \"problems\": [";
    for (size_t i = 0; i < r.problems.size(); ++i) {
      doc += (i > 0 ? ", " : "") + JsonString(r.problems[i]);
    }
    doc += "]}\n";
    if (std::FILE* f = std::fopen(flags["result-out"].c_str(), "w")) {
      std::fputs(doc.c_str(), f);
      std::fclose(f);
    }
  }

  if (!r.valid) {
    std::fprintf(stderr, "run invalid; not scored\n");
    return 3;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(args.trace ? r.per_layer : r.end_to_end, false)
                  .c_str());
  return r.correct ? 0 : 1;
}
