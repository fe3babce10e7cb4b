// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each binary prints its table/figure reproduction up front (so the output
// can be diffed against the paper) and then registers google-benchmark
// timings for the underlying algorithms.
//
// Observability: every bench shares one process-wide MetricsRegistry and
// obs::Profiler; report code routes pipeline/simulator runs through
// `obs_context()` so results gain per-phase breakdowns (iteration counts,
// message histograms, busiest-link series, stage spans).  IMPORTANT:
// obs_context() belongs in *report* code only — it runs once.  Inside a
// benchmark timing loop the registry's counters would scale with the
// iteration count google-benchmark happens to pick, destroying the
// determinism the bench JSON schema depends on.
//
// Machine-readable results ("hypart-bench-v1"): after the benchmarks run,
// each binary writes one JSON document
//
//   { "schema":  "hypart-bench-v1",
//     "bench":   <binary basename>,
//     "metrics": <deterministic MetricsSnapshot (counters/gauges/...)>,
//     "spans":   [ per-phase profile rows: name/cat/calls/wall_us/... ],
//     "timings": [ {name, repeats, min_us, median_us, p99_us, mean_us} ] }
//
// to $HYPART_BENCH_JSON_DIR/BENCH_<basename>.json (when set) and to the
// back-compatible $HYPART_BENCH_METRICS path (when set).  Everything under
// "metrics" is machine-independent and byte-identical across reruns —
// that is what tools/bench_report --check regresses against the committed
// baselines; "spans" and "timings" carry wall-clock measurements and are
// reported but never gated by default.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/json_writer.hpp"
#include "loop/index_set.hpp"
#include "mapping/tig.hpp"
#include "obs/obs.hpp"
#include "partition/blocks.hpp"

namespace hypart::bench {

/// The dense stages of one nest up to its task interaction graph: what the
/// mapping, topology and execution benches run their own mappers over.
struct Pieces {
  LoopNest nest;
  DependenceInfo deps;
  std::unique_ptr<ComputationStructure> q;
  TimeFunction tf;
  std::unique_ptr<ProjectedStructure> ps;
  Grouping grouping;
  Partition partition;
  TaskInteractionGraph tig;

  /// Π = `pi`, or the small-integer search when `pi` is empty.
  explicit Pieces(LoopNest n, const IntVec& pi = {}) : nest(std::move(n)) {
    deps = analyze_dependences(nest);
    q = std::make_unique<ComputationStructure>(IndexSet(nest).points(), deps.distance_vectors());
    tf = pi.empty() ? *search_time_function(*q) : TimeFunction{pi};
    ps = std::make_unique<ProjectedStructure>(*q, tf);
    grouping = Grouping::compute(*ps);
    partition = Partition::build(*q, grouping);
    tig = TaskInteractionGraph::from_partition(*q, partition, grouping);
  }
};

inline void banner(const std::string& title) {
  std::string rule(title.size() + 8, '=');
  std::printf("\n%s\n=== %s ===\n%s\n", rule.c_str(), title.c_str(), rule.c_str());
}

/// Process-wide metrics registry shared by a bench binary's report code.
inline obs::MetricsRegistry& metrics() {
  static obs::MetricsRegistry registry;
  return registry;
}

/// Process-wide span profiler shared by a bench binary's report code.
inline obs::Profiler& profiler() {
  static obs::Profiler prof;
  return prof;
}

/// ObsContext wired to the shared registry and profiler.  Report code only
/// (see the header comment): spans and counters from a timing loop would
/// scale with google-benchmark's chosen iteration count.
inline obs::ObsContext obs_context() { return obs::ObsContext{&profiler(), &metrics()}; }

/// Per-benchmark real-time samples captured by TimingReporter, keyed by the
/// full benchmark name; each entry is one repetition's per-iteration time
/// in microseconds.
inline std::map<std::string, std::vector<double>>& timings() {
  static std::map<std::string, std::vector<double>> t;
  return t;
}

/// ConsoleReporter that additionally records every per-repetition run into
/// `timings()`.  Console output is unchanged; aggregates/complexity rows
/// are not double-counted.
class TimingReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      if (run.report_big_o || run.report_rms) continue;
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      timings()[run.benchmark_name()].push_back(run.real_accumulated_time / iters * 1e6);
    }
    ::benchmark::ConsoleReporter::ReportRuns(reports);
  }
};

/// Nearest-rank percentile of an unsorted sample set (q in [0,1]).
inline double percentile_us(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Render the full hypart-bench-v1 document.
inline std::string bench_json(const std::string& bench_name) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "hypart-bench-v1");
  w.field("bench", bench_name);
  w.key("metrics").raw_value(metrics().snapshot().to_json());
  w.key("spans").raw_value(profiler().to_json());
  w.begin_array("timings");
  for (const auto& [name, samples] : timings()) {
    double mean = 0.0;
    for (double s : samples) mean += s;
    if (!samples.empty()) mean /= static_cast<double>(samples.size());
    w.begin_object();
    w.field("name", name);
    w.field("repeats", static_cast<std::int64_t>(samples.size()));
    w.field("min_us", samples.empty() ? 0.0 : *std::min_element(samples.begin(), samples.end()));
    w.field("median_us", percentile_us(samples, 0.5));
    w.field("p99_us", percentile_us(samples, 0.99));
    w.field("mean_us", mean);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// Write the hypart-bench-v1 document for this binary:
///   * $HYPART_BENCH_JSON_DIR/BENCH_<basename>.json  (result-set directory)
///   * $HYPART_BENCH_METRICS                         (single-file back-compat)
/// Unset env vars are skipped silently; I/O failure returns false.
inline bool write_bench_json(const std::string& argv0) {
  std::string name = argv0.substr(argv0.find_last_of('/') + 1);
  std::string doc = bench_json(name);
  auto write_to = [&](const std::string& path) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write results to '%s'\n", path.c_str());
      return false;
    }
    out << doc << "\n";
    return static_cast<bool>(out);
  };
  if (const char* dir = std::getenv("HYPART_BENCH_JSON_DIR"); dir != nullptr && *dir != '\0')
    if (!write_to(std::string(dir) + "/BENCH_" + name + ".json")) return false;
  if (const char* path = std::getenv("HYPART_BENCH_METRICS"); path != nullptr && *path != '\0')
    if (!write_to(path)) return false;
  return true;
}

}  // namespace hypart::bench

/// Standard main: print the reproduction report, run the benchmarks with
/// the timing-capturing reporter, then write the hypart-bench-v1 result
/// document (when $HYPART_BENCH_JSON_DIR or $HYPART_BENCH_METRICS is set).
#define HYPART_BENCH_MAIN(report_fn)                                    \
  int main(int argc, char** argv) {                                     \
    report_fn();                                                        \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::hypart::bench::TimingReporter reporter;                           \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                     \
    ::benchmark::Shutdown();                                            \
    if (!::hypart::bench::write_bench_json(argv[0])) return 1;          \
    return 0;                                                           \
  }
