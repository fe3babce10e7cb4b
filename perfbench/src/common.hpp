// hypart_perf — shared pieces of the benchmark runner: options, the report
// every workload fills, exact percentiles, and the span recorder that times
// calls into the library from outside.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string hypart;   ///< path of the `hypart` CLI (the serve daemon)
  std::string workdir;  ///< scratch directory for sockets (inside the checkout)
  std::string refs;     ///< reference values for the plan oracles
};

/// What one workload run prints: the contract fields, the metrics, and
/// free-form detail (sample counts, oracle verdicts, deterministic counters).
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Deterministic counters: identical for two runs with one seed.
  std::map<std::string, std::int64_t> counters;
  /// Raw JSON values keyed by name (sample counts, percentiles, notes).
  std::map<std::string, std::string> info;

  void fail(const std::string& what);
  std::vector<std::string> failures;  ///< first few failure messages
};

[[nodiscard]] std::string report_json(const Report& r);

/// Monotonic wall clock in microseconds.
[[nodiscard]] double now_us();

/// Nearest-rank percentile of raw samples (p in [0, 1]); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);
/// The fastest of repeated timings of one fixed piece of work.  On a shared
/// host, neighbours slow single vCPUs by up to ~2x, for seconds to minutes
/// (CPU time grows with wall time, so it is not descheduling).  Each repeat
/// runs on the CPU that is quietest just before it (quietest_cpu), and the
/// fastest repeat is what the code costs on a quiet CPU; it repeats from run
/// to run where medians do not.
[[nodiscard]] double fastest(const std::vector<double>& v);

/// Sample count, p50, p99, and the highest percentile of the ladder
/// 50/90/99/99.9/99.99 that still has at least ten samples beyond it.
struct Quantiles {
  std::size_t n = 0;
  double p50 = 0, p99 = 0, max = 0;
  double top_p = 0, top_value = 0;
};
[[nodiscard]] Quantiles quantiles(const std::vector<double>& v);
[[nodiscard]] std::string quantiles_json(const Quantiles& q);

/// TraceSink keeping every Complete wall-clock span, per name: duration and
/// the allocation count obs::Span attaches.  Used with obs::Span around
/// calls into the library's public functions.
class Recorder final : public hypart::obs::TraceSink {
 public:
  void event(const hypart::obs::TraceEvent& e) override;

  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] double total_us(const std::string& name) const;
  [[nodiscard]] double median_us(const std::string& name) const;
  [[nodiscard]] std::int64_t total_allocs(const std::string& name) const;
  /// Duration of the most recent span with this name.
  [[nodiscard]] double last_us(const std::string& name) const;

 private:
  struct Entry {
    std::vector<double> dur;
    std::int64_t allocs = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Entry> spans_;
};

/// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowed_cpus();
/// Confine thread `tid` (0: the calling thread, and the threads it starts
/// from now on) to `cpus`.
void pin_thread(int tid, const std::vector<int>& cpus);
/// Time a fixed ~0.3 ms probe on each of `cpus` and return the CPU that ran
/// it fastest.  Leaves the calling thread pinned to that CPU.
int quietest_cpu(const std::vector<int>& cpus);

/// Process peak RSS in MiB.
[[nodiscard]] double peak_rss_mib();

// Workloads (end-to-end, tracing off unless opts.trace).
void run_serve_mix(const Options& opts, Report& r);
void run_plan(const Options& opts, bool symbolic, Report& r);
void run_exec(const Options& opts, Report& r);

// Per-layer suites for the traced run: each times its layers' public
// functions on its home workload's inputs and adds the per-layer metrics.
void serve_layers(const Options& opts, Report& r);
void plan_layers(const Options& opts, Report& r);
void exec_layers(const Options& opts, Report& r);

/// Untimed mode: a fixed amount of deterministic work per workload whose
/// counters and oracle verdicts must repeat exactly for a seed.
void untimed_serve(const Options& opts, Report& r);
void untimed_plan(const Options& opts, bool symbolic, Report& r);
void untimed_exec(const Options& opts, Report& r);

}  // namespace perf
