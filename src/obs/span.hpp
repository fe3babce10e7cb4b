// hypart::obs — self-profiling spans and the per-phase profile collector.
//
// `Span` is the one RAII span: wall time + peak-RSS delta + heap-allocation
// count over the span's extent, emitted as one Complete trace event whose
// args carry the extra dimensions (`allocs`, `rss_peak_delta_kb`).  The
// allocation count comes from a thread-local counting hook installed on the
// global operator new (obs/span.cpp), so it needs no allocator replacement
// and costs one thread-local increment per allocation; the RSS figure is
// the process peak (getrusage ru_maxrss), whose *delta* across a span is a
// monotone "this phase grew the footprint by X" attribution.
//
// `Profiler` is a TraceSink that aggregates Complete events per span name:
// call counts, total/max wall time, allocations, RSS growth.  Installing it
// as (or tee-ing it into) the ObsContext trace sink turns the existing
// stage instrumentation into a per-phase profile — `hypart profile`
// renders it as a table, benches embed it in BENCH_*.json.
//
// Everything here obeys the obs design rule: with a null sink, Span does no
// clock/rusage/counter reads at all.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace hypart::obs {

/// Allocations on the calling thread since process start (monotone).
/// Counted by the global operator new replacement in span.cpp.
[[nodiscard]] std::uint64_t thread_alloc_count();

/// Process peak RSS in KiB (ru_maxrss); 0 where unsupported.
[[nodiscard]] std::int64_t peak_rss_kb();

/// RAII self-profiler span: wall-clock duration plus allocation-count and
/// peak-RSS deltas, emitted as a Complete event on destruction.  Fully
/// inert (no clock, no rusage, no counter reads) when `sink` is null.
class Span {
 public:
  Span(TraceSink* sink, std::string name, std::string cat = "pipeline",
       std::uint64_t pid = kPipelinePid, std::uint64_t tid = kPipelineTid, Args args = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach an argument after construction (e.g. a stage's output size).
  void arg(std::string key, ArgValue value);

 private:
  TraceSink* sink_;
  TraceEvent ev_;
  std::uint64_t allocs_at_start_ = 0;
  std::int64_t rss_at_start_ = 0;
};

/// Aggregated statistics for one span name.
struct PhaseStats {
  std::string cat;
  std::int64_t calls = 0;
  double wall_us = 0.0;          ///< summed durations
  double max_us = 0.0;           ///< longest single call
  std::int64_t allocs = 0;       ///< summed `allocs` args
  std::int64_t rss_peak_delta_kb = 0;  ///< summed `rss_peak_delta_kb` args
};

/// TraceSink that folds Complete events into per-name PhaseStats.  Safe for
/// concurrent emission (one mutex; span emission is rare relative to work).
/// Non-Complete events (instants, counters, metadata) and simulated-clock
/// events (pid != kPipelinePid, whose durations are machine time units, not
/// wall microseconds) are ignored.
class Profiler final : public TraceSink {
 public:
  void event(const TraceEvent& e) override;

  /// Snapshot of the aggregate, name-ordered (deterministic rendering).
  [[nodiscard]] std::map<std::string, PhaseStats> phases() const;
  /// Wall time of the named phase, 0 when never seen.
  [[nodiscard]] double wall_us(const std::string& name) const;
  /// JSON array [{name, cat, calls, wall_us, max_us, allocs,
  /// rss_peak_delta_kb}, ...] in name order.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, PhaseStats> phases_;
};

/// Forwards every event to each of the (non-null) sinks; lets a Profiler
/// observe the same stream a ChromeTraceSink records.
class TeeSink final : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks)) {}
  void event(const TraceEvent& e) override {
    for (TraceSink* s : sinks_)
      if (s != nullptr) s->event(e);
  }
  void flush() override {
    for (TraceSink* s : sinks_)
      if (s != nullptr) s->flush();
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace hypart::obs
