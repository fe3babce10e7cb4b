// hypart::obs — structured tracing for the pipeline and simulator.
//
// A `TraceSink` receives typed `TraceEvent`s modeled on the Chrome
// trace-event format (https://docs.google.com/document/d/1CvAClvFfyA5R-
// PhYUmn5OOQtYMH4h6I0nSsKchNAySU): spans (`Complete`), instants, counters
// and track metadata, each stamped with a (pid, tid) track and a timestamp.
// Two clock domains share one trace:
//
//   * pid kPipelinePid — real wall-clock microseconds (stage spans,
//     mapping-search progress, runtime workers);
//   * pid kSimPid — *simulated* machine time units from the cost model
//     (one tid per simulated processor, one per physical link).
//
// Instrumentation sites hold a `TraceSink*` that may be null; every helper
// below is null-safe and compiles to a pointer test when tracing is off, so
// the instrumented code paths are free when no sink is installed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace hypart::obs {

/// Trace track conventions (Chrome trace pid/tid pairs).
inline constexpr std::uint64_t kPipelinePid = 1;  ///< wall-clock microseconds
inline constexpr std::uint64_t kSimPid = 2;       ///< simulated machine time units
inline constexpr std::uint64_t kPipelineTid = 0;  ///< pipeline stage spans
inline constexpr std::uint64_t kMappingTid = 1;   ///< Algorithm 2 search progress
inline constexpr std::uint64_t kRuntimeTidBase = 100;  ///< threaded runtime workers
/// Simulator link tracks live above processor tracks: tid = base + link index.
inline constexpr std::uint64_t kLinkTidBase = 1'000'000;

/// Typed argument value attached to an event.
using ArgValue = std::variant<std::int64_t, double, std::string>;
using Args = std::vector<std::pair<std::string, ArgValue>>;

/// Chrome trace-event phases used by hypart.
enum class Phase : char {
  Complete = 'X',  ///< span with explicit duration
  Instant = 'i',
  Counter = 'C',
  Metadata = 'M',
};

struct TraceEvent {
  std::string name;
  std::string cat;
  Phase phase = Phase::Instant;
  double ts = 0.0;   ///< microseconds (pipeline pid) or simulated units (sim pid)
  double dur = 0.0;  ///< Complete events only
  std::uint64_t pid = kPipelinePid;
  std::uint64_t tid = 0;
  Args args;
};

/// Abstract event consumer.  Implementations must be safe to call from
/// multiple threads (the library itself only emits from one thread at a
/// time, but user code may not).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent& e) = 0;
  virtual void flush() {}
};

/// Discards everything; useful to assert the instrumented paths are no-ops.
class NullSink final : public TraceSink {
 public:
  void event(const TraceEvent&) override {}
};

/// One JSON object per line per event (machine-tailable stream).  Emission
/// is serialized by an internal mutex, so concurrent producers interleave
/// whole lines, never bytes.
class JsonlSink final : public TraceSink {
 public:
  void event(const TraceEvent& e) override;
  void flush() override {}

  /// Copy of the buffer (a reference would race with concurrent emitters).
  [[nodiscard]] std::string str() const;

 private:
  mutable std::mutex mutex_;
  std::string out_;
};

/// Buffers events and renders the Chrome/Perfetto trace JSON
/// (`{"traceEvents": [...]}`) on demand.  Load the output at
/// https://ui.perfetto.dev or chrome://tracing.  Thread-safe emission.
class ChromeTraceSink final : public TraceSink {
 public:
  void event(const TraceEvent& e) override;

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::string str() const;
  /// Write `str()` to a file; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// Render one event as a Chrome trace-event JSON object (no trailing
/// newline).  Shared by JsonlSink and ChromeTraceSink.
[[nodiscard]] std::string event_to_json(const TraceEvent& e);

/// Monotonic wall clock in microseconds since the first call in-process.
[[nodiscard]] double wall_clock_us();

// ---- null-safe emission helpers -------------------------------------------

void emit_complete(TraceSink* sink, std::string name, std::string cat, double ts, double dur,
                   std::uint64_t pid, std::uint64_t tid, Args args = {});
void emit_instant(TraceSink* sink, std::string name, std::string cat, double ts,
                  std::uint64_t pid, std::uint64_t tid, Args args = {});
void emit_counter(TraceSink* sink, std::string name, double ts, std::uint64_t pid,
                  double value);
void emit_process_name(TraceSink* sink, std::uint64_t pid, std::string name);
void emit_thread_name(TraceSink* sink, std::uint64_t pid, std::uint64_t tid, std::string name);

}  // namespace hypart::obs
