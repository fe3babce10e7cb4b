#include "obs/trace.hpp"

#include <chrono>
#include <fstream>

#include "core/json_writer.hpp"

namespace hypart::obs {

double wall_clock_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - epoch).count();
}

std::string event_to_json(const TraceEvent& e) {
  JsonWriter w;
  w.begin_object();
  w.field("name", e.name);
  if (!e.cat.empty()) w.field("cat", e.cat);
  w.field("ph", std::string(1, static_cast<char>(e.phase)));
  w.field("ts", e.ts);
  if (e.phase == Phase::Complete) w.field("dur", e.dur);
  w.field("pid", static_cast<std::uint64_t>(e.pid));
  w.field("tid", static_cast<std::uint64_t>(e.tid));
  if (e.phase == Phase::Instant) w.field("s", std::string("t"));
  if (!e.args.empty()) {
    w.key("args").begin_object();
    for (const auto& [k, v] : e.args) {
      w.key(k);
      if (const auto* i = std::get_if<std::int64_t>(&v)) w.value(*i);
      else if (const auto* d = std::get_if<double>(&v)) w.value(*d);
      else w.value(std::get<std::string>(v));
    }
    w.end_object();
  }
  w.end_object();
  return w.str();
}

void JsonlSink::event(const TraceEvent& e) {
  std::string line = event_to_json(e);  // serialize outside the lock
  std::lock_guard<std::mutex> lock(mutex_);
  out_ += line;
  out_ += '\n';
}

std::string JsonlSink::str() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return out_;
}

void ChromeTraceSink::event(const TraceEvent& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(e);
}

std::size_t ChromeTraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::string ChromeTraceSink::str() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i) out += ',';
    out += '\n';
    out += event_to_json(events_[i]);
  }
  out += "\n]}\n";
  return out;
}

bool ChromeTraceSink::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << str();
  return static_cast<bool>(out);
}

void emit_complete(TraceSink* sink, std::string name, std::string cat, double ts, double dur,
                   std::uint64_t pid, std::uint64_t tid, Args args) {
  if (sink == nullptr) return;
  sink->event(TraceEvent{std::move(name), std::move(cat), Phase::Complete, ts, dur, pid, tid,
                         std::move(args)});
}

void emit_instant(TraceSink* sink, std::string name, std::string cat, double ts,
                  std::uint64_t pid, std::uint64_t tid, Args args) {
  if (sink == nullptr) return;
  sink->event(TraceEvent{std::move(name), std::move(cat), Phase::Instant, ts, 0.0, pid, tid,
                         std::move(args)});
}

void emit_counter(TraceSink* sink, std::string name, double ts, std::uint64_t pid,
                  double value) {
  if (sink == nullptr) return;
  sink->event(TraceEvent{std::move(name), "counter", Phase::Counter, ts, 0.0, pid, 0,
                         Args{{"value", value}}});
}

void emit_process_name(TraceSink* sink, std::uint64_t pid, std::string name) {
  if (sink == nullptr) return;
  sink->event(TraceEvent{"process_name", "__metadata", Phase::Metadata, 0.0, 0.0, pid, 0,
                         Args{{"name", std::move(name)}}});
}

void emit_thread_name(TraceSink* sink, std::uint64_t pid, std::uint64_t tid, std::string name) {
  if (sink == nullptr) return;
  sink->event(TraceEvent{"thread_name", "__metadata", Phase::Metadata, 0.0, 0.0, pid, tid,
                         Args{{"name", std::move(name)}}});
}

}  // namespace hypart::obs
