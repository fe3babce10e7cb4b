#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/json_writer.hpp"

namespace perf {

using hypart::JsonWriter;

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

std::string report_json(const Report& r) {
  JsonWriter w;
  w.begin_object();
  w.field("attempted", r.attempted);
  w.field("failed", r.failed);
  w.key("metrics").begin_object();
  for (const auto& [k, v] : r.metrics) w.field(k, v);
  w.end_object();
  w.key("counters").begin_object();
  for (const auto& [k, v] : r.counters) w.field(k, v);
  w.end_object();
  w.key("info").begin_object();
  for (const auto& [k, v] : r.info) w.key(k).raw_value(v);
  w.end_object();
  w.begin_array("failures");
  for (const std::string& f : r.failures) w.value(f);
  w.end_array();
  w.end_object();
  return w.str();
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

Quantiles quantiles(const std::vector<double>& v) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  auto at = [&](double p) {
    auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(s.size())));
    return s[std::min(std::max<std::size_t>(rank, 1), s.size()) - 1];
  };
  q.p50 = at(0.50);
  q.p99 = at(0.99);
  q.max = s.back();
  for (double p : {0.50, 0.90, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(s.size()) * (1.0 - p) < 10.0) break;
    q.top_p = p;
    q.top_value = at(p);
  }
  return q;
}

std::string quantiles_json(const Quantiles& q) {
  JsonWriter w;
  w.begin_object();
  w.field("n", static_cast<std::int64_t>(q.n));
  w.field("p50", q.p50);
  w.field("p99", q.p99);
  w.field("max", q.max);
  w.field("top_percentile", q.top_p * 100.0);
  w.field("top_value", q.top_value);
  w.end_object();
  return w.str();
}

void Recorder::event(const hypart::obs::TraceEvent& e) {
  if (e.phase != hypart::obs::Phase::Complete || e.pid != hypart::obs::kPipelinePid) return;
  std::int64_t allocs = 0;
  for (const auto& [k, v] : e.args)
    if (k == "allocs" && std::holds_alternative<std::int64_t>(v)) allocs = std::get<std::int64_t>(v);
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& en = spans_[e.name];
  en.dur.push_back(e.dur);
  en.allocs += allocs;
}

std::vector<double> Recorder::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spans_.find(name);
  return it == spans_.end() ? std::vector<double>{} : it->second.dur;
}

double Recorder::total_us(const std::string& name) const {
  double s = 0;
  for (double d : durations(name)) s += d;
  return s;
}

double Recorder::median_us(const std::string& name) const { return median(durations(name)); }

std::int64_t Recorder::total_allocs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spans_.find(name);
  return it == spans_.end() ? 0 : it->second.allocs;
}

double Recorder::last_us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spans_.find(name);
  return it == spans_.end() || it->second.dur.empty() ? 0.0 : it->second.dur.back();
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_thread(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)::sched_setaffinity(tid, sizeof(set), &set);
}

namespace {
volatile std::uint32_t probe_sink = 0;
}  // namespace

int quietest_cpu(const std::vector<int>& cpus) {
  // A dependent walk over a 256 KiB table: the same loads and integer work
  // on every call, cheap enough to run before every timed repeat.
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 16);
    std::mt19937 rng(5);
    for (std::uint32_t& x : t) x = rng();
    return t;
  }();
  int best_cpu = cpus.empty() ? -1 : cpus.front();
  double best = 1e300;
  for (int c : cpus) {
    pin_thread(0, {c});
    double t_min = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      const double t0 = now_us();
      std::uint32_t p = 1;
      for (std::uint32_t k = 0; k < 60000; ++k) p = table[(p ^ k) & 0xffffu] + k;
      t_min = std::min(t_min, now_us() - t0);
      probe_sink = p;
    }
    if (t_min < best) {
      best = t_min;
      best_cpu = c;
    }
  }
  if (best_cpu >= 0) pin_thread(0, {best_cpu});
  return best_cpu;
}

double peak_rss_mib() { return static_cast<double>(hypart::obs::peak_rss_kb()) / 1024.0; }

}  // namespace perf
