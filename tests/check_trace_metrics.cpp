// Checks the files `hypart simulate --trace T --metrics M` writes for a
// dense plan: on the simulated clock (pid 2) there are "proc N" tracks and
// "link a->b" tracks (link tids >= 1000000), and every xfer event sits on a
// link track; the metrics carry the sim.msg_words / sim.msg_hops histograms
// and the sim.link.busiest_words series.
//
//   check_trace_metrics T.json M.json
//
// Exits 0 when every check holds, 1 with one line per failed check, 64 on
// a usage error.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <set>
#include <string>

#include "core/json_reader.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using hypart::JsonValue;
  if (argc != 3) {
    std::fprintf(stderr, "usage: check_trace_metrics TRACE.json METRICS.json\n");
    return 64;
  }
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "check_trace_metrics: %s\n", what.c_str());
    ++failures;
  };
  JsonValue trace, metrics;
  std::string error;
  if (!hypart::parse_json_file(argv[1], trace, error) ||
      !hypart::parse_json_file(argv[2], metrics, error)) {
    std::fprintf(stderr, "check_trace_metrics: %s\n", error.c_str());
    return 1;
  }

  try {
    std::set<std::int64_t> procs, links, xfers;
    const auto link_base = static_cast<std::int64_t>(hypart::obs::kLinkTidBase);
    for (const JsonValue& e : trace.get("traceEvents").as_array()) {
      if (e.get("pid").as_int64() != static_cast<std::int64_t>(hypart::obs::kSimPid)) continue;
      const std::int64_t tid = e.get("tid").as_int64();
      const std::string& name = e.get("name").as_string();
      if (name == "xfer") xfers.insert(tid);
      if (name != "thread_name") continue;
      const std::string& track = e.get("args").get("name").as_string();
      if (track == "proc " + std::to_string(tid) && tid < link_base) procs.insert(tid);
      if (track.rfind("link ", 0) == 0 && track.find("->") != std::string::npos &&
          tid >= link_base)
        links.insert(tid);
    }
    check(!procs.empty(), "no 'proc N' track on pid 2");
    check(!links.empty(), "no 'link a->b' track with tid >= 1000000 on pid 2");
    check(!xfers.empty(), "no xfer event on pid 2");
    for (std::int64_t tid : xfers)
      check(links.count(tid) > 0, "xfer event on tid " + std::to_string(tid) +
                                      ", which is not a link track");

    for (const char* h : {"sim.msg_words", "sim.msg_hops"})
      check(metrics.get("histograms").get(h).int_or("count", 0) > 0,
            std::string("metrics lack a non-empty ") + h + " histogram");
    const JsonValue& busiest = metrics.get("series").get("sim.link.busiest_words");
    check(busiest.is_array() && !busiest.as_array().empty(),
          "metrics lack the sim.link.busiest_words series");
  } catch (const std::exception& e) {
    check(false, std::string("malformed document: ") + e.what());
  }
  return failures == 0 ? 0 : 1;
}
