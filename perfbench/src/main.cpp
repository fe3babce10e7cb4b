// hypart_perf — the benchmark runner behind perfbench/run.py.
//
//   hypart_perf run      --workload W --seed N --seconds S --trace 0|1
//                        --hypart PATH --workdir DIR --refs FILE
//   hypart_perf untimed  --workload W --seed N [--hypart ...]   (deterministic counters)
//   hypart_perf record                                          (plan reference values)
//   hypart_perf capacity                                        (parallel-capacity probe)
//
// Prints one JSON object on stdout: attempted/failed counts, metrics,
// deterministic counters and detail.  Exit 0 when the run completed (the
// verdict is in "failed"), 2 on a usage error, 1 when the run could not be
// carried out.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/json_writer.hpp"

namespace perf {
std::string record_references();
}

namespace {

using perf::Options;
using perf::Report;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "hypart_perf: %s\n", msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--hypart") o.hypart = v;
    else if (a == "--workdir") o.workdir = v;
    else if (a == "--refs") o.refs = v;
    else usage(("unknown option " + a).c_str());
  }
  if (o.workload != "serve-mix" && o.workload != "plan-symbolic" && o.workload != "plan-dense" &&
      o.workload != "exec")
    usage("unknown workload");
  return o;
}

void run_e2e(const Options& o, Report& r) {
  if (o.workload == "serve-mix") perf::run_serve_mix(o, r);
  else if (o.workload == "plan-symbolic") perf::run_plan(o, true, r);
  else if (o.workload == "plan-dense") perf::run_plan(o, false, r);
  else perf::run_exec(o, r);
}

/// Spin the same loop on one thread and on every hardware thread; the
/// capacity is how many threads' worth of work the host completes at once.
double spin_seconds(unsigned threads) {
  auto spin = [] {
    volatile std::uint64_t x = 0;
    for (std::uint64_t k = 0; k < 150'000'000ULL; ++k) x = x + k;
  };
  const double t0 = perf::now_us();
  std::vector<std::thread> th;
  for (unsigned k = 0; k < threads; ++k) th.emplace_back(spin);
  for (std::thread& t : th) t.join();
  return (perf::now_us() - t0) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command (run|untimed|record|capacity)");
  const std::string cmd = argv[1];
  try {
    if (cmd == "record") {
      std::printf("%s\n", perf::record_references().c_str());
      return 0;
    }
    if (cmd == "capacity") {
      const unsigned n = std::max(1u, std::thread::hardware_concurrency());
      const double one = spin_seconds(1);
      const double all = spin_seconds(n);
      hypart::JsonWriter w;
      w.begin_object();
      w.field("nproc", static_cast<std::int64_t>(n));
      w.field("spin_1_s", one);
      w.field("spin_n_s", all);
      w.field("capacity", static_cast<double>(n) * one / all);
      w.field("compiler", PERF_COMPILER);
      w.field("build_type", PERF_BUILD_TYPE);
      w.end_object();
      std::printf("%s\n", w.str().c_str());
      return 0;
    }
    Options o = parse(argc, argv);
    Report r;
    if (cmd == "untimed") {
      if (o.workload == "serve-mix") perf::untimed_serve(o, r);
      else if (o.workload == "plan-symbolic") perf::untimed_plan(o, true, r);
      else if (o.workload == "plan-dense") perf::untimed_plan(o, false, r);
      else perf::untimed_exec(o, r);
    } else if (cmd == "run" && !o.trace) {
      run_e2e(o, r);
    } else if (cmd == "run") {
      // Traced run: the workload's end-to-end procedure with tracing on
      // (for the overhead), then every layer suite on its home inputs.
      Report e2e;
      run_e2e(o, e2e);
      Options quiet = o;
      quiet.trace = false;
      perf::serve_layers(quiet, r);
      perf::plan_layers(quiet, r);
      perf::exec_layers(quiet, r);
      hypart::JsonWriter w;
      w.begin_object();
      for (const auto& [k, v] : e2e.metrics) w.field(k, v);
      w.end_object();
      r.info["traced_e2e"] = w.str();
      r.attempted += e2e.attempted;
      r.failed += e2e.failed;
      for (const std::string& f : e2e.failures) r.failures.push_back(f);
    } else {
      usage("unknown command");
    }
    std::printf("%s\n", perf::report_json(r).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hypart_perf: %s\n", e.what());
    return 1;
  }
}
