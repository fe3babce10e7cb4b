// hypart — command-line driver.
//
//   hypart <command> <file.loop | -> [options]
//
// commands:
//   analyze    dependence vectors, structure counts, time-function search
//   partition  Algorithm 1: projection, grouping, blocks, theorem checks
//   map        Algorithm 2: blocks -> hypercube, mapping metrics
//   simulate   cost simulation (three accounting conventions)
//   run        execute sequentially AND distributed; verify equivalence
//   codegen    emit the SPMD node program
//   wavefront  print the time-outer transformed loop
//   json       machine-readable dump of the whole pipeline
//   trace      Chrome/Perfetto trace of the pipeline + simulated execution
//   profile    per-phase self-profile (wall time, allocations, peak RSS)
//   explain    prediction-accuracy ledger: simulator vs threaded runtime
//   serve      long-running NDJSON plan service with a canonical plan cache
//              (docs/serve.md; takes no <file> argument)
//
// options: `hypart --help`; the plan options are the rows of core/params.hpp.
//
// exit codes (see docs/robustness.md): 0 ok, 2 check/verify failure,
// 64 usage, 65 parse, 66 cannot open input, 69 unsatisfiable, 70 internal,
// 74 io, 75 stall, 76 worker death, 77 fault plan, 78 config, 79 overloaded.
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>

#include "codegen/spmd.hpp"
#include "core/error.hpp"
#include "core/json_export.hpp"
#include "core/params.hpp"
#include "core/pipeline.hpp"
#include "core/io_util.hpp"
#include "exec/interpreter.hpp"
#include "exec/parallel_runtime.hpp"
#include "exec/proc_runtime.hpp"
#include "fault/fault_plan.hpp"
#include "fault/remap.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "perf/table.hpp"
#include "serve/canonical.hpp"
#include "serve/server.hpp"
#include "sim/report.hpp"
#include "transform/wavefront.hpp"

namespace {

using namespace hypart;

const char kSynopsis[] =
    "usage: hypart <analyze|partition|map|simulate|run|codegen|wavefront|json|trace\n"
    "               |profile|explain>\n"
    "              <file.loop|-> [plan options]\n"
    "              [--faults SPEC] [--backend threads|procs] [--recv-timeout-ms N]\n"
    "              [--trace FILE] [--metrics FILE]\n"
    "              [--json] [--repeats N] [--ledger FILE]\n"
    "       hypart serve [--socket PATH | --port N] [--threads N] [--dim N]\n"
    "              [--space M] [--cache N] [--skeleton-cache N]\n"
    "              [--shards N] [--max-pending N] [--batch-threads N]\n"
    "              [--trace FILE] [--metrics FILE]\n"
    "\n"
    "plan options (serve's \"params\" members take the same names and ranges):\n";

const char kOtherOptions[] =
    "\n"
    "fault injection (see docs/robustness.md):\n"
    "  --faults SPEC  deterministic fault plan, comma-separated terms:\n"
    "                 node:<id>[@<step>]      fail a node (from start or at step)\n"
    "                 link:<a>-<b>[@<step>]   fail a cube edge\n"
    "                 rand:<seed>:<K>n[<M>l]  sample K nodes / M links (seeded)\n"
    "                 proc:kill:<id>[@<step>]       SIGKILL a real worker process\n"
    "                 proc:hang:<id>[@<step>]       worker stops heartbeating\n"
    "                 proc:trunc:<id>[@<step>]      worker writes a truncated frame\n"
    "                 proc:delay:<id>:<ms>[@<step>] worker delays its sends\n"
    "                 proc:rand:<seed>              seeded kill (sampled victim/step)\n"
    "                 simulate reroutes and remaps; run executes on the\n"
    "                 degraded (remapped) hypercube and re-verifies results;\n"
    "                 proc: terms need --backend procs (ignored elsewhere)\n"
    "  --backend B    threads (default) or procs: the supervised multi-process\n"
    "                 backend (fork+socketpair workers, heartbeats, recovery)\n"
    "  --recv-timeout-ms N  stall watchdog for run (default 30000, 0 = off)\n"
    "\n"
    "observability:\n"
    "  --trace FILE   Chrome trace-event JSON of the run; open in\n"
    "                 https://ui.perfetto.dev (one track per processor and\n"
    "                 per physical link, plus wall-clock pipeline stages)\n"
    "  --metrics FILE deterministic metrics snapshot (counters, histograms,\n"
    "                 busiest-link series); byte-identical across reruns\n"
    "  trace          like simulate, but prints the Chrome trace to stdout\n"
    "  profile        per-phase self-profile of the pipeline run (wall time,\n"
    "                 allocation counts, peak-RSS growth); --json for the\n"
    "                 raw array\n"
    "  explain        prediction-accuracy ledger: runs the cost model and\n"
    "                 the threaded runtime side by side and attributes the\n"
    "                 error per component (compute/comm/stall/other);\n"
    "                 --repeats N runs, --ledger FILE accumulates rows,\n"
    "                 --json emits the raw row\n"
    "\n"
    "serve (docs/serve.md):\n"
    "  long-running daemon answering partition/map/predict/explain queries\n"
    "  over newline-delimited JSON on a Unix-domain (--socket PATH) or\n"
    "  loopback TCP (--port N, 0 = ephemeral) socket.  Structurally\n"
    "  identical nests share one cached plan: --cache N documents\n"
    "  (default 256), --skeleton-cache N time functions (default 128),\n"
    "  --shards N cache lock stripes per tier (default 8, clamped),\n"
    "  --threads N workers (default 4), --dim/--space request defaults\n"
    "  (serve defaults to --space symbolic).  --max-pending N bounds the\n"
    "  accepted-but-unserved connection queue (0 = unbounded; beyond it\n"
    "  connections get one overloaded/79 error line), --batch-threads N\n"
    "  caps the planning fan-out of {\"op\":\"batch\"} requests (0 = cores).\n"
    "  SIGTERM/SIGINT or an {\"op\":\"shutdown\"} request stop it cleanly.\n";

/// The help text; its plan-option lines are rendered from the parameter
/// table, one per row, with the row's constraint and default.
std::string usage_text() {
  const char* const metavar[] = {"N", "X", "", "M", "a,b,.."};  // by ParamSpec::Type
  std::string text = kSynopsis;
  for (const ParamSpec& p : param_table()) {
    const bool bare = p.type == ParamSpec::Type::Bool;
    std::string line = "  --" + std::string(p.name) + " " + metavar[static_cast<int>(p.type)];
    line.resize(std::max<std::size_t>(line.size() + 1, 18), ' ');
    line += p.help;
    if (!bare) line += ": " + param_constraint(p);
    JsonValue d = p.get(PipelineConfig{});
    if (!bare && !d.is_null()) line += "; default " + (d.is_string() ? d.as_string() : d.to_json());
    text += line + "\n";
  }
  return text + kOtherOptions;
}

/// Reports a failure that escaped planning (classified by core/error) and
/// returns its exit code.
int report_failure(const std::exception& e) {
  const Error typed = classify_failure(e);
  std::fprintf(stderr, "hypart: %s\n", typed.what());
  return typed.exit_code();
}

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "hypart: %s\n", msg);
  std::fprintf(stderr, "%s", usage_text().c_str());
  std::exit(64);
}

[[noreturn]] void help() {
  std::printf("%s", usage_text().c_str());
  std::exit(0);
}

std::string read_source(const std::string& path) {
  std::ifstream file;
  if (path != "-") file.open(path);
  if (path != "-" && !file) {
    std::fprintf(stderr, "hypart: cannot open '%s'\n", path.c_str());
    std::exit(66);
  }
  std::ostringstream ss;
  ss << (file.is_open() ? file.rdbuf() : std::cin.rdbuf());
  return ss.str();
}

/// The value of numeric flag `flag`: the whole of `text` must be one number
/// in [lo, hi], otherwise a usage error (exit 64).
template <typename T>
T parse_number(const std::string& flag, const std::string& text,
               T lo = std::numeric_limits<T>::lowest(), T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !(v >= lo && v <= hi))
    usage(("bad value '" + text + "' for " + flag).c_str());
  return v;
}

/// Apply plan flag `flag` (`--<name>` of a parameter-table row) to
/// `config`; an unknown flag or a bad value is a usage error (exit 64).
template <typename Next>
void set_plan_flag(const std::string& flag, Next next, PipelineConfig& config) {
  const ParamSpec* p = flag.rfind("--", 0) == 0 ? find_param(flag.substr(2)) : nullptr;
  if (p == nullptr) usage(("unknown option " + flag).c_str());
  try {
    set_param_text(config, "--", p->name, p->type == ParamSpec::Type::Bool ? "true" : next());
  } catch (const Error& e) {
    usage(e.what());
  }
}

struct CliOptions {
  std::string command;
  std::string file;
  PipelineConfig config;
  std::string trace_path;          ///< --trace FILE (Chrome trace JSON)
  std::string metrics_path;        ///< --metrics FILE (metrics snapshot JSON)
  std::int64_t recv_timeout_ms = 30000;  ///< --recv-timeout-ms (0 disables)
  bool json = false;               ///< --json (profile/explain raw output)
  int repeats = 3;                 ///< --repeats (explain runtime repetitions)
  std::string ledger_path;         ///< --ledger FILE (explain accumulation)
};

CliOptions parse_args(int argc, char** argv) {
  if (argc < 3) usage();
  CliOptions o;
  o.command = argv[1];
  o.file = argv[2];
  for (int i = 3; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--faults") {
      try {
        o.config.sim.faults = fault::FaultPlan::parse(next());
      } catch (const Error& e) {
        std::exit(report_failure(e));
      }
    } else if (a == "--backend") {
      std::string b = next();
      if (b == "threads") o.config.backend = ExecBackend::Threads;
      else if (b == "procs") o.config.backend = ExecBackend::Procs;
      else usage("unknown backend (want threads|procs)");
    } else if (a == "--recv-timeout-ms")
      o.recv_timeout_ms = parse_number<std::int64_t>(a, next(), 0);
    else if (a == "--trace") o.trace_path = next();
    else if (a == "--metrics") o.metrics_path = next();
    else if (a == "--json") o.json = true;
    else if (a == "--repeats") o.repeats = parse_number(a, next(), 1);
    else if (a == "--ledger") o.ledger_path = next();
    else set_plan_flag(a, next, o.config);
  }
  return o;
}

int cmd_analyze(const LoopNest& nest, const PipelineResult& r) {
  std::printf("%s", nest.to_string().c_str());
  std::printf("\ndependences:\n");
  for (const Dependence& d : r.dependence.dependences)
    std::printf("  %s\n", d.to_string().c_str());
  for (const std::string& w : r.dependence.warnings)
    std::printf("  warning: %s\n", w.c_str());
  std::printf("iterations: %llu, Pi = %s, schedule steps: %lld\n",
              static_cast<unsigned long long>(r.iteration_count()),
              r.time_function.to_string().c_str(), static_cast<long long>(r.sim.steps));
  return 0;
}

int cmd_partition(const PipelineResult& r) {
  const PlanView& plan = *r.plan;
  std::printf("projected points: %llu, r = %lld, beta = %zu, blocks: %llu%s\n",
              static_cast<unsigned long long>(plan.line_count),
              static_cast<long long>(plan.group_size_r), plan.beta,
              static_cast<unsigned long long>(plan.blocks.group_count), plan.partition_tag.c_str());
  std::printf("interblock arcs: %zu / %zu (%.1f%%)\n", plan.stats.interblock_arcs,
              plan.stats.total_arcs, 100.0 * plan.stats.interblock_fraction());
  std::printf("cover=%s theorem1=%s %s lemma2=%s lemma3=%s\n", r.exact_cover ? "ok" : "FAIL",
              r.theorem1 ? "ok" : "FAIL", r.theorem2.to_string().c_str(),
              r.lemmas.lemma2_holds ? "ok" : "FAIL", r.lemmas.lemma3_holds ? "ok" : "FAIL");
  std::printf("%s", plan.partition_table().c_str());
  return r.exact_cover && r.theorem1 && r.theorem2.holds ? 0 : 2;
}

int cmd_map(const PipelineResult& r, unsigned dim) {
  Hypercube cube(dim);
  std::printf("blocks: %llu -> %s%s", static_cast<unsigned long long>(r.plan->blocks.group_count),
              cube.name().c_str(), r.plan->mapping_report(cube).c_str());
  return 0;
}

int cmd_simulate(const PipelineResult& r) {
  std::printf("T_exec = %s  (= %.3f time units)\n", r.sim.total.to_string().c_str(), r.sim.time);
  std::printf("steps: %lld, messages: %lld, words: %lld\n",
              static_cast<long long>(r.sim.steps), static_cast<long long>(r.sim.messages),
              static_cast<long long>(r.sim.words));
  if (r.sim.failed_nodes > 0 || r.sim.failed_links > 0) {
    std::printf("faults: failed_nodes=%lld failed_links=%lld rerouted_messages=%lld "
                "migrated_blocks=%lld migration_cost=%s\n",
                static_cast<long long>(r.sim.failed_nodes),
                static_cast<long long>(r.sim.failed_links),
                static_cast<long long>(r.sim.rerouted_messages),
                static_cast<long long>(r.sim.migrated_blocks),
                r.sim.migration_cost.to_string().c_str());
  }
  if (r.structure != nullptr) {
    // The Gantt chart needs the materialized schedule; symbolic runs print
    // the totals above and skip it.
    UtilizationReport util = processor_utilization(*r.structure, r.time_function, r.partition,
                                                   r.mapping.mapping);
    std::printf("%smean utilization %.0f%%\n", util.gantt.c_str(), util.mean_utilization * 100.0);
  }
  return 0;
}

int cmd_profile(const obs::Profiler& prof, bool json) {
  if (json) {
    std::printf("%s\n", prof.to_json().c_str());
    return 0;
  }
  std::map<std::string, obs::PhaseStats> phases = prof.phases();
  if (phases.empty()) {
    std::printf("no spans recorded\n");
    return 0;
  }
  // The whole-run span is the denominator for the %% column; stages nest
  // inside it, so shares do not sum to 100 (sub-spans double-count).
  double total_us = prof.wall_us("run_pipeline");
  if (total_us <= 0.0)
    for (const auto& [name, s] : phases) total_us = std::max(total_us, s.wall_us);
  auto ms = [](double us) {
    std::ostringstream os;
    os.precision(3);
    os << std::fixed << us / 1000.0;
    return os.str();
  };
  std::vector<std::pair<std::string, obs::PhaseStats>> order(phases.begin(), phases.end());
  std::stable_sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second.wall_us > b.second.wall_us;
  });
  TextTable t({"phase", "cat", "calls", "wall ms", "%", "max ms", "allocs", "rss +KiB"});
  for (const auto& [name, s] : order) {
    std::ostringstream pct;
    pct.precision(1);
    pct << std::fixed << (total_us > 0.0 ? 100.0 * s.wall_us / total_us : 0.0);
    t.row(name, s.cat, s.calls, ms(s.wall_us), pct.str(), ms(s.max_us), s.allocs,
          s.rss_peak_delta_kb);
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("pipeline wall time: %s ms\n", ms(total_us).c_str());
  return 0;
}

int cmd_explain(const LoopNest& nest, const CliOptions& o) {
  obs::LedgerOptions lopts;
  lopts.repeats = o.repeats;
  lopts.backend = o.config.backend;
  lopts.obs = o.config.obs;
  obs::LedgerRow row = obs::run_ledger(nest, o.config, lopts);

  obs::AccuracyLedger ledger;
  if (!o.ledger_path.empty()) {
    if (std::ifstream(o.ledger_path).good()) {
      std::string err;
      if (!ledger.load(o.ledger_path, err)) {
        std::fprintf(stderr, "hypart: %s\n", err.c_str());
        return 65;
      }
    }
  }
  ledger.append(row);
  if (!o.ledger_path.empty()) {
    std::string err;
    if (!ledger.save(o.ledger_path, err)) {
      std::fprintf(stderr, "hypart: %s\n", err.c_str());
      return 74;
    }
  }

  if (o.json) {
    std::printf("%s\n", row.to_json().c_str());
    return 0;
  }
  std::printf("%s", ledger.table().c_str());
  std::printf("calibration: %.4f us per model unit; wall: median %.1f us, min %.1f us "
              "over %d repeats; mean |dshare| %.1f%%\n",
              row.calibration_us_per_unit, row.measured.total, row.measured_min_us,
              row.repeats, 100.0 * row.mean_abs_share_error());
  return 0;
}

int cmd_run(const LoopNest& nest, const PipelineResult& r, const CliOptions& o) {
  // With --faults, execute on the degraded hypercube: remap blocks off the
  // failed nodes first, then run and re-verify against the sequential result.
  Mapping mapping = r.mapping.mapping;
  if (!o.config.sim.faults.machine_empty()) {
    Hypercube cube(o.config.cube_dim);
    fault::FaultSet fset = o.config.sim.faults.resolve(cube);
    fault::RemapResult remap = fault::remap_for_faults(r.partition, mapping, cube, fset);
    mapping = remap.mapping;
    std::printf("faults: failed_nodes=%lld migrated_blocks=%zu migration_words=%lld\n",
                static_cast<long long>(fset.failed_node_count()), remap.migrations.size(),
                static_cast<long long>(remap.migration_words));
  }
  ArrayStore seq = run_sequential(nest);
  DistributedResult dist = run_distributed(nest, *r.structure, r.time_function, r.partition,
                                           mapping, r.dependence);
  EquivalenceReport e1 = compare_stores(seq, dist.written);
  std::printf("written elements: %zu\n", e1.compared);
  std::printf("distributed interpreter == sequential: %s%s\n", e1.equal ? "YES" : "NO — ",
              e1.equal ? "" : e1.first_mismatch.c_str());
  bool e2_equal = false;
  if (o.config.backend == ExecBackend::Procs) {
    ProcRunOptions popts;
    popts.obs = o.config.obs;
    popts.run_timeout_ms = o.recv_timeout_ms;
    popts.proc_faults = o.config.sim.faults.proc_faults;
    ProcRunResult pr = run_procs(nest, *r.structure, r.time_function, r.partition, mapping,
                                 r.dependence, popts);
    EquivalenceReport e2 = compare_stores(seq, pr.written);
    e2_equal = e2.equal;
    std::printf("process runtime == sequential: %s%s  (%zu workers, %lld messages, "
                "%lld hops, %d recoveries, %zu blocks reassigned%s)\n",
                e2.equal ? "YES" : "NO — ", e2.equal ? "" : e2.first_mismatch.c_str(),
                pr.stats.workers, static_cast<long long>(pr.stats.messages_sent),
                static_cast<long long>(pr.stats.route_hops), pr.stats.recoveries,
                pr.stats.migrated_blocks, pr.stats.degraded ? ", DEGRADED to threads" : "");
  } else {
    ParallelRunOptions popts;
    popts.obs = o.config.obs;
    popts.recv_timeout_ms = o.recv_timeout_ms;
    ParallelRunResult par = run_parallel(nest, *r.structure, r.time_function, r.partition,
                                         mapping, r.dependence, popts);
    EquivalenceReport e2 = compare_stores(seq, par.written);
    e2_equal = e2.equal;
    std::printf("threaded runtime == sequential: %s%s  (%zu threads, %lld messages, "
                "max mailbox depth %lld)\n",
                e2.equal ? "YES" : "NO — ", e2.equal ? "" : e2.first_mismatch.c_str(),
                par.stats.threads, static_cast<long long>(par.stats.messages_sent),
                static_cast<long long>(par.stats.max_mailbox_depth));
  }
  return e1.equal && e2_equal ? 0 : 2;
}

/// Write the --trace / --metrics artifacts (either path may be empty); 74
/// when a file cannot be written.
int write_obs_files(const std::string& trace_path, const obs::ChromeTraceSink& trace,
                    const std::string& metrics_path, const obs::MetricsSnapshot& snap) {
  if (!trace_path.empty() && !trace.write_file(trace_path)) {
    std::fprintf(stderr, "hypart: cannot write trace to '%s'\n", trace_path.c_str());
    return 74;
  }
  if (metrics_path.empty()) return 0;
  std::ofstream out(metrics_path);
  if (!out) {
    std::fprintf(stderr, "hypart: cannot write metrics to '%s'\n", metrics_path.c_str());
    return 74;
  }
  out << snap.to_json() << "\n";
  return 0;
}

// --- serve -----------------------------------------------------------------

serve::Server* g_server = nullptr;  ///< for the signal handler only

extern "C" void serve_signal_handler(int) {
  // request_stop() is async-signal-safe (atomic store + self-pipe write).
  if (g_server != nullptr) g_server->request_stop();
}

int cmd_serve(int argc, char** argv) {
  serve::ServerOptions sopts;
  serve::ServiceOptions vopts;
  std::string trace_path;
  std::string metrics_path;
  // --dim/--space are the parameter table's rows, read into the request
  // defaults below.
  PipelineConfig defaults;
  defaults.cube_dim = vopts.default_cube_dim;
  defaults.space_mode = vopts.default_space;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--socket") sopts.unix_path = next();
    else if (a == "--port") sopts.tcp_port = parse_number(a, next(), 0, 65535);
    else if (a == "--threads") sopts.threads = parse_number<std::size_t>(a, next());
    else if (a == "--dim" || a == "--space") set_plan_flag(a, next, defaults);
    else if (a == "--cache") vopts.doc_cache_capacity = parse_number<std::size_t>(a, next());
    else if (a == "--skeleton-cache")
      vopts.skeleton_cache_capacity = parse_number<std::size_t>(a, next());
    else if (a == "--shards") vopts.cache_shards = parse_number<std::size_t>(a, next());
    else if (a == "--batch-threads")
      vopts.batch_parallelism = parse_number<std::size_t>(a, next());
    else if (a == "--max-pending") sopts.max_pending = parse_number<std::size_t>(a, next());
    else if (a == "--trace") trace_path = next();
    else if (a == "--metrics") metrics_path = next();
    else usage(("unknown serve option " + a).c_str());
  }
  if (!sopts.unix_path.empty() && sopts.tcp_port != 0)
    usage("--socket and --port are mutually exclusive");
  vopts.default_cube_dim = defaults.cube_dim;
  vopts.default_space = defaults.space_mode;

  obs::ChromeTraceSink trace_sink;
  obs::MetricsRegistry metrics;
  if (!trace_path.empty()) vopts.obs.trace = &trace_sink;
  vopts.obs.metrics = &metrics;

  serve::PlanService service(vopts);
  try {
    serve::Server server(service, sopts);
    g_server = &server;
    std::signal(SIGTERM, serve_signal_handler);
    std::signal(SIGINT, serve_signal_handler);
    server.start();
    // The smoke test and the load generator wait for this line (and for the
    // socket file); keep it first and flushed.
    std::printf("hypart serve: listening on %s\n", server.address().c_str());
    std::fflush(stdout);
    server.wait();
    g_server = nullptr;
  } catch (const Error& e) {
    return report_failure(e);
  }

  obs::MetricsSnapshot snap = metrics.snapshot();
  serve::PlanCacheStats cs = service.cache_stats();
  auto counter = [&](const char* name) {
    auto it = snap.counters.find(name);
    return static_cast<long long>(it == snap.counters.end() ? 0 : it->second);
  };
  std::printf("hypart serve: %lld requests, %lld errors; cache: %lld hit, %lld pi, %lld miss, "
              "%lld evictions\n",
              counter("serve.requests"), counter("serve.errors"),
              static_cast<long long>(cs.doc_hits), static_cast<long long>(cs.pi_hits),
              static_cast<long long>(cs.doc_misses - cs.pi_hits),
              static_cast<long long>(cs.doc_evictions + cs.pi_evictions));
  return write_obs_files(trace_path, trace_sink, metrics_path, snap);
}

}  // namespace

int main(int argc, char** argv) {
  // A worker process dying mid-send must surface as EPIPE, not kill the CLI.
  ignore_sigpipe();
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) help();
  // `serve` takes no <file> operand, so it dispatches before parse_args.
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) return cmd_serve(argc, argv);
  CliOptions o = parse_args(argc, argv);

  // Observability wiring: the CLI owns the sink/registry; the pipeline and
  // runtime only borrow pointers.  The `trace` command implies a sink even
  // without --trace (it prints the trace to stdout); `profile` installs the
  // Profiler, tee-ing it with the trace sink when both are wanted.
  obs::ChromeTraceSink trace_sink;
  obs::Profiler profiler;
  obs::TeeSink tee({&trace_sink, &profiler});
  obs::MetricsRegistry metrics;
  const bool want_trace = !o.trace_path.empty() || o.command == "trace";
  const bool want_profile = o.command == "profile";
  const bool want_metrics = !o.metrics_path.empty();
  if (want_trace && want_profile) o.config.obs.trace = &tee;
  else if (want_trace) o.config.obs.trace = &trace_sink;
  else if (want_profile) o.config.obs.trace = &profiler;
  if (want_metrics) o.config.obs.metrics = &metrics;

  // Write the --trace / --metrics artifacts; shared by every command path.
  auto write_obs_outputs = [&]() -> int {
    obs::MetricsSnapshot snap = metrics.snapshot();
    if (int rc = write_obs_files(o.trace_path, trace_sink, o.metrics_path, snap)) return rc;
    if (want_metrics && (o.command == "simulate" || o.command == "run"))
      std::printf("%s", snap.summary().c_str());
    return 0;
  };

  LoopNest nest = [&] {
    try {
      return parse_loop_nest(read_source(o.file));
    } catch (const ParseError& e) {
      std::exit(report_failure(e));  // 65
    }
  }();

  // explain drives its own pipeline + runtime runs (repeated, measured), so
  // it branches off before the generic single pipeline run below.
  // The ledger always plans densely: its runtime interprets the
  // materialized index set, whatever --space says (as run/codegen below).
  if (o.command == "explain") {
    int rc = 0;
    try {
      rc = cmd_explain(nest, o);
    } catch (const std::exception& e) {
      return report_failure(e);
    }
    int obs_rc = write_obs_outputs();
    return rc != 0 ? rc : obs_rc;
  }

  auto plan = [&](const PipelineConfig& config) {
    try {
      return run_pipeline(nest, config);
    } catch (const std::exception& e) {
      std::exit(report_failure(e));
    }
  };
  PipelineResult r = plan(o.config);

  // run / codegen / wavefront execute or print the materialized iteration
  // set.  Symbolic planning keeps its closed forms (and its metrics, already
  // recorded above), but execution is inherently dense, so these commands
  // rebuild the dense structures they need instead of refusing the mode —
  // the verify machinery guarantees both pipelines agree.
  if (r.structure == nullptr &&
      (o.command == "run" || o.command == "codegen" || o.command == "wavefront")) {
    PipelineConfig dense_cfg = o.config;
    dense_cfg.space_mode = SpaceMode::Dense;
    dense_cfg.obs = {};
    r = plan(dense_cfg);
  }

  int rc = 0;
  if (o.command == "analyze") rc = cmd_analyze(nest, r);
  else if (o.command == "partition") rc = cmd_partition(r);
  else if (o.command == "map") rc = cmd_map(r, o.config.cube_dim);
  else if (o.command == "simulate") rc = cmd_simulate(r);
  else if (o.command == "run" || o.command == "codegen" || o.command == "wavefront") {
    // A program the runtime refuses is Config (78); StallError /
    // WorkerDeathError / FaultError carry their own exit codes (75 / 76 /
    // 77), diagnostics riding along in what().
    try {
      if (o.command == "run") {
        rc = cmd_run(nest, r, o);
      } else if (o.command == "codegen") {
        std::printf("%s", generate_spmd_program(nest, *r.structure, r.time_function, r.partition,
                                                r.mapping.mapping, r.dependence)
                              .c_str());
      } else {
        WavefrontTransform wt = make_wavefront_transform(r.time_function);
        std::printf("%s", wavefront_loop_to_string(wt, *r.structure, nest.index_names()).c_str());
      }
    } catch (const std::exception& e) {
      return report_failure(e);
    }
  } else if (o.command == "json") {
    // The pipeline document plus the daemon's whole document key: the
    // canonical nest keys and the resolved params, so offline tooling can
    // compute a plan's identity (and pre-warm or probe a `hypart serve`
    // instance) without speaking the wire protocol.
    JsonValue doc = parse_json(pipeline_result_to_json(nest, r));
    serve::CanonicalForm cf = serve::canonicalize_nest(nest, r.dependence);
    const std::string params = params_fingerprint(o.config);
    JsonWriter canonical;
    serve::write_canonical(canonical, cf, &params);
    doc.set("canonical", parse_json(canonical.str()));
    std::printf("%s\n", doc.to_json().c_str());
  } else if (o.command == "trace") {
    if (o.trace_path.empty()) std::printf("%s", trace_sink.str().c_str());
  } else if (o.command == "profile") {
    rc = cmd_profile(profiler, o.json);
  } else {
    usage(("unknown command " + o.command).c_str());
  }

  int obs_rc = write_obs_outputs();
  return rc != 0 ? rc : obs_rc;
}
