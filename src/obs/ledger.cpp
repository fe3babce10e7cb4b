#include "obs/ledger.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/json_reader.hpp"
#include "core/json_writer.hpp"
#include "core/params.hpp"
#include "exec/parallel_runtime.hpp"
#include "exec/proc_runtime.hpp"
#include "perf/table.hpp"

namespace hypart::obs {

namespace {

void breakdown_to_json(JsonWriter& w, const char* key, const ComponentBreakdown& b) {
  w.key(key).begin_object();
  w.field("compute", b.compute);
  w.field("comm", b.comm);
  w.field("stall", b.stall);
  w.field("other", b.other);
  w.field("total", b.total);
  w.end_object();
}

ComponentBreakdown breakdown_from_json(const JsonValue& v) {
  ComponentBreakdown b;
  b.compute = v.number_or("compute", 0.0);
  b.comm = v.number_or("comm", 0.0);
  b.stall = v.number_or("stall", 0.0);
  b.other = v.number_or("other", 0.0);
  b.total = v.number_or("total", 0.0);
  return b;
}

LedgerRow row_from_json(const JsonValue& v) {
  LedgerRow r;
  r.workload = v.string_or("workload", "?");
  r.iterations = v.int_or("iterations", 0);
  r.cube_dim = static_cast<unsigned>(v.int_or("cube_dim", 0));
  r.accounting = v.string_or("accounting", "?");
  r.backend = v.string_or("backend", "threads");  // pre-column rows: threads
  r.repeats = static_cast<int>(v.int_or("repeats", 0));
  r.predicted = breakdown_from_json(v.get("predicted"));
  r.measured = breakdown_from_json(v.get("measured_us"));
  r.measured_min_us = v.number_or("measured_min_us", 0.0);
  r.calibration_us_per_unit = v.number_or("calibration_us_per_unit", 0.0);
  return r;
}

}  // namespace

double LedgerRow::mean_abs_share_error() const {
  return (std::abs(share_error(predicted.compute, measured.compute)) +
          std::abs(share_error(predicted.comm, measured.comm)) +
          std::abs(share_error(predicted.stall, measured.stall)) +
          std::abs(share_error(predicted.other, measured.other))) /
         4.0;
}

std::string LedgerRow::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("workload", workload);
  w.field("iterations", iterations);
  w.field("cube_dim", static_cast<std::int64_t>(cube_dim));
  w.field("accounting", accounting);
  w.field("backend", backend);
  w.field("repeats", static_cast<std::int64_t>(repeats));
  breakdown_to_json(w, "predicted", predicted);
  breakdown_to_json(w, "measured_us", measured);
  w.field("measured_min_us", measured_min_us);
  w.field("calibration_us_per_unit", calibration_us_per_unit);
  // Redundant with the breakdowns but the artifact consumers (dashboards,
  // diff scripts) want the verdict columns precomputed.
  w.key("share_error").begin_object();
  w.field("compute", share_error(predicted.compute, measured.compute));
  w.field("comm", share_error(predicted.comm, measured.comm));
  w.field("stall", share_error(predicted.stall, measured.stall));
  w.field("other", share_error(predicted.other, measured.other));
  w.field("mean_abs", mean_abs_share_error());
  w.end_object();
  w.end_object();
  return w.str();
}

LedgerRow run_ledger(const LoopNest& nest, PipelineConfig config, const LedgerOptions& opts) {
  // The runtime interprets materialized iterations, so the prediction side
  // must produce a dense Partition/Mapping pair for it.
  config.space_mode = SpaceMode::Dense;
  config.obs = opts.obs;
  PipelineResult r = run_pipeline(nest, config);

  LedgerRow row;
  row.workload = nest.name();
  row.iterations = static_cast<std::int64_t>(r.iteration_count());
  row.cube_dim = config.cube_dim;
  row.accounting = to_string(config.sim.accounting);
  row.backend = to_string(opts.backend);
  row.repeats = std::max(1, opts.repeats);

  const MachineParams& m = config.machine;
  row.predicted.total = r.sim.total.value(m);
  row.predicted.compute = r.sim.compute_bottleneck.value(m);
  row.predicted.comm = r.sim.comm_bottleneck.value(m);
  row.predicted.other = r.sim.migration_cost.value(m);
  // Exact residual, so the breakdown tiles the total by construction.  It
  // is the schedule's serialization slack: zero under PaperMaxChannel
  // (total = compute + comm there), positive under the per-step barrier
  // accountings when no single processor is the bottleneck of every step.
  row.predicted.stall =
      row.predicted.total - row.predicted.compute - row.predicted.comm - row.predicted.other;

  // ---- measured side: repeat the real run, keep the median wall ----------
  struct Repeat {
    double wall_us;
    ComponentBreakdown breakdown;
  };
  // Shared by both backends: the critical worker is the one with the
  // largest attributed phase time; its phases explain the run, and the
  // wall clock can only exceed its phase sum, so `other` is a true
  // residual >= 0 up to scheduler noise.
  auto attribute = [](double wall_us, const std::vector<double>& compute_us,
                      const std::vector<double>& wait_us, const std::vector<double>& send_us) {
    std::size_t critical = 0;
    double best = -1.0;
    for (std::size_t p = 0; p < compute_us.size(); ++p) {
      double s = compute_us[p] + wait_us[p] + send_us[p];
      if (s > best) {
        best = s;
        critical = p;
      }
    }
    Repeat rep;
    rep.wall_us = wall_us;
    rep.breakdown.total = wall_us;
    if (!compute_us.empty()) {
      rep.breakdown.compute = compute_us[critical];
      rep.breakdown.stall = wait_us[critical];
      rep.breakdown.comm = send_us[critical];
    }
    rep.breakdown.other =
        rep.breakdown.total - rep.breakdown.compute - rep.breakdown.comm - rep.breakdown.stall;
    return rep;
  };
  std::vector<Repeat> reps;
  reps.reserve(static_cast<std::size_t>(row.repeats));
  for (int i = 0; i < row.repeats; ++i) {
    if (opts.backend == ExecBackend::Procs) {
      ProcRunOptions run_opts;
      run_opts.obs = opts.obs;
      run_opts.measure_phases = true;
      ProcRunResult run = run_procs(nest, *r.structure, r.time_function, r.partition,
                                    r.mapping.mapping, r.dependence, run_opts);
      const ProcRunStats& st = run.stats;
      reps.push_back(attribute(st.wall_us, st.per_proc_compute_us, st.per_proc_wait_us,
                               st.per_proc_send_us));
    } else {
      ParallelRunOptions run_opts;
      run_opts.obs = opts.obs;
      run_opts.measure_phases = true;
      ParallelRunResult run = run_parallel(nest, *r.structure, r.time_function, r.partition,
                                           r.mapping.mapping, r.dependence, run_opts);
      const ParallelRunStats& st = run.stats;
      reps.push_back(attribute(st.wall_us, st.per_proc_compute_us, st.per_proc_wait_us,
                               st.per_proc_send_us));
    }
  }

  std::sort(reps.begin(), reps.end(),
            [](const Repeat& a, const Repeat& b) { return a.wall_us < b.wall_us; });
  row.measured_min_us = reps.front().wall_us;
  row.measured = reps[reps.size() / 2].breakdown;

  if (row.predicted.total > 0.0)
    row.calibration_us_per_unit = row.measured.total / row.predicted.total;
  return row;
}

bool AccuracyLedger::load(const std::string& path, std::string& error) {
  JsonValue doc;
  if (!parse_json_file(path, doc, error)) return false;
  if (doc.string_or("schema", "") != "hypart-ledger-v1") {
    error = path + ": not a hypart-ledger-v1 file";
    return false;
  }
  const JsonValue& rows = doc.get("rows");
  if (!rows.is_array()) {
    error = path + ": missing rows array";
    return false;
  }
  for (const JsonValue& v : rows.as_array()) rows_.push_back(row_from_json(v));
  return true;
}

bool AccuracyLedger::save(const std::string& path, std::string& error) const {
  std::ofstream out(path);
  if (!out) {
    error = path + ": cannot open for writing";
    return false;
  }
  out << to_json() << '\n';
  if (!out) {
    error = path + ": write failed";
    return false;
  }
  return true;
}

std::string AccuracyLedger::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "hypart-ledger-v1");
  w.begin_array("rows");
  for (const LedgerRow& r : rows_) w.raw_value(r.to_json());
  w.end_array();
  w.end_object();
  return w.str();
}

std::string AccuracyLedger::table() const {
  TextTable t({"workload", "backend", "iters", "component", "predicted", "share", "measured us",
               "share", "dshare"});
  auto pct = [](double share) {
    std::ostringstream os;
    os.precision(1);
    os << std::fixed << share * 100.0 << "%";
    return os.str();
  };
  auto num = [](double v) {
    std::ostringstream os;
    os.precision(1);
    os << std::fixed << v;
    return os.str();
  };
  for (const LedgerRow& r : rows_) {
    struct Line {
      const char* name;
      double pred, meas;
    };
    const Line lines[] = {
        {"compute", r.predicted.compute, r.measured.compute},
        {"comm", r.predicted.comm, r.measured.comm},
        {"stall", r.predicted.stall, r.measured.stall},
        {"other", r.predicted.other, r.measured.other},
        {"total", r.predicted.total, r.measured.total},
    };
    bool first = true;
    for (const Line& l : lines) {
      const bool total = std::string_view(l.name) == "total";
      t.row(first ? r.workload : std::string(), first ? r.backend : std::string(),
            first ? std::to_string(r.iterations) : std::string(), l.name,
            num(l.pred), total ? "" : pct(r.predicted.share(l.pred)), num(l.meas),
            total ? "" : pct(r.measured.share(l.meas)),
            total ? "" : pct(r.share_error(l.pred, l.meas)));
      first = false;
    }
  }
  return t.to_string();
}

}  // namespace hypart::obs
