// hypart::obs metrics tests: histogram bucket assignment, counter
// determinism across identical simulator runs, snapshot JSON shape, and the
// invariant that instrumentation leaves simulation results unchanged.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hypart;
using namespace hypart::obs;

TEST(HistogramTest, BucketAssignmentAndStats) {
  HistogramData h;
  h.upper_bounds = {1, 2, 4};
  h.counts.assign(4, 0);
  for (std::int64_t v : {1, 2, 3, 4, 5, 100}) h.observe(v);
  // v <= 1 -> bucket 0; v <= 2 -> bucket 1; v <= 4 -> bucket 2; else overflow.
  EXPECT_EQ(h.counts[0], 1);  // {1}
  EXPECT_EQ(h.counts[1], 1);  // {2}
  EXPECT_EQ(h.counts[2], 2);  // {3, 4}
  EXPECT_EQ(h.counts[3], 2);  // {5, 100}
  EXPECT_EQ(h.count, 6);
  EXPECT_EQ(h.sum, 115);
  EXPECT_EQ(h.min, 1);
  EXPECT_EQ(h.max, 100);
  EXPECT_NEAR(h.mean(), 115.0 / 6.0, 1e-12);
}

TEST(RegistryTest, CountersGaugesSeries) {
  MetricsRegistry reg;
  reg.add("a.x");
  reg.add("a.x", 4);
  reg.add("a.y", 2);
  reg.set_gauge("g", 1.5);
  reg.set_gauge("g", 2.5);  // last write wins
  reg.append("s", 0, 1.0);
  reg.append("s", 1, 2.0);
  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a.x"), 5);
  EXPECT_EQ(snap.counters.at("a.y"), 2);
  EXPECT_EQ(snap.counter_sum("a."), 7);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
  ASSERT_EQ(snap.series.at("s").size(), 2u);
  EXPECT_EQ(snap.series.at("s")[1].x, 1);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(MetricsSnapshot{}.empty());
}

TEST(RegistryTest, SnapshotJsonHasAllSections) {
  MetricsRegistry reg;
  reg.add("c", 3);
  reg.set_gauge("g", 0.5);
  reg.observe("h", 7, {1, 10});
  reg.append("s", 2, 4.0);
  std::string json = reg.snapshot().to_json();
  for (const char* key : {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"series\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  EXPECT_NE(json.find("\"c\":3"), std::string::npos);
  EXPECT_NE(json.find("\"upper_bounds\":[1,10]"), std::string::npos);
}

struct SimPieces {
  std::unique_ptr<ComputationStructure> q;
  TimeFunction tf{{1, 1}};
  std::unique_ptr<ProjectedStructure> ps;
  Grouping grouping;
  Partition partition;
  TaskInteractionGraph tig;
  Mapping mapping;
};

SimPieces make_pieces(std::int64_t m, unsigned dim) {
  SimPieces p;
  p.q = std::make_unique<ComputationStructure>(
      ComputationStructure::from_loop(workloads::matrix_vector(m)));
  p.ps = std::make_unique<ProjectedStructure>(*p.q, p.tf);
  p.grouping = Grouping::compute(*p.ps);
  p.partition = Partition::build(*p.q, p.grouping);
  p.tig = TaskInteractionGraph::from_partition(*p.q, p.partition, p.grouping);
  p.mapping = map_to_hypercube(p.tig, dim).mapping;
  return p;
}

TEST(SimulatorMetricsTest, DeterministicAcrossIdenticalRuns) {
  SimPieces p = make_pieces(24, 2);
  Hypercube cube(2);
  auto run_once = [&] {
    MetricsRegistry reg;
    SimOptions opts;
    opts.accounting = CommAccounting::LinkContention;
    opts.flops_per_iteration = 2;
    opts.obs.metrics = &reg;
    SimResult r = simulate_execution(*p.q, p.tf, p.partition, p.mapping, cube,
                                     MachineParams{}, opts);
    EXPECT_TRUE(r.metrics.has_value());
    return reg.snapshot().to_json();
  };
  std::string a = run_once();
  std::string b = run_once();
  EXPECT_EQ(a, b);  // byte-identical metrics output
  EXPECT_FALSE(a.empty());
}

TEST(SimulatorMetricsTest, PerProcSeriesMatchSimResult) {
  SimPieces p = make_pieces(24, 2);
  Hypercube cube(2);
  MetricsRegistry reg;
  SimOptions opts;
  opts.flops_per_iteration = 2;
  opts.obs.metrics = &reg;
  SimResult r = simulate_execution(*p.q, p.tf, p.partition, p.mapping, cube, MachineParams{},
                                   opts);
  ASSERT_TRUE(r.metrics.has_value());
  std::int64_t total_from_result =
      std::accumulate(r.per_proc_iterations.begin(), r.per_proc_iterations.end(),
                      std::int64_t{0});
  // One point per processor, keyed by processor id.
  const std::vector<SeriesPoint>& iters = r.metrics->series.at("sim.proc.iterations");
  const std::vector<SeriesPoint>& busy = r.metrics->series.at("sim.proc.busy_steps");
  const std::vector<SeriesPoint>& idle = r.metrics->series.at("sim.proc.idle_steps");
  ASSERT_EQ(iters.size(), r.per_proc_iterations.size());
  ASSERT_EQ(busy.size(), iters.size());
  ASSERT_EQ(idle.size(), iters.size());
  std::int64_t iter_sum = 0;
  for (std::size_t proc = 0; proc < iters.size(); ++proc) {
    EXPECT_EQ(iters[proc].x, static_cast<std::int64_t>(proc));
    EXPECT_EQ(iters[proc].y, static_cast<double>(r.per_proc_iterations[proc])) << "proc " << proc;
    EXPECT_EQ(busy[proc].y + idle[proc].y, static_cast<double>(r.steps)) << "proc " << proc;
    iter_sum += static_cast<std::int64_t>(iters[proc].y);
  }
  EXPECT_EQ(iter_sum, total_from_result);
  EXPECT_EQ(r.metrics->counters.at("sim.messages"), r.messages);
  EXPECT_EQ(r.metrics->counters.at("sim.words"), r.words);
}

TEST(SimulatorMetricsTest, DenseAndLineBasedReportOneKeySetUnderLinkOnlyFaults) {
  // A link-only plan migrates nothing, yet every feed reports the fault
  // counters — fault.migration_words included, as 0 — so the counter and
  // gauge maps do not depend on which feed ran.
  SimPieces p = make_pieces(24, 3);
  const LoopNest nest = workloads::matrix_vector(24);
  IterSpace space(nest, analyze_dependences(nest).distance_vectors());
  ProjectedStructure ps(space, p.tf);
  Grouping grouping = Grouping::compute(ps);
  Hypercube cube(3);
  for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                             CommAccounting::LinkContention}) {
    SCOPED_TRACE("accounting " + std::to_string(static_cast<int>(acc)));
    auto run = [&](bool dense) {
      MetricsRegistry reg;
      SimOptions opts;
      opts.accounting = acc;
      opts.faults = fault::FaultPlan::parse("link:0-1");
      opts.obs.metrics = &reg;
      SimResult r = dense ? simulate_execution(*p.q, p.tf, p.partition, p.mapping, cube,
                                               MachineParams{}, opts)
                          : simulate_execution(space, grouping, p.mapping, cube,
                                               MachineParams{}, opts);
      return *r.metrics;
    };
    MetricsSnapshot dense = run(true);
    const MetricsSnapshot line = run(false);
    EXPECT_EQ(dense.counters.at("fault.migration_words"), 0);
    EXPECT_EQ(dense.counters, line.counters);
    // sim.max_link_words is per-step telemetry, which only the dense feed
    // emits (see exec_sim.hpp).
    EXPECT_EQ(dense.gauges.erase("sim.max_link_words"), 1u);
    EXPECT_EQ(dense.gauges, line.gauges);
  }
}

TEST(SimulatorMetricsTest, DisabledObsLeavesResultUnchanged) {
  SimPieces p = make_pieces(24, 2);
  Hypercube cube(2);
  SimOptions plain;
  plain.flops_per_iteration = 2;
  SimResult r0 = simulate_execution(*p.q, p.tf, p.partition, p.mapping, cube, MachineParams{},
                                    plain);
  MetricsRegistry reg;
  SimOptions instrumented = plain;
  instrumented.obs.metrics = &reg;
  SimResult r1 = simulate_execution(*p.q, p.tf, p.partition, p.mapping, cube, MachineParams{},
                                    instrumented);
  EXPECT_EQ(r0.total, r1.total);
  EXPECT_EQ(r0.time, r1.time);
  EXPECT_EQ(r0.messages, r1.messages);
  EXPECT_EQ(r0.words, r1.words);
  EXPECT_EQ(r0.per_proc_iterations, r1.per_proc_iterations);
  EXPECT_FALSE(r0.metrics.has_value());
  EXPECT_TRUE(r1.metrics.has_value());
}

TEST(PipelineMetricsTest, SnapshotAttachedAndConsistent) {
  MetricsRegistry reg;
  PipelineConfig cfg;
  cfg.time_function = IntVec{1, 1};
  cfg.cube_dim = 2;
  cfg.obs.metrics = &reg;
  PipelineResult r = run_pipeline(workloads::matrix_vector(16), cfg);
  ASSERT_TRUE(r.metrics.has_value());
  EXPECT_EQ(r.metrics->counters.at("pipeline.iterations"),
            static_cast<std::int64_t>(r.structure->vertices().size()));
  EXPECT_EQ(r.metrics->counters.at("pipeline.blocks"),
            static_cast<std::int64_t>(r.partition.block_count()));
  EXPECT_EQ(r.metrics->counters.at("map.clusters"),
            static_cast<std::int64_t>(r.mapping.clusters.size()));
  // The sim section is present too (same registry threaded through).
  EXPECT_FALSE(r.metrics->series.at("sim.proc.iterations").empty());
}

TEST(HistogramTest, PercentileEdgeCases) {
  HistogramData empty;
  EXPECT_EQ(empty.percentile(0.5), 0);  // no samples -> 0 by contract

  HistogramData one;
  one.upper_bounds = {10, 100};
  one.counts.assign(3, 0);
  one.observe(7);
  // Every quantile of a single sample is that sample's bucket value,
  // clamped to the observed range (min == max == 7).
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) EXPECT_EQ(one.percentile(q), 7) << q;

  HistogramData h;
  h.upper_bounds = {1, 2, 4, 8};
  h.counts.assign(5, 0);
  for (std::int64_t v : {1, 2, 2, 3, 4, 5, 8, 100}) h.observe(v);
  EXPECT_EQ(h.percentile(0.0), 1);    // rank clamps up to 1 -> first bucket
  EXPECT_EQ(h.percentile(0.125), 1);  // rank 1 -> bound 1
  EXPECT_EQ(h.percentile(0.5), 4);    // rank 4 -> third bucket (cum 1,3,5) -> bound 4
  EXPECT_EQ(h.percentile(1.0), 100);  // overflow bucket -> observed max
  EXPECT_EQ(h.percentile(0.99), 100);

  HistogramData equal;
  equal.upper_bounds = {5};
  equal.counts.assign(2, 0);
  for (int i = 0; i < 10; ++i) equal.observe(5);
  for (double q : {0.1, 0.5, 0.9, 1.0}) EXPECT_EQ(equal.percentile(q), 5) << q;
}

TEST(HistogramTest, PercentileIsClampedToObservedRange) {
  // Bucket upper bounds can overshoot the real max; the nearest-rank value
  // must never leave [min, max].
  HistogramData h;
  h.upper_bounds = {1000};
  h.counts.assign(2, 0);
  h.observe(3);
  h.observe(4);
  // Both samples land in the <=1000 bucket; its bound clamps to max=4.
  EXPECT_EQ(h.percentile(0.5), 4);
  EXPECT_LE(h.percentile(1.0), 4);
  EXPECT_GE(h.percentile(0.0), 3);
}

TEST(RegistryTest, SnapshotJsonIdenticalAcrossThreadCounts) {
  // The same logical updates applied from 1 thread and from 8 threads must
  // render byte-identically — counters commute, series are sorted by x at
  // render time.  This is the determinism bench baselines depend on.
  auto hammer = [](int threads) {
    MetricsRegistry reg;
    const int total = 256;  // same logical op set however it is divided
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&reg, t, threads, total] {
        for (int op = t; op < total; op += threads) {
          reg.add("c.total");
          reg.add("c.bucket." + std::to_string(op % 4));
          reg.observe("h.values", op % 16, {1, 2, 4, 8});
          reg.append("s.points", op, 1.0);  // unique x -> sortable
        }
      });
    for (auto& th : pool) th.join();
    return reg.snapshot().to_json();
  };
  std::string solo = hammer(1);
  std::string crowd = hammer(8);
  EXPECT_EQ(solo, crowd);
  EXPECT_FALSE(solo.empty());
}

TEST(RegistryTest, ClearEmptiesEverything) {
  MetricsRegistry reg;
  reg.add("c");
  reg.observe("h", 1, {1});
  reg.clear();
  EXPECT_TRUE(reg.snapshot().empty());
}

}  // namespace
