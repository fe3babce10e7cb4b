#include "sim/exec_sim.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/error.hpp"
#include "core/pipeline.hpp"
#include "frontend/parser.hpp"
#include "mapping/baseline_map.hpp"
#include "mapping/hypercube_map.hpp"
#include "numeric/rational.hpp"
#include "perf/perf_model.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

struct PartitionFixture {
  std::unique_ptr<ComputationStructure> q;
  std::unique_ptr<ProjectedStructure> ps;
  Grouping grouping;
  Partition partition;
  TaskInteractionGraph tig;
  TimeFunction tf;
};

PartitionFixture make(const LoopNest& nest, const IntVec& pi) {
  PartitionFixture s;
  s.q = std::make_unique<ComputationStructure>(ComputationStructure::from_loop(nest));
  s.tf = TimeFunction{pi};
  s.ps = std::make_unique<ProjectedStructure>(*s.q, s.tf);
  s.grouping = Grouping::compute(*s.ps);
  s.partition = Partition::build(*s.q, s.grouping);
  s.tig = TaskInteractionGraph::from_partition(*s.q, s.partition, s.grouping);
  return s;
}

TEST(ExecSim, FirstDifferenceNamesEachComparedField) {
  // Verify mode compares every feed's SimResult through first_difference;
  // a pair that differs in exactly one field must name that field.
  SimResult base;
  base.total = {10, 2, 3};
  base.compute_bottleneck = {10, 0, 0};
  base.comm_bottleneck = {0, 2, 3};
  base.steps = 7;
  base.messages = 4;
  base.words = 5;
  base.max_link_words = 6;
  base.per_proc_iterations = {3, 4};
  EXPECT_EQ(first_difference(base, base), "");
  const std::vector<std::pair<std::string, void (*)(SimResult&)>> mutations = {
      {"total", [](SimResult& s) { s.total.calc += 1; }},
      {"compute_bottleneck", [](SimResult& s) { s.compute_bottleneck.calc += 1; }},
      {"comm_bottleneck", [](SimResult& s) { s.comm_bottleneck.comm += 1; }},
      {"steps", [](SimResult& s) { s.steps += 1; }},
      {"messages", [](SimResult& s) { s.messages += 1; }},
      {"words", [](SimResult& s) { s.words += 1; }},
      {"max_link_words", [](SimResult& s) { s.max_link_words += 1; }},
      {"per_proc_iterations", [](SimResult& s) { s.per_proc_iterations[1] += 1; }},
      {"failed_nodes", [](SimResult& s) { s.failed_nodes += 1; }},
      {"failed_links", [](SimResult& s) { s.failed_links += 1; }},
      {"rerouted_messages", [](SimResult& s) { s.rerouted_messages += 1; }},
      {"migrated_blocks", [](SimResult& s) { s.migrated_blocks += 1; }},
      {"migration_cost", [](SimResult& s) { s.migration_cost.start += 1; }},
  };
  for (const auto& [field, mutate] : mutations) {
    SimResult other = base;
    mutate(other);
    EXPECT_EQ(first_difference(base, other), field);
    EXPECT_EQ(first_difference(other, base), field);
  }
  // The wall-clock `time` is derived from `total`; it is not compared.
  SimResult timed = base;
  timed.time = 1.0;
  EXPECT_EQ(first_difference(base, timed), "");
}

TEST(ExecSim, PerStepBarrierWorstProcTieBreaksToLowestPid) {
  // Constructed exact tie at step 0 with t_calc=1, t_start=3, t_comm=4:
  // proc 0 computes 8 iterations (Cost{8,0,0}, value 8) while proc 1
  // computes 1 iteration and sends one 1-word message (Cost{1,1,1}, value
  // 1 + 3 + 4 = 8).  The reported worst-proc Cost composition must be the
  // lowest processor id's — the dense path iterates an ordered per-step
  // map, matching the symbolic path's ascending scan.
  std::vector<IntVec> pts;
  for (std::int64_t j = 0; j <= 8; ++j) pts.push_back({0, j});
  pts.push_back({1, 8});  // target of the only cross-processor arc
  ComputationStructure q(pts, {{1, 0}});
  std::vector<std::size_t> labels(pts.size(), 0);
  labels[8] = 1;   // (0,8): the comm-heavy processor's single iteration
  labels[9] = 2;   // (1,8): step-1 vertex, back on proc 0
  Partition part = Partition::from_labels(q, labels);
  Mapping m;
  m.processor_count = 2;
  m.block_to_proc = {0, 1, 0};
  const MachineParams machine{1.0, 3.0, 4.0};
  SimOptions opts;
  opts.accounting = CommAccounting::PerStepBarrier;
  opts.flops_per_iteration = 1;
  SimResult r =
      simulate_execution(q, TimeFunction{{1, 0}}, part, m, Hypercube(1), machine, opts);
  EXPECT_EQ(r.messages, 1);
  EXPECT_EQ(r.words, 1);
  // Step 0 worst = proc 0's {8,0,0} (not proc 1's {1,1,1}); step 1 adds
  // {1,0,0}.  A wrong tie-break would report total {2,1,1} instead.
  EXPECT_EQ(r.total, (Cost{9, 0, 0}));
  EXPECT_EQ(r.comm_bottleneck, (Cost{0, 0, 0}));

  // Swapped processor assignment: now the comm-heavy composition sits on
  // proc 0 and must win the same tie.
  m.block_to_proc = {1, 0, 1};
  SimResult rs =
      simulate_execution(q, TimeFunction{{1, 0}}, part, m, Hypercube(1), machine, opts);
  EXPECT_EQ(rs.total, (Cost{2, 1, 1}));
  EXPECT_EQ(rs.comm_bottleneck, (Cost{0, 1, 1}));
}

TEST(ExecSim, SingleProcessorIsAllCompute) {
  PartitionFixture s = make(workloads::matrix_vector(8), {1, 1});
  Mapping one;
  one.processor_count = 1;
  one.block_to_proc.assign(s.partition.block_count(), 0);
  SimOptions opts;
  opts.flops_per_iteration = 2;
  SimResult r = simulate_execution(*s.q, s.tf, s.partition, one, Hypercube(0), MachineParams{}, opts);
  EXPECT_EQ(r.total, (Cost{2 * 64, 0, 0}));
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.words, 0);
  EXPECT_EQ(r.per_proc_iterations[0], 64);
}

TEST(ExecSim, MatvecMatchesClosedFormPaperAccounting) {
  // The simulator under PaperMaxChannel accounting must reproduce the
  // Section IV closed form exactly for the matvec partition/mapping.
  const std::int64_t m = 32;
  PartitionFixture s = make(workloads::matrix_vector(m), {1, 1});
  for (unsigned dim : {1u, 2u, 3u}) {
    HypercubeMappingResult hm = map_to_hypercube(s.tig, dim);
    SimOptions opts;
    opts.flops_per_iteration = 2;
    SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(dim),
                                     MachineParams{}, opts);
    Cost expected = perf::matvec_exec_time(m, std::int64_t{1} << dim);
    EXPECT_EQ(r.total, expected) << "N = " << (1 << dim);
  }
}

TEST(ExecSim, CommInvariantInMachineSize) {
  // Table I's observation: the comm term is independent of N.
  const std::int64_t m = 24;
  PartitionFixture s = make(workloads::matrix_vector(m), {1, 1});
  std::int64_t comm_start = -1;
  for (unsigned dim : {1u, 2u, 3u}) {
    HypercubeMappingResult hm = map_to_hypercube(s.tig, dim);
    SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(dim),
                                     MachineParams{}, SimOptions{});
    if (comm_start < 0) comm_start = r.comm_bottleneck.start;
    EXPECT_EQ(r.comm_bottleneck.start, comm_start);
    EXPECT_EQ(r.comm_bottleneck.start, 2 * m - 2);
  }
}

TEST(ExecSim, StepsMatchScheduleSpan) {
  PartitionFixture s = make(workloads::example_l1(), {1, 1});
  Mapping one;
  one.processor_count = 1;
  one.block_to_proc.assign(s.partition.block_count(), 0);
  SimResult r = simulate_execution(*s.q, s.tf, s.partition, one, Hypercube(0), MachineParams{},
                                   SimOptions{});
  EXPECT_EQ(r.steps, 7);  // hyperplanes i+j = 0..6
}

TEST(ExecSim, PerStepBarrierAggregatesMessages) {
  PartitionFixture s = make(workloads::example_l1(), {1, 1});
  HypercubeMappingResult hm = map_to_hypercube(s.tig, 1);
  SimOptions opts;
  opts.accounting = CommAccounting::PerStepBarrier;
  SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(1),
                                   MachineParams{}, opts);
  // Aggregation: messages (per step/src/dst) <= words (per arc).
  EXPECT_GT(r.words, 0);
  EXPECT_LE(r.messages, r.words);
  EXPECT_GT(r.time, 0.0);
}

TEST(ExecSim, BarrierModelIsAtLeastMaxChannelCompute) {
  // The step-synchronous model includes idle time, so its compute+comm time
  // is at least the bottleneck-compute of the aggregate model.
  PartitionFixture s = make(workloads::matrix_vector(12), {1, 1});
  HypercubeMappingResult hm = map_to_hypercube(s.tig, 2);
  MachineParams mp{1.0, 0.0, 0.0};  // compute only
  SimOptions agg;
  SimOptions barrier;
  barrier.accounting = CommAccounting::PerStepBarrier;
  SimResult ra = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(2), mp, agg);
  SimResult rb = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(2), mp, barrier);
  EXPECT_GE(rb.time, ra.compute_bottleneck.value(mp));
}

TEST(ExecSim, ChargeHopsIncreasesRemoteCost) {
  PartitionFixture s = make(workloads::matrix_vector(16), {1, 1});
  // Round-robin scatters adjacent blocks across the cube -> multi-hop routes.
  Mapping rr = map_round_robin(s.tig, 8);
  SimOptions plain;
  SimOptions hops;
  hops.charge_hops = true;
  SimResult r0 = simulate_execution(*s.q, s.tf, s.partition, rr, Hypercube(3), MachineParams{},
                                    plain);
  SimResult r1 = simulate_execution(*s.q, s.tf, s.partition, rr, Hypercube(3), MachineParams{},
                                    hops);
  EXPECT_GE(r1.time, r0.time);
}

TEST(ExecSim, SpeedupSaneAndBounded) {
  const std::int64_t m = 32;
  PartitionFixture s = make(workloads::matrix_vector(m), {1, 1});
  HypercubeMappingResult hm = map_to_hypercube(s.tig, 3);
  SimOptions opts;
  opts.flops_per_iteration = 2;
  MachineParams mp{1.0, 2.0, 1.0};
  SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(3), mp, opts);
  double sp = r.speedup(mp, static_cast<std::int64_t>(s.q->vertices().size()), 2);
  EXPECT_GT(sp, 1.0);
  EXPECT_LE(sp, 8.0);
}

TEST(ExecSim, ValidationErrors) {
  PartitionFixture s = make(workloads::example_l1(), {1, 1});
  Mapping bad;
  bad.processor_count = 2;
  bad.block_to_proc = {0};  // wrong size
  EXPECT_THROW(simulate_execution(*s.q, s.tf, s.partition, bad, Hypercube(1), MachineParams{},
                                  SimOptions{}),
               std::invalid_argument);
  Mapping too_many;
  too_many.processor_count = 8;
  too_many.block_to_proc.assign(s.partition.block_count(), 0);
  EXPECT_THROW(simulate_execution(*s.q, s.tf, s.partition, too_many, Hypercube(1), MachineParams{},
                                  SimOptions{}),
               std::invalid_argument);
}

TEST(ExecSim, CostOverflowThrowsTyped) {
  // 2^62 flops per iteration: any processor's work of two or more
  // iterations, and any sum of two steps, leaves int64.  Every accounting,
  // dense and lattice feed alike, must raise ArithmeticError instead of
  // returning a wrapped (negative) T_exec.
  const LoopNest nest = workloads::sor2d(8, 8);
  PartitionFixture s = make(nest, {1, 1});
  Mapping map = map_to_hypercube(s.tig, 2).mapping;
  for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                             CommAccounting::LinkContention}) {
    SCOPED_TRACE("accounting " + std::to_string(static_cast<int>(acc)));
    SimOptions opts;
    opts.accounting = acc;
    opts.flops_per_iteration = std::int64_t{1} << 62;
    EXPECT_THROW(
        simulate_execution(*s.q, s.tf, s.partition, map, Hypercube(2), MachineParams{}, opts),
        ArithmeticError);

    PipelineConfig cfg;
    cfg.cube_dim = 2;
    cfg.time_function = IntVec{1, 1};
    cfg.space_mode = SpaceMode::Symbolic;
    cfg.sim.accounting = acc;
    cfg.flops_override = std::int64_t{1} << 62;
    EXPECT_THROW(run_pipeline(nest, cfg), ArithmeticError);
    cfg.flops_override = 1;
    EXPECT_EQ(run_pipeline(nest, cfg).plan->groups_materialized, 0u);  // the lattice feed priced it
  }
}

TEST(ExecSim, PerStepAccountingPastItsStepLimitThrowsConfig) {
  // Two chains of 5·10⁹ points: the paper convention prices them in closed
  // form, while a per-step accounting needs more schedule steps than its
  // 32-bit sweep holds and must say so with a typed error up front.
  const LoopNest nest = parse_loop_nest(R"(
    loop chains {
      for i = 1 to 2
      for j = 1 to 5000000000
      A[i, j] = A[i, j-1] + 1;
    })");
  PipelineConfig cfg;
  cfg.cube_dim = 1;
  cfg.space_mode = SpaceMode::Symbolic;
  EXPECT_EQ(run_pipeline(nest, cfg).sim.steps, 5000000000);
  for (CommAccounting acc : {CommAccounting::PerStepBarrier, CommAccounting::LinkContention}) {
    cfg.sim.accounting = acc;
    try {
      (void)run_pipeline(nest, cfg);
      ADD_FAILURE() << "accounting " << static_cast<int>(acc) << " did not throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Config);
    }
  }
}

TEST(ExecSim, BarrierHandComputedTinyCase) {
  // 1-D chain of 4 iterations, d = (1); two blocks of two iterations, one
  // per processor.  Steps 0..3, one iteration each; the boundary arc
  // (1)->(2) is a one-word message sent at step 1.
  ComputationStructure q({{0}, {1}, {2}, {3}}, {{1}});
  TimeFunction tf{{1}};
  Partition part = Partition::from_labels(q, {0, 0, 1, 1});
  Mapping map;
  map.processor_count = 2;
  map.block_to_proc = {0, 1};
  SimOptions opts;
  opts.accounting = CommAccounting::PerStepBarrier;
  opts.flops_per_iteration = 3;
  MachineParams mp{1.0, 10.0, 2.0};
  SimResult r = simulate_execution(q, tf, part, map, Hypercube(1), mp, opts);
  // Steps 0..3: compute 3 t_calc each; step 1 additionally sends one
  // message (10 + 2).  Total = 4*3 + 12 = 24.
  EXPECT_EQ(r.steps, 4);
  EXPECT_EQ(r.messages, 1);
  EXPECT_EQ(r.words, 1);
  EXPECT_DOUBLE_EQ(r.time, 24.0);
  EXPECT_EQ(r.total, (Cost{12, 1, 1}));
}

TEST(ExecSim, PaperAccountingHandComputedTinyCase) {
  // Same chain: compute bottleneck 2 iterations * 3 flops; one channel of
  // one word.
  ComputationStructure q({{0}, {1}, {2}, {3}}, {{1}});
  TimeFunction tf{{1}};
  Partition part = Partition::from_labels(q, {0, 0, 1, 1});
  Mapping map;
  map.processor_count = 2;
  map.block_to_proc = {0, 1};
  SimOptions opts;
  opts.flops_per_iteration = 3;
  SimResult r = simulate_execution(q, tf, part, map, Hypercube(1), MachineParams{}, opts);
  EXPECT_EQ(r.total, (Cost{6, 1, 1}));
  EXPECT_EQ(r.compute_bottleneck, (Cost{6, 0, 0}));
  EXPECT_EQ(r.comm_bottleneck, (Cost{0, 1, 1}));
}

TEST(ExecSim, LinkContentionHandComputedTwoHopCase) {
  // Iterations on procs 00 and 11 of a 2-cube: the e-cube route 00->01->11
  // uses two links; each carries the single one-word message.
  ComputationStructure q({{0}, {1}}, {{1}});
  TimeFunction tf{{1}};
  Partition part = Partition::from_labels(q, {0, 1});
  Mapping map;
  map.processor_count = 4;
  map.block_to_proc = {0b00, 0b11};
  SimOptions opts;
  opts.accounting = CommAccounting::LinkContention;
  MachineParams mp{1.0, 10.0, 2.0};
  SimResult r = simulate_execution(q, tf, part, map, Hypercube(2), mp, opts);
  // Step 0: compute 1 + busiest link (1 msg, 1 word) = 1 + 12; step 1:
  // compute 1.  Total = 14... the message occupies each of the two links
  // with (10+2), but per-step max is a single link's 12.
  EXPECT_DOUBLE_EQ(r.time, 1.0 + 12.0 + 1.0);
  EXPECT_EQ(r.max_link_words, 1);
  EXPECT_EQ(r.words, 1);
}

/// Records the simulated-clock events (pid kSimPid) as one compact line each:
/// phase, name, ts, dur (spans only), tid, then the args in emission order.
class SimTimelineRecorder final : public obs::TraceSink {
 public:
  void event(const obs::TraceEvent& e) override {
    if (e.pid != obs::kSimPid) return;
    std::ostringstream line;
    line << static_cast<char>(e.phase) << ' ' << e.name << " ts=" << e.ts;
    if (e.phase == obs::Phase::Complete) line << " dur=" << e.dur;
    line << " tid=" << e.tid;
    for (const auto& [key, value] : e.args) {
      line << ' ' << key << '=';
      std::visit([&](const auto& v) { line << v; }, value);
    }
    lines_ += line.str() + "\n";
  }
  [[nodiscard]] const std::string& str() const { return lines_; }

 private:
  std::string lines_;
};

std::string render_telemetry(const obs::MetricsSnapshot& m) {
  std::ostringstream out;
  for (const char* name : {"sim.msg_words", "sim.msg_hops"}) {
    const obs::HistogramData& h = m.histograms.at(name);
    out << name << " count=" << h.count << " sum=" << h.sum << " min=" << h.min
        << " max=" << h.max << " counts=";
    for (std::int64_t c : h.counts) out << c << ',';
    out << "\n";
  }
  out << "sim.link.busiest_words";
  for (const obs::SeriesPoint& p : m.series.at("sim.link.busiest_words"))
    out << " (" << p.x << ',' << p.y << ')';
  out << "\nsim.max_link_words " << m.gauges.at("sim.max_link_words") << "\n";
  return out.str();
}

TEST(ExecSim, DenseTelemetryPinnedOnHandSizedPlan) {
  // 2x2 domain, Π = (1, 1), one block per point on procs {0, 3, 1, 2}.  Step
  // 0 sends 0->3 (inserted first: dependence (0,1) is listed first) and
  // 0->1, so the (src, dst) message order differs from arc order; step 1
  // sends 3->2 and 1->2.  The link fault takes 0-1 down from step 1, which
  // detours only 1->2 (e-cube 1->0->2 becomes 1->3->2).
  ComputationStructure q({{0, 0}, {0, 1}, {1, 0}, {1, 1}}, {{0, 1}, {1, 0}});
  TimeFunction tf{{1, 1}};
  Partition part = Partition::from_labels(q, {0, 1, 2, 3});
  Mapping map;
  map.processor_count = 4;
  map.block_to_proc = {0, 3, 1, 2};
  const MachineParams mp{1.0, 10.0, 2.0};

  const std::string threads =
      "M process_name ts=0 tid=0 name=hypart simulator (simulated time)\n"
      "M thread_name ts=0 tid=0 name=proc 0\n"
      "M thread_name ts=0 tid=1 name=proc 1\n"
      "M thread_name ts=0 tid=2 name=proc 2\n"
      "M thread_name ts=0 tid=3 name=proc 3\n";
  const std::string fault_free =
      threads +
      "M thread_name ts=0 tid=1000000 name=link 0->1\n"
      "M thread_name ts=0 tid=1000001 name=link 0->2\n"
      "M thread_name ts=0 tid=1000002 name=link 1->0\n"
      "M thread_name ts=0 tid=1000003 name=link 1->3\n"
      "M thread_name ts=0 tid=1000004 name=link 3->2\n"
      "X compute ts=0 dur=1 tid=0 step=0 iterations=1\n"
      "i msg ts=1 tid=0 src=0 dst=1 words=1 hops=1 step=0\n"
      "i msg ts=1 tid=0 src=0 dst=3 words=1 hops=2 step=0\n"
      "X xfer ts=1 dur=24 tid=1000000 step=0 msgs=2 words=2\n"
      "X xfer ts=1 dur=12 tid=1000003 step=0 msgs=1 words=1\n"
      "C busiest_link_words ts=1 tid=0 value=2\n"
      "X compute ts=25 dur=1 tid=1 step=1 iterations=1\n"
      "X compute ts=25 dur=1 tid=3 step=1 iterations=1\n"
      "i msg ts=26 tid=1 src=1 dst=2 words=1 hops=2 step=1\n"
      "i msg ts=26 tid=3 src=3 dst=2 words=1 hops=1 step=1\n"
      "X xfer ts=26 dur=12 tid=1000001 step=1 msgs=1 words=1\n"
      "X xfer ts=26 dur=12 tid=1000002 step=1 msgs=1 words=1\n"
      "X xfer ts=26 dur=12 tid=1000004 step=1 msgs=1 words=1\n"
      "C busiest_link_words ts=26 tid=0 value=1\n"
      "X compute ts=38 dur=1 tid=2 step=2 iterations=1\n";
  const std::string fault_free_metrics =
      "sim.msg_words count=4 sum=4 min=1 max=1 counts=4,0,0,0,0,0,0,0,0,0,\n"
      "sim.msg_hops count=4 sum=6 min=1 max=2 counts=0,2,2,0,0,0,0,0,\n"
      "sim.link.busiest_words (0,2) (1,1)\n"
      "sim.max_link_words 2\n";
  const std::string degraded =
      threads +
      "M thread_name ts=0 tid=1000000 name=link 0->1\n"
      "M thread_name ts=0 tid=1000001 name=link 1->3\n"
      "M thread_name ts=0 tid=1000002 name=link 3->2\n"
      "X compute ts=0 dur=1 tid=0 step=0 iterations=1\n"
      "i msg ts=1 tid=0 src=0 dst=1 words=1 hops=1 step=0\n"
      "i msg ts=1 tid=0 src=0 dst=3 words=1 hops=2 step=0\n"
      "X xfer ts=1 dur=24 tid=1000000 step=0 msgs=2 words=2\n"
      "X xfer ts=1 dur=12 tid=1000001 step=0 msgs=1 words=1\n"
      "C busiest_link_words ts=1 tid=0 value=2\n"
      "X compute ts=25 dur=1 tid=1 step=1 iterations=1\n"
      "X compute ts=25 dur=1 tid=3 step=1 iterations=1\n"
      "i msg ts=26 tid=1 src=1 dst=2 words=1 hops=2 step=1\n"
      "i msg ts=26 tid=3 src=3 dst=2 words=1 hops=1 step=1\n"
      "X xfer ts=26 dur=12 tid=1000001 step=1 msgs=1 words=1\n"
      "X xfer ts=26 dur=24 tid=1000002 step=1 msgs=2 words=2\n"
      "C busiest_link_words ts=26 tid=0 value=2\n"
      "X compute ts=50 dur=1 tid=2 step=2 iterations=1\n";
  const std::string degraded_metrics =
      "sim.msg_words count=4 sum=4 min=1 max=1 counts=4,0,0,0,0,0,0,0,0,0,\n"
      "sim.msg_hops count=4 sum=6 min=1 max=2 counts=0,2,2,0,0,0,0,0,\n"
      "sim.link.busiest_words (0,2) (1,2)\n"
      "sim.max_link_words 2\n";

  // The timeline shows the schedule, not the accounting: identical under
  // all three conventions.
  for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                             CommAccounting::LinkContention}) {
    for (bool faulty : {false, true}) {
      SCOPED_TRACE("accounting " + std::to_string(static_cast<int>(acc)) +
                   (faulty ? " link:0-1@1" : ""));
      SimTimelineRecorder sink;
      obs::MetricsRegistry reg;
      SimOptions opts;
      opts.accounting = acc;
      if (faulty) opts.faults = fault::FaultPlan::parse("link:0-1@1");
      opts.obs.trace = &sink;
      opts.obs.metrics = &reg;
      SimResult r = simulate_execution(q, tf, part, map, Hypercube(2), mp, opts);
      ASSERT_TRUE(r.metrics.has_value());
      EXPECT_EQ(sink.str(), faulty ? degraded : fault_free);
      EXPECT_EQ(render_telemetry(*r.metrics), faulty ? degraded_metrics : fault_free_metrics);
    }
  }
}

TEST(ExecSim, TelemetryNeverPerturbsPricing) {
  // The per-step telemetry reads the walk the accountings price from and
  // the link loads LinkContention prices; attaching a trace sink and a
  // registry must leave every priced field of the dense feed unchanged.
  PartitionFixture s = make(workloads::matrix_multiplication(4), {1, 1, 1});
  const HypercubeMappingResult hm = map_to_hypercube(s.tig, 3);
  const MachineParams mp{1.0, 10.0, 2.0};
  for (CommAccounting acc : {CommAccounting::PaperMaxChannel, CommAccounting::PerStepBarrier,
                             CommAccounting::LinkContention}) {
    for (const char* faults : {"", "link:0-1@3", "node:2@5"}) {
      for (bool hops : {false, true}) {
        SCOPED_TRACE("accounting " + std::to_string(static_cast<int>(acc)) + " faults '" +
                     faults + "'" + (hops ? " charge_hops" : ""));
        SimOptions opts;
        opts.accounting = acc;
        opts.charge_hops = hops;
        if (*faults != '\0') opts.faults = fault::FaultPlan::parse(faults);
        const SimResult plain =
            simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(3), mp, opts);
        obs::ChromeTraceSink sink;
        obs::MetricsRegistry reg;
        opts.obs.trace = &sink;
        opts.obs.metrics = &reg;
        const SimResult observed =
            simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(3), mp, opts);
        EXPECT_EQ(first_difference(plain, observed), "");
        EXPECT_GT(sink.event_count(), 0u);
        ASSERT_TRUE(observed.metrics.has_value());
        EXPECT_TRUE(observed.metrics->series.contains("sim.link.busiest_words"));
      }
    }
  }
}

TEST(ExecSim, FromLabelsPartitionSimulates) {
  // Partition::from_labels wraps arbitrary partitionings (e.g. the GCD
  // baseline's residue classes) for the simulator.
  ComputationStructure q = ComputationStructure::from_loop(workloads::strided_recurrence(5, 2));
  std::vector<std::size_t> labels(q.vertices().size());
  for (std::size_t vid = 0; vid < labels.size(); ++vid) {
    const PointRef v = q.vertices()[vid];
    labels[vid] = static_cast<std::size_t>((v[0] % 2) * 2 + (v[1] % 2));
  }
  Partition part = Partition::from_labels(q, labels);
  EXPECT_EQ(part.block_count(), 4u);
  Mapping map;
  map.processor_count = 4;
  map.block_to_proc = {0, 1, 2, 3};
  SimResult r = simulate_execution(q, TimeFunction{{1, 1}}, part, map, Hypercube(2),
                                   MachineParams{}, SimOptions{});
  // Residue classes are dependence-independent: zero messages.
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.comm_bottleneck, (Cost{0, 0, 0}));
}

class SimMonotonicityProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SimMonotonicityProperty, MoreProcessorsNeverIncreaseComputeBottleneck) {
  std::int64_t m = GetParam();
  PartitionFixture s = make(workloads::matrix_vector(m), {1, 1});
  std::int64_t prev = INT64_MAX;
  for (unsigned dim : {0u, 1u, 2u}) {
    HypercubeMappingResult hm = map_to_hypercube(s.tig, dim);
    SimResult r = simulate_execution(*s.q, s.tf, s.partition, hm.mapping, Hypercube(dim),
                                     MachineParams{}, SimOptions{});
    EXPECT_LE(r.compute_bottleneck.calc, prev);
    prev = r.compute_bottleneck.calc;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimMonotonicityProperty, ::testing::Values(8, 16, 20, 32));

}  // namespace
}  // namespace hypart
