// run_parallel robustness: the stall watchdog turns a deadlocked schedule
// into a typed StallError with a per-worker diagnostic dump instead of a
// hang, and delivery to a dead worker's mailbox surfaces as
// WorkerDeathError after capped retries.
#include "exec/parallel_runtime.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/error.hpp"
#include "mapping/hypercube_map.hpp"
#include "workloads/workloads.hpp"

namespace hypart {
namespace {

/// A 4-iteration chain A[i] = A[i-1] + 1 with singleton blocks mapped
/// alternately onto two processors.  With the (invalid, deliberately
/// supplied) time function Π = (-1) both workers' first vertex awaits a
/// message the other worker will only send later: a circular wait the
/// watchdog must detect.  With the valid Π = (1) the same fixture runs
/// fine — and proc 0 provably sends to proc 1, which the worker-death
/// tests exploit.
struct ChainFixture {
  LoopNest nest;
  DependenceInfo deps;
  std::unique_ptr<ComputationStructure> q;
  Partition partition;
  Mapping mapping;

  ChainFixture()
      : nest(LoopNestBuilder("chain")
                 .loop("i", 0, 3)
                 .assign("S", "A", {idx(0)}, ref("A", {idx(0) - 1}) + constant(1.0))
                 .build()) {
    deps = analyze_dependences(nest);
    IndexSet is(nest);
    q = std::make_unique<ComputationStructure>(is.points(), deps.distance_vectors());
    std::vector<std::size_t> labels(q->vertices().size());
    for (std::size_t v = 0; v < labels.size(); ++v) labels[v] = v;  // singleton blocks
    partition = Partition::from_labels(*q, labels);
    mapping.processor_count = 2;
    mapping.block_to_proc.resize(partition.block_count());
    for (std::size_t b = 0; b < partition.block_count(); ++b)
      mapping.block_to_proc[b] = partition.blocks()[b].iterations.front() % 2;
  }
};

TEST(Watchdog, DeadlockedScheduleRaisesStallError) {
  ChainFixture f;
  TimeFunction backwards{{-1}};  // reverses execution order per processor
  ParallelRunOptions opts;
  opts.recv_timeout_ms = 300;
  try {
    run_parallel(f.nest, *f.q, backwards, f.partition, f.mapping, f.deps, opts);
    FAIL() << "deadlocked schedule must not terminate normally";
  } catch (const StallError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Stall);
    EXPECT_EQ(e.exit_code(), 75);
    EXPECT_NE(std::string(e.what()).find("stall watchdog"), std::string::npos);
    // The diagnostics name every worker and what it is blocked on.
    EXPECT_NE(e.diagnostics().find("proc 0"), std::string::npos);
    EXPECT_NE(e.diagnostics().find("proc 1"), std::string::npos);
    EXPECT_NE(e.diagnostics().find("blocked on vertex"), std::string::npos);
  }
}

TEST(Watchdog, StallEmitsMetric) {
  ChainFixture f;
  obs::MetricsRegistry metrics;
  ParallelRunOptions opts;
  opts.recv_timeout_ms = 300;
  opts.obs.metrics = &metrics;
  EXPECT_THROW(run_parallel(f.nest, *f.q, TimeFunction{{-1}}, f.partition, f.mapping, f.deps,
                            opts),
               StallError);
  obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("fault.stalls_detected"), 1);
}

TEST(Watchdog, ValidScheduleStillRunsUnderWatchdog) {
  ChainFixture f;
  ParallelRunOptions opts;
  opts.recv_timeout_ms = 5000;
  ParallelRunResult par =
      run_parallel(f.nest, *f.q, TimeFunction{{1}}, f.partition, f.mapping, f.deps, opts);
  ArrayStore seq = run_sequential(f.nest);
  EXPECT_TRUE(compare_stores(seq, par.written).equal);
  EXPECT_EQ(par.stats.messages_sent, 3);  // every chain link crosses procs
  EXPECT_GE(par.stats.max_mailbox_depth, 1);
}

TEST(Watchdog, UnrepresentableDeadlineWaitsWithoutOne) {
  // A timeout past the steady clock's range means "no deadline"; it must
  // not overflow into one that has already passed.
  ChainFixture f;
  ParallelRunOptions opts;
  opts.recv_timeout_ms = std::numeric_limits<std::int64_t>::max();
  ParallelRunResult par =
      run_parallel(f.nest, *f.q, TimeFunction{{1}}, f.partition, f.mapping, f.deps, opts);
  EXPECT_TRUE(compare_stores(run_sequential(f.nest), par.written).equal);
  EXPECT_EQ(par.stats.messages_sent, 3);
}

TEST(Watchdog, DeadWorkerRaisesWorkerDeathError) {
  ChainFixture f;
  ParallelRunOptions opts;
  opts.dead_workers = {1};  // proc 1 dies at startup; proc 0 must send to it
  try {
    run_parallel(f.nest, *f.q, TimeFunction{{1}}, f.partition, f.mapping, f.deps, opts);
    FAIL() << "delivery to a dead worker must abort the run";
  } catch (const WorkerDeathError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::WorkerDeath);
    EXPECT_EQ(e.exit_code(), 76);
    EXPECT_NE(std::string(e.what()).find("dead worker 1"), std::string::npos);
  }
}

TEST(Watchdog, DeadWorkerEmitsMetric) {
  ChainFixture f;
  obs::MetricsRegistry metrics;
  ParallelRunOptions opts;
  opts.dead_workers = {1};  // proc 0 sends A[0] into proc 1's closed mailbox
  opts.obs.metrics = &metrics;
  EXPECT_THROW(run_parallel(f.nest, *f.q, TimeFunction{{1}}, f.partition, f.mapping, f.deps,
                            opts),
               WorkerDeathError);
  EXPECT_EQ(metrics.snapshot().counters.at("fault.worker_deaths"), 1);
}

TEST(Watchdog, BadOptionsAreConfigErrors) {
  ChainFixture f;
  ParallelRunOptions opts;
  opts.dead_workers = {7};  // out of range for 2 procs
  EXPECT_THROW(run_parallel(f.nest, *f.q, TimeFunction{{1}}, f.partition, f.mapping, f.deps,
                            opts),
               Error);
}

TEST(Watchdog, MailboxDepthReportedOnRealWorkload) {
  // Satellite check for ParallelRunStats::max_mailbox_depth on a workload
  // with real cross-processor traffic.
  LoopNest nest = workloads::sor2d(8, 8);
  DependenceInfo deps = analyze_dependences(nest);
  IndexSet is(nest);
  ComputationStructure q(is.points(), deps.distance_vectors());
  TimeFunction tf = *search_time_function(q);
  ProjectedStructure ps(q, tf);
  Grouping g = Grouping::compute(ps);
  Partition part = Partition::build(q, g);
  TaskInteractionGraph tig = TaskInteractionGraph::from_partition(q, part, g);
  Mapping map = map_to_hypercube(tig, 2).mapping;

  obs::MetricsRegistry metrics;
  ParallelRunOptions opts;
  opts.obs.metrics = &metrics;
  ParallelRunResult par = run_parallel(nest, q, tf, part, map, deps, opts);
  ASSERT_GT(par.stats.messages_sent, 0);
  EXPECT_GE(par.stats.max_mailbox_depth, 1);
  obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.gauges.at("runtime.max_mailbox_depth"),
            static_cast<double>(par.stats.max_mailbox_depth));
}

}  // namespace
}  // namespace hypart
