// The multi-process backend: supervised fork+socket workers must produce
// sequential-identical output fault-free AND under every injected real
// failure (SIGKILL, hang, truncated frame, delayed sends), recover by
// reassigning the dead worker's blocks to a live spare, degrade gracefully
// to the threaded backend under resource pressure, and fail typed (never
// hang) when recovery is impossible.
#include "exec/proc_runtime.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "core/error.hpp"
#include "exec/parallel_runtime.hpp"
#include "exec_fixture.hpp"
#include "fault/fault_plan.hpp"
#include "obs/ledger.hpp"

namespace hypart {
namespace {

std::uint64_t fault_seed() {
  // CI sweeps this to shake out schedule-dependent recovery bugs.
  const char* env = std::getenv("HYPART_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

/// Fast supervision constants for fault tests: detect a hang in ~hundreds
/// of ms instead of the production 2 s.
ProcRunOptions fast_opts() {
  ProcRunOptions o;
  o.heartbeat_interval_ms = 10;
  o.heartbeat_timeout_ms = 500;
  o.run_timeout_ms = 20000;
  return o;
}

// ---- fault-free equivalence ------------------------------------------------

TEST(ProcRuntime, MatvecProcsMatchSequential) {
  RuntimeFixture f(workloads::matrix_vector(12));
  ArrayStore seq = run_sequential(f.nest);
  ProcRunResult pr = run_procs(f.nest, *f.q, f.tf, f.partition, f.map(2), f.deps);
  EquivalenceReport rep = compare_stores(seq, pr.written);
  EXPECT_TRUE(rep.equal) << rep.first_mismatch;
  EXPECT_EQ(pr.stats.workers, 4u);
  EXPECT_EQ(pr.stats.recoveries, 0);
  EXPECT_FALSE(pr.stats.degraded);
  EXPECT_GT(pr.stats.messages_sent, 0);
}

TEST(ProcRuntime, MessageCountMatchesInterpreterAndHopsAreCharged) {
  for (LoopNest& nest : parity_nests()) {
    RuntimeFixture f(std::move(nest));
    for (unsigned dim : {1u, 2u}) {
      SCOPED_TRACE(f.nest.name() + " dim " + std::to_string(dim));
      Mapping map = f.map(dim);
      ProcRunResult pr = run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps);
      DistributedResult sim = run_distributed(f.nest, *f.q, f.tf, f.partition, map, f.deps);
      EXPECT_EQ(pr.stats.messages_sent, sim.stats.value_messages);
      EXPECT_EQ(pr.stats.halo_loads, sim.stats.halo_loads);
      // Every routed message crosses processors, so it is charged >= 1 hop.
      EXPECT_GE(pr.stats.route_hops, pr.stats.messages_sent);
    }
  }
}

TEST(ProcRuntime, WorkloadSweepMatchesSequential) {
  const LoopNest nests[] = {workloads::example_l1(6), workloads::convolution1d(10, 4),
                            workloads::transitive_closure(5)};
  for (const LoopNest& nest : nests) {
    RuntimeFixture f(nest);
    ArrayStore seq = run_sequential(f.nest);
    for (unsigned dim : {1u, 2u}) {
      ProcRunResult pr = run_procs(f.nest, *f.q, f.tf, f.partition, f.map(dim), f.deps);
      EquivalenceReport rep = compare_stores(seq, pr.written);
      EXPECT_TRUE(rep.equal) << nest.name() << " dim " << dim << ": " << rep.first_mismatch;
    }
  }
}

// ---- recovery property: any single death, any step -------------------------

TEST(ProcRuntime, AnySingleKillAtAnyStepRecoversToSequentialOutput) {
  RuntimeFixture f(workloads::sor2d(6, 6));
  Mapping map = f.map(2);
  ArrayStore seq = run_sequential(f.nest);
  auto [lo, hi] = f.step_range();
  int triggered = 0;
  for (ProcId victim = 0; victim < map.processor_count; ++victim) {
    for (std::int64_t step = lo; step <= hi; ++step) {
      ProcRunOptions opts = fast_opts();
      fault::ProcFault kill;
      kill.kind = fault::ProcFaultKind::Kill;
      kill.proc = victim;
      kill.at_step = step;
      opts.proc_faults = {kill};
      ProcRunResult pr = run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps, opts);
      EquivalenceReport rep = compare_stores(seq, pr.written);
      ASSERT_TRUE(rep.equal) << "victim " << victim << " @ step " << step << ": "
                             << rep.first_mismatch;
      // A fault beyond the victim's last vertex never fires; when it does
      // fire, exactly one recovery with charged block reassignment.
      ASSERT_LE(pr.stats.recoveries, 1);
      if (pr.stats.recoveries == 1) {
        ++triggered;
        EXPECT_GT(pr.stats.migrated_blocks, 0u);
        EXPECT_GT(pr.stats.migration_words, 0);
      }
    }
  }
  EXPECT_GT(triggered, 0) << "the sweep never actually killed a worker";
}

TEST(ProcRuntime, EveryWorkloadSurvivesSeededKillBitIdentical) {
  // The acceptance sweep: under a seeded proc-kill plan, every workload in
  // src/workloads completes with output bit-identical to the sequential
  // interpreter.
  const LoopNest nests[] = {
      workloads::example_l1(6),         workloads::matrix_multiplication(4),
      workloads::matrix_vector(8),      workloads::matrix_multiplication_rewritten(4),
      workloads::matrix_vector_rewritten(8), workloads::convolution1d(10, 4),
      workloads::transitive_closure(4), workloads::sor2d(6, 6),
      workloads::wavefront3d(4),        workloads::skewed_wavefront3d(4),
      workloads::strided_recurrence(10, 2), workloads::convolution2d(5, 2),
      workloads::triangular_matvec(6),  workloads::dft_horner(6)};
  for (const LoopNest& nest : nests) {
    try {
      require_serializable_updates(nest);
    } catch (const std::exception&) {
      continue;  // conv2d's 2-D reduction lattice: no real backend runs it
    }
    RuntimeFixture f(nest);
    ArrayStore seq = run_sequential(f.nest);
    ProcRunOptions opts = fast_opts();
    fault::ProcFault rand_kill;
    rand_kill.kind = fault::ProcFaultKind::RandKill;
    rand_kill.seed = fault_seed();
    opts.proc_faults = {rand_kill};
    ProcRunResult pr = run_procs(f.nest, *f.q, f.tf, f.partition, f.map(2), f.deps, opts);
    EquivalenceReport rep = compare_stores(seq, pr.written);
    ASSERT_TRUE(rep.equal) << nest.name() << " seed " << rand_kill.seed << ": "
                           << rep.first_mismatch;
    ASSERT_LE(pr.stats.recoveries, 1) << nest.name();
  }
}

TEST(ProcRuntime, SeededRandomKillRecovers) {
  RuntimeFixture f(workloads::matrix_vector(10));
  Mapping map = f.map(2);
  ArrayStore seq = run_sequential(f.nest);
  ProcRunOptions opts = fast_opts();
  fault::ProcFault rand_kill;
  rand_kill.kind = fault::ProcFaultKind::RandKill;
  rand_kill.seed = fault_seed();
  opts.proc_faults = {rand_kill};
  ProcRunResult pr = run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps, opts);
  EquivalenceReport rep = compare_stores(seq, pr.written);
  EXPECT_TRUE(rep.equal) << "seed " << rand_kill.seed << ": " << rep.first_mismatch;
  EXPECT_EQ(pr.stats.recoveries, 1);
}

// ---- the other real failure modes -----------------------------------------

TEST(ProcRuntime, HungWorkerIsDetectedByHeartbeatAndRecovered) {
  RuntimeFixture f(workloads::matrix_vector(8));
  Mapping map = f.map(1);
  ArrayStore seq = run_sequential(f.nest);
  ProcRunOptions opts = fast_opts();
  fault::ProcFault hang;
  hang.kind = fault::ProcFaultKind::Hang;
  hang.proc = 0;
  opts.proc_faults = {hang};
  obs::MetricsRegistry metrics;
  opts.obs.metrics = &metrics;
  ProcRunResult pr = run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps, opts);
  EXPECT_TRUE(compare_stores(seq, pr.written).equal);
  EXPECT_EQ(pr.stats.recoveries, 1);
  EXPECT_GE(pr.stats.heartbeat_misses, 1);
  obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_GE(snap.counters.at("procs.events.heartbeat_miss"), 1);
  EXPECT_GE(snap.counters.at("procs.worker_deaths"), 1);
  EXPECT_GE(snap.counters.at("procs.recoveries"), 1);
}

TEST(ProcRuntime, TruncatedFrameIsDetectedAndRecovered) {
  RuntimeFixture f(workloads::matrix_vector(8));
  Mapping map = f.map(1);
  ArrayStore seq = run_sequential(f.nest);
  ProcRunOptions opts = fast_opts();
  fault::ProcFault trunc;
  trunc.kind = fault::ProcFaultKind::TruncFrame;
  trunc.proc = 1;
  opts.proc_faults = {trunc};
  ProcRunResult pr = run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps, opts);
  EXPECT_TRUE(compare_stores(seq, pr.written).equal);
  EXPECT_EQ(pr.stats.recoveries, 1);
}

TEST(ProcRuntime, DelayedSendsCompleteWithoutRecovery) {
  RuntimeFixture f(workloads::example_l1(6));
  Mapping map = f.map(1);
  ArrayStore seq = run_sequential(f.nest);
  ProcRunOptions opts = fast_opts();
  fault::ProcFault delay;
  delay.kind = fault::ProcFaultKind::DelaySend;
  delay.proc = 0;
  delay.delay_ms = 20;  // well under the heartbeat timeout: slow, not dead
  opts.proc_faults = {delay};
  ProcRunResult pr = run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps, opts);
  EXPECT_TRUE(compare_stores(seq, pr.written).equal);
  EXPECT_EQ(pr.stats.recoveries, 0);
}

// ---- exhaustion, unsurvivability, degradation ------------------------------

TEST(ProcRuntime, RecoveryBudgetExhaustionIsWorkerDeathError) {
  RuntimeFixture f(workloads::example_l1(6));
  ProcRunOptions opts = fast_opts();
  opts.max_recoveries = 0;
  fault::ProcFault kill;
  kill.kind = fault::ProcFaultKind::Kill;
  kill.proc = 0;
  opts.proc_faults = {kill};
  try {
    run_procs(f.nest, *f.q, f.tf, f.partition, f.map(1), f.deps, opts);
    FAIL() << "exhausted recovery budget must abort";
  } catch (const WorkerDeathError& e) {
    EXPECT_EQ(e.exit_code(), 76);
    EXPECT_NE(std::string(e.what()).find("recovery budget"), std::string::npos);
  }
}

TEST(ProcRuntime, KillingEveryWorkerIsUnsurvivableFaultError) {
  RuntimeFixture f(workloads::example_l1(6));
  Mapping map = f.map(1);  // 2 workers
  ProcRunOptions opts = fast_opts();
  opts.max_recoveries = 4;
  for (ProcId p = 0; p < map.processor_count; ++p) {
    fault::ProcFault kill;
    kill.kind = fault::ProcFaultKind::Kill;
    kill.proc = p;
    opts.proc_faults.push_back(kill);
  }
  EXPECT_THROW(run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps, opts), FaultError);
}

/// Lowers the soft RLIMIT_NOFILE so that exactly one descriptor is free:
/// socketpair() then really fails with EMFILE, the resource exhaustion
/// run_procs degrades on.  Restores the limit when it goes out of scope.
///
/// UBSan's vptr check probes memory through a pipe the first time it meets
/// a dynamic type, so each test first meets every type it will need (the
/// same calls, and the error it expects) with descriptors to spare.
class OneFreeFd {
 public:
  OneFreeFd() {
    int lowest_free = ::open("/dev/null", O_RDONLY);
    EXPECT_GE(lowest_free, 0);
    ::close(lowest_free);
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit tight = saved_;
    tight.rlim_cur = static_cast<rlim_t>(lowest_free) + 1;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  }
  ~OneFreeFd() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  OneFreeFd(const OneFreeFd&) = delete;
  OneFreeFd& operator=(const OneFreeFd&) = delete;

 private:
  rlimit saved_{};
};

TEST(ProcRuntime, ForcedDegradationFallsBackToThreads) {
  RuntimeFixture f(workloads::matrix_vector(8));
  ArrayStore seq = run_sequential(f.nest);
  Mapping map = f.map(2);
  ProcRunResult spared = run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps);
  EXPECT_FALSE(spared.stats.degraded);
  ParallelRunResult threads = run_parallel(f.nest, *f.q, f.tf, f.partition, map, f.deps);
  ProcRunResult pr;
  {
    OneFreeFd exhausted;
    pr = run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps);
  }
  EXPECT_TRUE(pr.stats.degraded);
  EXPECT_TRUE(compare_stores(seq, pr.written).equal);
  EXPECT_EQ(pr.stats.messages_sent, threads.stats.messages_sent);
}

TEST(ProcRuntime, DegradationCanBeDisallowed) {
  RuntimeFixture f(workloads::example_l1(4));
  Mapping map = f.map(1);
  ProcRunOptions opts;
  opts.allow_degrade = false;
  EXPECT_FALSE(run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps, opts).stats.degraded);
  EXPECT_EQ(Error(ErrorKind::Io, "spare descriptors").kind(), ErrorKind::Io);
  std::exception_ptr thrown;
  {
    OneFreeFd exhausted;
    try {
      run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps, opts);
    } catch (...) {
      thrown = std::current_exception();
    }
  }
  ASSERT_TRUE(thrown) << "degradation disabled must throw";
  try {
    std::rethrow_exception(thrown);
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Io) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error: " << e.what();
  }
}

TEST(ProcRuntime, WorkerExceptionIsInternalOnBothBackends) {
  RuntimeFixture f(workloads::matrix_vector(8));
  Mapping map = f.map(2);
  InitFn refuse = [](const std::string&, const IntVec&) -> double {
    throw std::runtime_error("init refused");
  };
  auto expect_internal = [](const char* backend, const auto& run) {
    try {
      run();
      ADD_FAILURE() << backend << ": a throwing init must abort the run";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(e.kind(), ErrorKind::Internal) << backend << ": " << what;
      EXPECT_NE(what.find("worker "), std::string::npos) << backend << ": " << what;
      EXPECT_NE(what.find("threw: init refused"), std::string::npos) << backend << ": " << what;
    }
  };
  ParallelRunOptions threads;
  threads.init = refuse;
  expect_internal("threads",
                  [&] { run_parallel(f.nest, *f.q, f.tf, f.partition, map, f.deps, threads); });
  ProcRunOptions procs = fast_opts();
  procs.init = refuse;
  expect_internal("procs",
                  [&] { run_procs(f.nest, *f.q, f.tf, f.partition, map, f.deps, procs); });
}

TEST(ProcRuntime, BadOptionsAreConfigErrors) {
  RuntimeFixture f(workloads::example_l1(4));
  ProcRunOptions out_of_range;
  fault::ProcFault kill;
  kill.kind = fault::ProcFaultKind::Kill;
  kill.proc = 99;
  out_of_range.proc_faults = {kill};
  EXPECT_THROW(run_procs(f.nest, *f.q, f.tf, f.partition, f.map(1), f.deps, out_of_range),
               Error);
  ProcRunOptions bad_interval;
  bad_interval.heartbeat_interval_ms = 0;
  EXPECT_THROW(run_procs(f.nest, *f.q, f.tf, f.partition, f.map(1), f.deps, bad_interval),
               Error);
}

// ---- fault grammar ---------------------------------------------------------

TEST(ProcFaultPlan, ParsesEveryProcTerm) {
  fault::FaultPlan p = fault::FaultPlan::parse(
      "proc:kill:1@2,proc:hang:0,proc:trunc:3@1,proc:delay:2:40@5,proc:rand:7");
  ASSERT_EQ(p.proc_faults.size(), 5u);
  EXPECT_EQ(p.proc_faults[0].kind, fault::ProcFaultKind::Kill);
  EXPECT_EQ(p.proc_faults[0].proc, 1u);
  EXPECT_EQ(p.proc_faults[0].at_step, 2);
  EXPECT_EQ(p.proc_faults[1].kind, fault::ProcFaultKind::Hang);
  EXPECT_EQ(p.proc_faults[1].at_step, fault::kFromStart);
  EXPECT_EQ(p.proc_faults[2].kind, fault::ProcFaultKind::TruncFrame);
  EXPECT_EQ(p.proc_faults[3].kind, fault::ProcFaultKind::DelaySend);
  EXPECT_EQ(p.proc_faults[3].delay_ms, 40);
  EXPECT_EQ(p.proc_faults[3].at_step, 5);
  EXPECT_EQ(p.proc_faults[4].kind, fault::ProcFaultKind::RandKill);
  EXPECT_EQ(p.proc_faults[4].seed, 7u);
}

TEST(ProcFaultPlan, RoundTripsThroughToString) {
  const std::string spec = "proc:kill:1@2,proc:delay:2:40@5,proc:rand:7";
  fault::FaultPlan p = fault::FaultPlan::parse(spec);
  EXPECT_EQ(p.to_string(), spec);
  fault::FaultPlan again = fault::FaultPlan::parse(p.to_string());
  EXPECT_EQ(again.proc_faults.size(), p.proc_faults.size());
}

TEST(ProcFaultPlan, ProcTermsDoNotDegradeTheSimulatedMachine) {
  fault::FaultPlan p = fault::FaultPlan::parse("proc:kill:1");
  EXPECT_FALSE(p.empty());
  EXPECT_TRUE(p.machine_empty());  // simulator / remapper see no machine fault
  fault::FaultPlan mixed = fault::FaultPlan::parse("node:3,proc:kill:1");
  EXPECT_FALSE(mixed.machine_empty());
}

TEST(ProcFaultPlan, MalformedProcTermsThrowTyped) {
  EXPECT_THROW(fault::FaultPlan::parse("proc:explode:1"), FaultError);
  EXPECT_THROW(fault::FaultPlan::parse("proc:kill"), FaultError);
  EXPECT_THROW(fault::FaultPlan::parse("proc:delay:1"), FaultError);
  EXPECT_THROW(fault::FaultPlan::parse("proc:rand:"), FaultError);
}

// ---- ledger integration ----------------------------------------------------

TEST(ProcRuntime, LedgerRowCarriesBackendAndSharesSumExactly) {
  PipelineConfig config;
  config.cube_dim = 2;
  obs::LedgerOptions lopts;
  lopts.repeats = 1;
  lopts.backend = ExecBackend::Procs;
  obs::LedgerRow row = obs::run_ledger(workloads::matrix_vector(8), config, lopts);
  EXPECT_EQ(row.backend, "procs");
  // Both breakdowns tile their totals exactly — the ledger invariant.
  EXPECT_DOUBLE_EQ(row.predicted.sum(), row.predicted.total);
  EXPECT_DOUBLE_EQ(row.measured.sum(), row.measured.total);
  EXPECT_GT(row.measured.total, 0.0);
}

}  // namespace
}  // namespace hypart
