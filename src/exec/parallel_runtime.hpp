// hypart — the threaded execution backend.
//
// run_parallel() runs the shared node program (exec/worker_loop.hpp) on N
// concurrent worker threads, one per simulated processor, over an
// in-process transport: per-processor mailboxes (mutex + condition
// variable) and blocking receives.  No shared mutable array state exists:
// a worker only touches its own local store and its mailbox, exactly like a
// node of the paper's message-passing machine.  Every value a remote
// iteration needs is sent as a typed message and *waited for*, so a
// partitioning or mapping bug that breaks the schedule shows up as a wrong
// result or — via the stall watchdog — as a typed StallError with a
// per-worker diagnostic dump, never as a silent hang.  Injected worker
// death (a mailbox closed before the run) is surfaced as WorkerDeathError
// after capped delivery retries; a worker exception aborts the run as
// Error(Internal) naming the worker.
//
// Results must equal sequential execution; the tests assert this under
// thread-schedule nondeterminism.
#pragma once

#include "core/error.hpp"
#include "exec/interpreter.hpp"
#include "obs/obs.hpp"

namespace hypart {

struct ParallelRunStats {
  std::int64_t messages_sent = 0;
  std::int64_t halo_loads = 0;
  std::size_t threads = 0;
  std::vector<std::int64_t> per_proc_messages;  ///< sends per worker thread
  /// Deepest any mailbox ever got (received-but-undrained messages); a
  /// climbing depth on a proc that never drains is the signature of a
  /// brewing stall — exposed as metric `runtime.max_mailbox_depth` so runs
  /// are diagnosable before the watchdog fires.
  std::int64_t max_mailbox_depth = 0;
  /// Per-worker phase clocks, filled only when
  /// ParallelRunOptions::measure_phases is set: microseconds each worker
  /// spent computing iterations, blocked on receives, and posting sends.
  /// The three phases tile a worker's span up to loop overhead, so the
  /// accuracy ledger (obs/ledger.hpp) can attribute measured time to the
  /// same components the cost model predicts.
  std::vector<double> per_proc_compute_us;
  std::vector<double> per_proc_wait_us;
  std::vector<double> per_proc_send_us;
  /// Longest worker span in microseconds (the measured critical path);
  /// 0 unless measure_phases.
  double wall_us = 0.0;
};

struct ParallelRunResult {
  ArrayStore written;  ///< merged written values (last hyperplane step wins)
  ParallelRunStats stats;
};

struct ParallelRunOptions {
  InitFn init = default_init;
  obs::ObsContext obs{};
  /// Stall watchdog: a worker blocked on a receive for longer than this
  /// without any message arriving aborts the whole run with StallError
  /// (diagnostics: per-worker blocked-on vertex, outstanding message count,
  /// mailbox depth).  0 disables the watchdog (pre-fault behavior: a broken
  /// schedule hangs forever).
  std::int64_t recv_timeout_ms = 30000;
  /// Fault injection: these workers die at startup — their mailbox closes
  /// and they execute nothing.  Message delivery to a closed mailbox is
  /// tried four times with capped backoff, then the run aborts with
  /// WorkerDeathError.
  std::vector<ProcId> dead_workers;
  /// Record per-worker compute/wait/send phase clocks into
  /// ParallelRunStats (two steady_clock reads per phase per iteration).
  /// Off by default so the fast path stays measurement-free.
  bool measure_phases = false;
};

/// Execute the partitioned, mapped nest on one OS thread per processor.
/// Blocking message passing between threads; throws on non-executable
/// statements or mapping mismatch, StallError when the watchdog fires,
/// WorkerDeathError when delivery to a dead worker's mailbox gives up, and
/// Error(Internal) when a worker throws.  Deterministic result (not
/// timing).  When `obs` carries a trace sink, each worker gets a wall-clock
/// span (pid kPipelinePid, tid kRuntimeTidBase + proc); counters and
/// per-proc send totals land in the registry.  Workers never touch the sink
/// concurrently — timestamps are collected locally and emitted after join.
ParallelRunResult run_parallel(const LoopNest& nest, const ComputationStructure& q,
                               const TimeFunction& tf, const Partition& part,
                               const Mapping& mapping, const DependenceInfo& deps,
                               const ParallelRunOptions& options = {});

}  // namespace hypart
