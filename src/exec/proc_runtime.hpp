// hypart — the multi-process execution backend.
//
// run_procs() runs the node program the threaded runtime runs
// (exec/worker_loop.hpp), but with the paper's machine model taken
// literally: every simulated processor is a real OS process with a private
// address space, values cross between them only as framed messages over
// sockets, and a processor can actually fail.  A Supervisor
// (exec/supervisor.hpp) forks the workers, routes every DATA frame along
// the mapped hypercube (charging e-cube hop counts), and watches for
// crashes, hangs and truncated frames.  A worker exception comes back as an
// ERROR frame and aborts the run as Error(Internal) naming the worker.
//
// Recovery is epoch restart with block reassignment: when a worker dies,
// the supervisor kills the epoch, reassigns every dead processor's blocks
// to a live spare with fault/remap's charged-migration policy (falling
// back to least-loaded placement on non-power-of-two machines), respawns,
// and reruns.  Faults that already fired are consumed, so a seeded fault
// plan converges instead of killing every epoch; after `max_recoveries`
// restarts the run aborts with WorkerDeathError.  A successful run's
// output is bit-identical to the sequential interpreter — the property the
// tests pin under every injected failure.
//
// When fork/socketpair hit resource exhaustion (EMFILE/ENFILE/ENOMEM/
// EAGAIN) the backend degrades gracefully to the threaded run_parallel
// with `stats.degraded` set, a documented fallback rather than a crash
// (proc faults are not injectable in degraded mode and are skipped).
#pragma once

#include "core/error.hpp"
#include "exec/interpreter.hpp"
#include "fault/fault_plan.hpp"
#include "obs/obs.hpp"

namespace hypart {

struct ProcRunStats {
  std::int64_t messages_sent = 0;  ///< DATA frames routed worker -> worker
  std::int64_t halo_loads = 0;
  std::int64_t route_hops = 0;  ///< hypercube hops charged for routed frames
  std::size_t workers = 0;      ///< workers of the final (successful) epoch
  int recoveries = 0;           ///< epoch restarts after worker deaths
  std::size_t migrated_blocks = 0;   ///< blocks reassigned off dead workers
  std::int64_t migration_words = 0;  ///< iteration words those blocks carried
  std::int64_t heartbeat_misses = 0;
  std::int64_t send_retries = 0;  ///< backoff retries across all sends
  bool degraded = false;          ///< fell back to the threaded backend
  /// Per-worker phase clocks (µs), filled only when measure_phases; same
  /// tiling contract as ParallelRunStats so the accuracy ledger can
  /// attribute measured time per component for either backend.
  std::vector<double> per_proc_compute_us;
  std::vector<double> per_proc_wait_us;
  std::vector<double> per_proc_send_us;
  /// Supervisor-measured wall time of the successful epoch (µs); includes
  /// fork/teardown, honestly pricing what the process backend costs.
  /// 0 unless measure_phases.
  double wall_us = 0.0;
};

struct ProcRunResult {
  ArrayStore written;  ///< merged written values (last hyperplane step wins)
  ProcRunStats stats;
};

struct ProcRunOptions {
  InitFn init = default_init;
  obs::ObsContext obs{};  ///< parent-side only; children never touch it
  /// How often a blocked worker proves liveness.
  std::int64_t heartbeat_interval_ms = 50;
  /// Supervisor kills a worker silent for this long (<= 0 disables).
  std::int64_t heartbeat_timeout_ms = 2000;
  /// Whole-run stall watchdog: no schedule progress (DATA/WRITES/DONE) for
  /// this long aborts with StallError (<= 0 disables).
  std::int64_t run_timeout_ms = 30000;
  /// Epoch restarts allowed before aborting with WorkerDeathError.
  int max_recoveries = 4;
  bool measure_phases = false;
  /// Injected real-process faults (from `--faults proc:...`).
  std::vector<fault::ProcFault> proc_faults;
  /// Permit the documented fallback to run_parallel on fork/socket
  /// resource exhaustion; when false such exhaustion throws Error(Io).
  bool allow_degrade = true;
};

/// Execute the partitioned, mapped nest on one OS process per processor
/// under supervision.  Deterministic result (equals run_sequential);
/// throws StallError when the run watchdog fires, WorkerDeathError when
/// recovery attempts are exhausted, FaultError when a death is
/// unsurvivable (no live spare), Error(Internal) when a worker throws,
/// Error(Config) on invalid options.
ProcRunResult run_procs(const LoopNest& nest, const ComputationStructure& q,
                        const TimeFunction& tf, const Partition& part,
                        const Mapping& mapping, const DependenceInfo& deps,
                        const ProcRunOptions& options = {});

}  // namespace hypart
