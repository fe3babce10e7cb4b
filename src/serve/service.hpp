// hypart::serve — the plan service: request dispatch over the canonical
// plan cache.
//
// PlanService is transport-agnostic: handle_line() maps one NDJSON request
// line to one NDJSON reply line (both without the trailing '\n').  The
// socket server (serve/server.hpp), the CLI, the load generator's
// in-process mode and the serve bench all drive this same object, so cache
// behaviour and error mapping are testable without sockets.
//
// Protocol (docs/serve.md is the authoritative spec):
//
//   request  := {"op": "partition"|"map"|"predict"|"explain"|"batch"
//                      |"ping"|"stats"|"shutdown",
//                "id"?: any, "program"?: string, "params"?: {...},
//                "requests"?: [...]}
//   success  := {"id", "ok": true, "op", ...}; plan ops add
//               "cache": "hit"|"pi"|"miss", "canonical": {structure, exact},
//               "plan_us": int, "result": {...}; "batch" adds "replies":
//               [one plan/error reply object per sub-request, in order]
//   error    := {"id", "ok": false,
//                "error": {"kind": string, "code": int, "message": string}}
//
// The "id" member is echoed verbatim (any JSON value).  Error kinds/codes
// are the typed hierarchy of core/error.hpp and its documented exit codes.
//
// Cache dispositions: "hit" replays a stored plan with the requester's
// names spliced in, "pi" reuses a cached time function Π but re-runs the
// rest of the pipeline for the actual bounds, "miss" runs everything
// including the Π search.  Every plan is cached as one reply template
// (serve/replay.hpp), so a hit is byte-identical to a cold plan of the
// requester apart from "cache" and "plan_us".  Single and batch requests
// share one probe -> plan -> publish sequence.  plan_us (wall time)
// appears only in replies — never in the metrics registry, which stays
// deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/pipeline.hpp"
#include "obs/obs.hpp"
#include "serve/plan_cache.hpp"

namespace hypart::serve {

struct ServiceOptions {
  std::size_t doc_cache_capacity = 256;
  std::size_t skeleton_cache_capacity = 128;
  /// Lock stripes requested per cache tier (clamped; see plan_cache.hpp).
  std::size_t cache_shards = PlanCache::kDefaultShards;
  /// Upper bound on requests per batch op (whole batch rejected beyond it).
  std::size_t max_batch = 256;
  /// Threads used to plan a batch's cold misses; 0 = hardware concurrency.
  std::size_t batch_parallelism = 0;
  /// Defaults applied to plan requests that omit the matching params.
  unsigned default_cube_dim = 3;
  SpaceMode default_space = SpaceMode::Symbolic;
  /// Metrics registry and trace sink (both nullable).  Counters recorded:
  /// serve.requests, serve.requests.<op> (batch sub-requests count toward
  /// their own op too), serve.cache.{hit,pi,miss}, serve.errors (+ the
  /// cache's eviction counters).  One span per request line.  All totals
  /// are deterministic for a given request sequence, independent of thread
  /// or shard counts.
  obs::ObsContext obs{};
};

class PlanService {
 public:
  explicit PlanService(ServiceOptions opts = {});

  /// Handle one request line; always returns exactly one reply line
  /// (no trailing newline).  Never throws: every failure becomes an
  /// error reply.
  std::string handle_line(const std::string& line);

  /// True once a {"op":"shutdown"} request has been accepted.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  [[nodiscard]] PlanCacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] const PlanCache& cache() const { return cache_; }
  [[nodiscard]] const ServiceOptions& options() const { return opts_; }

 private:
  std::string handle_plan(const JsonValue& request, const std::string& op, const JsonValue& id,
                          obs::Span& span);
  std::string handle_batch(const JsonValue& request, const JsonValue& id, obs::Span& span);

  ServiceOptions opts_;
  PlanCache cache_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace hypart::serve
