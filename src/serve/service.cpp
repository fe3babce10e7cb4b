#include "serve/service.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/json_export.hpp"
#include "core/json_writer.hpp"
#include "core/params.hpp"
#include "frontend/parser.hpp"
#include "serve/canonical.hpp"
#include "serve/replay.hpp"

namespace hypart::serve {

namespace {

JsonValue make_error_reply(const JsonValue& id, const std::string& kind, int code,
                           const std::string& message) {
  JsonValue error;
  error.set("kind", JsonValue::make_string(kind));
  error.set("code", JsonValue::make_int(code));
  error.set("message", JsonValue::make_string(message));
  JsonValue reply;
  reply.set("id", id);
  reply.set("ok", JsonValue::make_bool(false));
  reply.set("error", std::move(error));
  return reply;
}

Error config_error(const std::string& message) { return Error(ErrorKind::Config, message); }

/// The error reply for the exception in flight; call from a catch block.
JsonValue error_reply(const JsonValue& id) {
  try {
    throw;
  } catch (const std::exception& e) {
    const Error typed = classify_failure(e);
    return make_error_reply(id, to_string(typed.kind()), typed.exit_code(), typed.what());
  }
}

struct PlanParams {
  PipelineConfig config;
  bool explicit_pi = false;  ///< params.pi was given: never read or fill the Π tier
  std::string fingerprint;   ///< params_fingerprint(config), before any cached Π
};

/// Resolve and validate request.params against the service defaults.
/// Strict: unknown members and wrong member types are Config errors, so
/// client typos fail loudly instead of silently planning with defaults.
PlanParams resolve_params(const JsonValue& request, const ServiceOptions& opts) {
  PlanParams p;
  p.config.cube_dim = opts.default_cube_dim;
  p.config.space_mode = opts.default_space;
  const JsonValue& params = request.get("params");
  if (!params.is_null()) {
    if (!params.is_object()) throw config_error("\"params\" must be an object");
    for (const auto& [key, value] : params.as_object()) set_param(p.config, "params.", key, value);
  }
  p.explicit_pi = p.config.time_function.has_value();
  p.fingerprint = params_fingerprint(p.config);
  return p;
}

bool is_plan_op(const std::string& op) {
  return op == "partition" || op == "map" || op == "predict" || op == "explain";
}

/// One plan request resolved to its cache identity and carried through
/// probe -> plan_cold -> publish.  The single-request and batch paths both
/// drive it, so the Π policy and the template build exist once.
struct PlanJob {
  PlanParams params;
  std::optional<LoopNest> nest;
  CanonicalForm cf;         ///< this requester's naming
  std::string doc_key;
  std::string disposition;  ///< "hit" | "pi" | "miss", set by probe
  std::shared_ptr<const RenderedPlan> plan;  ///< set by a hit or by publish
  RenderedPlan built;       ///< plan_cold product awaiting publish
  IntVec result_pi;         ///< Π to publish into the skeleton tier
};

/// Validate, parse, analyse and canonicalize one plan request.
PlanJob resolve_job(const JsonValue& request, const ServiceOptions& opts) {
  const JsonValue& program = request.get("program");
  if (!program.is_string()) throw config_error("missing \"program\" member (string)");
  PlanJob job;
  job.params = resolve_params(request, opts);
  job.nest = parse_loop_nest(program.as_string());
  job.cf = canonicalize_nest(*job.nest,
                             analyze_dependences(*job.nest, job.params.config.dependence));
  job.doc_key = job.cf.exact_key + "\n" + job.params.fingerprint;
  return job;
}

/// Probe the document tier; on a miss choose the Π to plan with: the
/// request's explicit Π, else a cached Π ("pi"), else the search ("miss").
void probe(PlanCache& cache, PlanJob& job) {
  job.plan = cache.find_document(job.doc_key);
  if (job.plan != nullptr) {
    job.disposition = "hit";
    return;
  }
  job.disposition = "miss";
  if (job.params.explicit_pi) return;
  if (std::optional<IntVec> pi = cache.find_pi(job.cf.structure_key)) {
    // A cached Π is valid for any nest with this structure (Π·d > 0 is a
    // condition on D alone); under pure rescaling of the bounds it is
    // also the Π the search would pick.  See docs/serve.md for the
    // optimality caveat under non-uniform bound changes.
    job.params.config.time_function = std::move(*pi);
    job.disposition = "pi";
  }
}

/// Plan a probed cold job and render its template.  Touches no cache, so
/// batch workers run it concurrently.
void plan_cold(PlanJob& job, const ServiceOptions& opts) {
  // The request span's sink sees the stage spans, but the registry is
  // withheld — a pipeline-metrics snapshot inside the cached document
  // would make replayed replies depend on request history.
  job.params.config.obs = obs::ObsContext{opts.obs.trace, nullptr};
  PipelineResult result = run_pipeline(*job.nest, job.params.config);
  job.result_pi = result.time_function.pi;
  job.built = render_plan(parse_json(pipeline_result_to_json(*job.nest, result)), job.cf.arrays);
}

/// Publish a planned job: its Π skeleton (unless pinned), then its template.
void publish(PlanCache& cache, PlanJob& job) {
  if (!job.params.explicit_pi) cache.insert_pi(job.cf.structure_key, std::move(job.result_pi));
  job.plan = cache.insert_document(job.doc_key, std::move(job.built));
}

/// Render one complete plan reply around the plan's template.  Keys are
/// written in sorted order, matching JsonValue::to_json of the equivalent
/// tree byte for byte.
std::string render_plan_reply(const std::string& disposition, const CanonicalForm& cf,
                              const std::string& fingerprint, const JsonValue& id,
                              const std::string& op, std::int64_t plan_us,
                              const RenderedPlan& plan) {
  JsonWriter w;
  w.begin_object();
  w.field("cache", disposition);
  w.key("canonical").begin_object();
  w.field("exact", cf.exact_hex());
  if (op == "explain") {
    // Full keys are auditable only where the full document already flows.
    w.field("exact_key", cf.exact_key);
    w.key("params").raw_value(fingerprint);
  }
  w.field("structure", cf.structure_hex());
  if (op == "explain") w.field("structure_key", cf.structure_key);
  w.end_object();
  w.key("id");
  id.write(w);
  w.field("ok", true);
  w.field("op", op);
  w.field("plan_us", plan_us);
  w.key("result");
  plan.render(w.raw_buffer(), op, cf.loop_name, cf.arrays);
  w.end_object();
  return w.str();
}

}  // namespace

PlanService::PlanService(ServiceOptions opts)
    : opts_(opts),
      cache_(opts.doc_cache_capacity, opts.skeleton_cache_capacity, opts.obs.metrics,
             opts.cache_shards) {}

std::string PlanService::handle_line(const std::string& line) {
  obs::Span span(opts_.obs.trace, "serve.request", "serve");
  obs::MetricsRegistry* metrics = opts_.obs.metrics;
  if (metrics != nullptr) metrics->add("serve.requests");

  JsonValue request;
  try {
    request = parse_json(line);
  } catch (const JsonParseError& e) {
    if (metrics != nullptr) metrics->add("serve.errors");
    span.arg("ok", std::int64_t{0});
    return make_error_reply(JsonValue::make_null(), "parse", 65,
                            std::string("bad request JSON: ") + e.what())
        .to_json();
  }

  const JsonValue id = request.is_object() ? request.get("id") : JsonValue::make_null();
  const std::string op = request.is_object() ? request.string_or("op", "") : "";
  if (!op.empty()) span.arg("op", op);

  try {
    if (!request.is_object()) throw config_error("request must be a JSON object");
    if (op == "ping" || op == "stats" || op == "shutdown") {
      if (metrics != nullptr) metrics->add("serve.requests." + op);
      JsonValue reply;
      reply.set("id", id);
      reply.set("ok", JsonValue::make_bool(true));
      reply.set("op", JsonValue::make_string(op));
      if (op == "stats") {
        PlanCacheStats s = cache_.stats();
        JsonValue cache;
        cache.set("documents", JsonValue::make_int(static_cast<std::int64_t>(s.documents)));
        cache.set("skeletons", JsonValue::make_int(static_cast<std::int64_t>(s.skeletons)));
        cache.set("doc_capacity",
                  JsonValue::make_int(static_cast<std::int64_t>(cache_.doc_capacity())));
        cache.set("skeleton_capacity",
                  JsonValue::make_int(static_cast<std::int64_t>(cache_.skeleton_capacity())));
        cache.set("doc_shards",
                  JsonValue::make_int(static_cast<std::int64_t>(cache_.doc_shard_count())));
        cache.set("skeleton_shards",
                  JsonValue::make_int(static_cast<std::int64_t>(cache_.pi_shard_count())));
        cache.set("hits", JsonValue::make_int(s.doc_hits));
        cache.set("misses", JsonValue::make_int(s.doc_misses));
        cache.set("pi_hits", JsonValue::make_int(s.pi_hits));
        cache.set("doc_evictions", JsonValue::make_int(s.doc_evictions));
        cache.set("pi_evictions", JsonValue::make_int(s.pi_evictions));
        reply.set("cache", std::move(cache));
        JsonValue defaults;
        defaults.set("dim", JsonValue::make_int(static_cast<std::int64_t>(opts_.default_cube_dim)));
        defaults.set("space", JsonValue::make_string(to_string(opts_.default_space)));
        reply.set("defaults", std::move(defaults));
      } else if (op == "shutdown") {
        shutdown_.store(true, std::memory_order_release);
      }
      return reply.to_json();
    }
    if (is_plan_op(op)) {
      if (metrics != nullptr) metrics->add("serve.requests." + op);
      return handle_plan(request, op, id, span);
    }
    if (op == "batch") {
      if (metrics != nullptr) metrics->add("serve.requests.batch");
      return handle_batch(request, id, span);
    }
    throw config_error(op.empty() ? "missing \"op\" member"
                                  : "unknown op \"" + op + "\"");
  } catch (const std::exception&) {
    if (metrics != nullptr) metrics->add("serve.errors");
    span.arg("ok", std::int64_t{0});
    return error_reply(id).to_json();
  }
}

std::string PlanService::handle_plan(const JsonValue& request, const std::string& op,
                                     const JsonValue& id, obs::Span& span) {
  const auto t0 = std::chrono::steady_clock::now();
  PlanJob job = resolve_job(request, opts_);
  probe(cache_, job);
  if (job.plan == nullptr) {
    plan_cold(job, opts_);
    publish(cache_, job);
  }
  if (opts_.obs.metrics != nullptr) opts_.obs.metrics->add("serve.cache." + job.disposition);
  span.arg("cache", job.disposition);

  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return render_plan_reply(job.disposition, job.cf, job.params.fingerprint, id, op, us, *job.plan);
}

namespace {

/// One unique (exact_key, params) document to materialize for a batch;
/// `job` is its first requester's.
struct BatchJob {
  PlanJob job;
  std::int64_t plan_us = 0;
  std::exception_ptr error;  ///< plan_cold failure, replied to each requester
};

/// One batch sub-request in arrival order.
struct BatchItem {
  JsonValue id;
  std::string op;
  std::string error_reply;  ///< pass-1 failure, already rendered
  std::size_t job = 0;      ///< index into jobs when error_reply is empty
  bool duplicate = false;   ///< same doc_key as an earlier item (replays it)
  CanonicalForm cf;         ///< this requester's naming
  std::string fingerprint;
};

}  // namespace

std::string PlanService::handle_batch(const JsonValue& request, const JsonValue& id,
                                      obs::Span& span) {
  obs::MetricsRegistry* metrics = opts_.obs.metrics;
  const JsonValue& requests = request.get("requests");
  if (!requests.is_array()) throw config_error("missing \"requests\" member (array)");
  const std::vector<JsonValue>& subs = requests.as_array();
  if (subs.empty()) throw config_error("batch \"requests\" must be non-empty");
  if (subs.size() > opts_.max_batch)
    throw config_error("batch of " + std::to_string(subs.size()) + " exceeds max_batch (" +
                       std::to_string(opts_.max_batch) + ")");
  span.arg("batch_n", static_cast<std::int64_t>(subs.size()));

  // Pass 1 — sequential, in request order: validate, canonicalize, probe
  // the cache and dedup pending documents.  Every cache interaction (and
  // therefore every counter) happens in arrival order here, which keeps
  // the roll-ups deterministic no matter how pass 2 is scheduled.
  std::vector<BatchItem> items(subs.size());
  std::vector<BatchJob> jobs;
  std::map<std::string, std::size_t> pending;  // doc_key -> job index
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const JsonValue& sub = subs[i];
    BatchItem& item = items[i];
    item.id = sub.is_object() ? sub.get("id") : JsonValue::make_null();
    try {
      if (!sub.is_object()) throw config_error("batch request must be a JSON object");
      item.op = sub.string_or("op", "");
      if (!is_plan_op(item.op))
        throw config_error(item.op.empty()
                               ? "missing \"op\" member"
                               : item.op == "batch"
                                     ? "nested batch is not allowed"
                                     : "op \"" + item.op + "\" is not allowed in a batch");
      if (metrics != nullptr) metrics->add("serve.requests." + item.op);
      PlanJob job = resolve_job(sub, opts_);
      item.cf = job.cf;
      item.fingerprint = job.params.fingerprint;

      auto it = pending.find(job.doc_key);
      if (it != pending.end()) {
        // An earlier sub-request already produces this document; replay it
        // once materialized.  No second cache probe, so the cache's own
        // hit/miss counters see each unique document once per batch.
        item.job = it->second;
        item.duplicate = true;
        continue;
      }
      probe(cache_, job);
      item.job = jobs.size();
      pending.emplace(job.doc_key, jobs.size());
      jobs.push_back({std::move(job), 0, nullptr});
    } catch (const std::exception&) {
      item.error_reply = error_reply(item.id).to_json();
    }
  }

  // Pass 2 — plan the cold documents, fanned across worker threads.  Each
  // job is independent (run_pipeline is already exercised concurrently by
  // the socket server's workers); results are buffered in the job, never
  // touching the cache from here.
  std::vector<std::size_t> cold;
  for (std::size_t j = 0; j < jobs.size(); ++j)
    if (jobs[j].job.plan == nullptr) cold.push_back(j);
  auto plan_one = [&](BatchJob& b) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      plan_cold(b.job, opts_);
    } catch (...) {
      b.error = std::current_exception();
    }
    b.plan_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  };
  std::size_t workers = opts_.batch_parallelism != 0
                            ? opts_.batch_parallelism
                            : static_cast<std::size_t>(std::thread::hardware_concurrency());
  if (workers == 0) workers = 1;
  if (workers > cold.size()) workers = cold.size();
  if (workers <= 1) {
    for (std::size_t j : cold) plan_one(jobs[j]);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
      pool.emplace_back([&] {
        for (;;) {
          std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= cold.size()) return;
          plan_one(jobs[cold[k]]);
        }
      });
    for (std::thread& t : pool) t.join();
  }

  // Pass 2b — publish to the cache sequentially in job (= first-arrival)
  // order, so the LRU order and eviction counters replay identically for
  // the same batch regardless of how pass 2 was scheduled.
  for (std::size_t j : cold)
    if (!jobs[j].error) publish(cache_, jobs[j].job);

  // Pass 3 — render replies in request order; disposition and error
  // counters are recorded here, where a job's outcome is finally known
  // (matching the single-request path, which only counts a disposition
  // after the pipeline succeeds).
  JsonWriter w;
  w.begin_object();
  w.key("id");
  id.write(w);
  w.field("ok", true);
  w.field("op", "batch");
  w.begin_array("replies");
  for (const BatchItem& item : items) {
    if (!item.error_reply.empty()) {
      if (metrics != nullptr) metrics->add("serve.errors");
      w.raw_value(item.error_reply);
      continue;
    }
    const BatchJob& b = jobs[item.job];
    if (b.error) {
      if (metrics != nullptr) metrics->add("serve.errors");
      try {
        std::rethrow_exception(b.error);
      } catch (const std::exception&) {
        w.raw_value(error_reply(item.id).to_json());
      }
      continue;
    }
    // A within-batch duplicate replays the just-produced document: "hit"
    // from the requester's point of view, with no planning time of its own.
    const std::string& disposition = item.duplicate ? "hit" : b.job.disposition;
    if (metrics != nullptr) metrics->add("serve.cache." + disposition);
    const std::int64_t us = item.duplicate ? 0 : b.plan_us;
    w.raw_value(render_plan_reply(disposition, item.cf, item.fingerprint, item.id, item.op, us,
                                  *b.job.plan));
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace hypart::serve
