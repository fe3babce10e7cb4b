// Tests for hypart::serve — canonicalization, the two-tier plan cache, the
// request service (dispositions, name splicing, the cold-plan replay
// oracle, error mapping) and the NDJSON socket server (concurrency,
// shutdown).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <random>
#include <regex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/io_util.hpp"
#include "core/json_export.hpp"
#include "core/json_reader.hpp"
#include "core/json_writer.hpp"
#include "core/pipeline.hpp"
#include "frontend/parser.hpp"
#include "serve/canonical.hpp"
#include "serve/plan_cache.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace hypart::serve {
namespace {

// A SOR-like 2-D recurrence parameterized on every identifier and the size,
// so structural identity under renaming/rescaling is easy to probe.
std::string sor_like(const std::string& tag, const std::string& n) {
  return "loop nest" + tag + " { for i" + tag + " = 1 to " + n + " for j" + tag + " = 1 to " + n +
         " A" + tag + "[i" + tag + ", j" + tag + "] = (A" + tag + "[i" + tag + "-1, j" + tag +
         "] + A" + tag + "[i" + tag + ", j" + tag + "-1]) * 0.5; }";
}

// ---- canonicalization -----------------------------------------------------

TEST(Canonical, RenamedNestsShareBothKeys) {
  CanonicalForm a = canonicalize_nest(parse_loop_nest(sor_like("X", "24")));
  CanonicalForm b = canonicalize_nest(parse_loop_nest(sor_like("Y", "24")));
  EXPECT_EQ(a.structure_key, b.structure_key);
  EXPECT_EQ(a.exact_key, b.exact_key);
  EXPECT_EQ(a.structure_hex(), b.structure_hex());
  // The per-nest naming is preserved alongside the canonical keys.
  EXPECT_EQ(a.loop_name, "nestX");
  EXPECT_EQ(b.loop_name, "nestY");
  ASSERT_EQ(a.arrays.size(), 1u);
  ASSERT_EQ(b.arrays.size(), 1u);
  EXPECT_EQ(a.arrays[0], "AX");
  EXPECT_EQ(b.arrays[0], "AY");
}

TEST(Canonical, RescaledNestsShareStructureButNotExactKey) {
  CanonicalForm a = canonicalize_nest(parse_loop_nest(sor_like("X", "24")));
  CanonicalForm b = canonicalize_nest(parse_loop_nest(sor_like("X", "48")));
  EXPECT_EQ(a.structure_key, b.structure_key);
  EXPECT_NE(a.exact_key, b.exact_key);
}

TEST(Canonical, DifferentDependenceStructureDiffers) {
  // Same shape, but the second reads A[i-1, j-1]: different D, different key.
  std::string other =
      "loop nestX { for iX = 1 to 24 for jX = 1 to 24 "
      "AX[iX, jX] = (AX[iX-1, jX-1] + AX[iX, jX-1]) * 0.5; }";
  CanonicalForm a = canonicalize_nest(parse_loop_nest(sor_like("X", "24")));
  CanonicalForm b = canonicalize_nest(parse_loop_nest(other));
  EXPECT_NE(a.structure_key, b.structure_key);
}

TEST(Canonical, BoundConstantEqualityPatternIsStructural) {
  // 1..N, 1..N (one repeated symbol) vs 1..N, 1..M (two distinct symbols):
  // the equality classes differ, so the *structure* keys differ.
  std::string square =
      "loop s { for i = 1 to 24 for j = 1 to 24 A[i, j] = A[i-1, j] + A[i, j-1]; }";
  std::string rect =
      "loop s { for i = 1 to 24 for j = 1 to 48 A[i, j] = A[i-1, j] + A[i, j-1]; }";
  CanonicalForm a = canonicalize_nest(parse_loop_nest(square));
  CanonicalForm b = canonicalize_nest(parse_loop_nest(rect));
  EXPECT_NE(a.structure_key, b.structure_key);
}

TEST(Canonical, EmbedsLatticeInvariants) {
  CanonicalForm a = canonicalize_nest(parse_loop_nest(sor_like("X", "24")));
  EXPECT_EQ(a.lattice_rank, 2u);
  ASSERT_EQ(a.smith_divisors.size(), 2u);
  EXPECT_EQ(a.smith_divisors[0], 1);
  EXPECT_NE(a.structure_key.find(";H="), std::string::npos);
  EXPECT_NE(a.structure_key.find(";S="), std::string::npos);
}

// ---- plan cache -----------------------------------------------------------

TEST(PlanCache, LruEvictionCountsAndCaps) {
  obs::MetricsRegistry metrics;
  PlanCache cache(/*doc_capacity=*/2, /*skeleton_capacity=*/2, &metrics);
  cache.insert_document("a", {});
  cache.insert_document("b", {});
  EXPECT_NE(cache.find_document("a"), nullptr);  // refresh: b is now LRU
  cache.insert_document("c", {});                // evicts b
  EXPECT_EQ(cache.find_document("b"), nullptr);
  EXPECT_NE(cache.find_document("a"), nullptr);
  EXPECT_NE(cache.find_document("c"), nullptr);
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.documents, 2u);
  EXPECT_EQ(s.doc_evictions, 1);
  obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.cache.doc_evictions"), 1);
}

TEST(PlanCache, SkeletonTierIsIndependent) {
  PlanCache cache(2, 1, nullptr);
  cache.insert_pi("s1", IntVec{1, 1});
  cache.insert_pi("s2", IntVec{2, 1});  // evicts s1 (capacity 1)
  EXPECT_FALSE(cache.find_pi("s1").has_value());
  ASSERT_TRUE(cache.find_pi("s2").has_value());
  EXPECT_EQ(*cache.find_pi("s2"), (IntVec{2, 1}));
  EXPECT_EQ(cache.stats().pi_evictions, 1);
}

// ---- sharded cache --------------------------------------------------------

TEST(PlanCache, ShardClampKeepsTinyCachesExact) {
  // Capacity 1 and 2 collapse to a single shard (the classic global LRU the
  // eviction tests above pin); default capacities stripe out fully.
  PlanCache tiny(2, 1, nullptr);
  EXPECT_EQ(tiny.doc_shard_count(), 1u);
  EXPECT_EQ(tiny.pi_shard_count(), 1u);
  PlanCache full;
  EXPECT_EQ(full.doc_shard_count(), PlanCache::kDefaultShards);
  EXPECT_EQ(full.pi_shard_count(), PlanCache::kDefaultShards);
  // 20 slots over a requested 8 stripes: clamped so every shard owns at
  // least kMinShardCapacity slots.
  PlanCache mid(20, 20, nullptr);
  EXPECT_EQ(mid.doc_shard_count(), 2u);
}

TEST(PlanCache, ShardCapacitiesSumToTierCapacityAndLruIsPerShard) {
  PlanCache cache(/*doc_capacity=*/64, /*skeleton_capacity=*/64, nullptr);
  ASSERT_EQ(cache.doc_shard_count(), 8u);

  // Find 9 keys that land on the same document shard; with 64 slots over 8
  // stripes each shard holds exactly 8, so the 9th insert evicts that
  // shard's LRU entry while every other shard keeps its entries.
  const std::size_t target = cache.doc_shard_index("probe");
  std::vector<std::string> same_shard;
  std::vector<std::string> other_shard;
  for (int i = 0; same_shard.size() < 9 || other_shard.empty(); ++i) {
    std::string key = "k" + std::to_string(i);
    if (cache.doc_shard_index(key) == target) same_shard.push_back(key);
    else if (other_shard.empty()) other_shard.push_back(key);
  }
  cache.insert_document(other_shard[0], {});
  for (std::size_t i = 0; i < 8; ++i) cache.insert_document(same_shard[i], {});
  EXPECT_EQ(cache.stats().doc_evictions, 0);
  cache.insert_document(same_shard[8], {});  // 9th key in one stripe
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.doc_evictions, 1);
  // The evicted entry is the target shard's LRU, not the globally oldest
  // insert (which lives untouched on another shard).
  EXPECT_EQ(cache.find_document(same_shard[0]), nullptr);
  EXPECT_NE(cache.find_document(other_shard[0]), nullptr);
  // The eviction is attributed to the stripe it happened on.
  EXPECT_EQ(cache.doc_shard_stats(target).doc_evictions, 1);
}

TEST(PlanCache, ConcurrentHammerCountersSumAcrossShards) {
  obs::MetricsRegistry metrics;
  PlanCache cache(/*doc_capacity=*/64, /*skeleton_capacity=*/64, &metrics);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  constexpr int kKeys = 96;  // more keys than capacity => steady eviction

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(1234 + t));
      std::uniform_int_distribution<int> key_of(0, kKeys - 1);
      std::uniform_int_distribution<int> action(0, 3);
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "key" + std::to_string(key_of(rng));
        switch (action(rng)) {
          case 0: cache.insert_document(key, {}); break;
          case 1: (void)cache.find_document(key); break;
          case 2: cache.insert_pi(key, IntVec{1, 1}); break;
          default: (void)cache.find_pi(key); break;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Per-shard counters and live-entry counts roll up exactly to stats().
  PlanCacheStats total = cache.stats();
  PlanCacheStats sum;
  for (std::size_t i = 0; i < cache.doc_shard_count(); ++i) {
    PlanCacheStats s = cache.doc_shard_stats(i);
    sum.documents += s.documents;
    sum.doc_hits += s.doc_hits;
    sum.doc_misses += s.doc_misses;
    sum.doc_evictions += s.doc_evictions;
  }
  for (std::size_t i = 0; i < cache.pi_shard_count(); ++i) {
    PlanCacheStats s = cache.pi_shard_stats(i);
    sum.skeletons += s.skeletons;
    sum.pi_hits += s.pi_hits;
    sum.pi_evictions += s.pi_evictions;
  }
  EXPECT_EQ(sum.documents, total.documents);
  EXPECT_EQ(sum.skeletons, total.skeletons);
  EXPECT_EQ(sum.doc_hits, total.doc_hits);
  EXPECT_EQ(sum.doc_misses, total.doc_misses);
  EXPECT_EQ(sum.pi_hits, total.pi_hits);
  EXPECT_EQ(sum.doc_evictions, total.doc_evictions);
  EXPECT_EQ(sum.pi_evictions, total.pi_evictions);
  // Capacity is never exceeded, and every find was either a hit or a miss.
  EXPECT_LE(total.documents, cache.doc_capacity());
  EXPECT_LE(total.skeletons, cache.skeleton_capacity());
  EXPECT_GT(total.doc_hits + total.doc_misses, 0);
  // Eviction counters also reached the metrics registry.
  obs::MetricsSnapshot snap = metrics.snapshot();
  if (total.doc_evictions > 0) {
    EXPECT_EQ(snap.counters.at("serve.cache.doc_evictions"), total.doc_evictions);
  }
}

// ---- service --------------------------------------------------------------

std::string plan_request(const std::string& op, const std::string& program,
                         const std::string& id = "\"r1\"") {
  return "{\"id\":" + id + ",\"op\":\"" + op + "\",\"program\":" + JsonWriter::escape(program) +
         ",\"params\":{\"dim\":2}}";
}

TEST(PlanService, MissThenExactHitOnRenamedNest) {
  obs::MetricsRegistry metrics;
  ServiceOptions opts;
  opts.obs.metrics = &metrics;
  PlanService service(opts);

  JsonValue first = parse_json(service.handle_line(plan_request("partition", sor_like("X", "24"))));
  ASSERT_TRUE(first.get("ok").as_bool()) << first.to_json();
  EXPECT_EQ(first.get("cache").as_string(), "miss");
  EXPECT_EQ(first.get("result").get("loop").as_string(), "nestX");

  JsonValue second =
      parse_json(service.handle_line(plan_request("partition", sor_like("Y", "24"))));
  ASSERT_TRUE(second.get("ok").as_bool()) << second.to_json();
  EXPECT_EQ(second.get("cache").as_string(), "hit");
  // The replayed plan carries the requester's names...
  EXPECT_EQ(second.get("result").get("loop").as_string(), "nestY");
  for (const JsonValue& dep : second.get("result").get("dependences").as_array())
    EXPECT_EQ(dep.get("array").as_string(), "AY");
  // ...and is otherwise byte-identical to the cold result up to names.
  EXPECT_EQ(first.get("canonical").get("exact").as_string(),
            second.get("canonical").get("exact").as_string());
  EXPECT_EQ(first.get("result").get("partition").to_json(),
            second.get("result").get("partition").to_json());

  obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.cache.miss"), 1);
  EXPECT_EQ(snap.counters.at("serve.cache.hit"), 1);
  EXPECT_EQ(snap.counters.at("serve.requests"), 2);
}

TEST(PlanService, RescaledNestTakesPiPath) {
  obs::MetricsRegistry metrics;
  ServiceOptions opts;
  opts.obs.metrics = &metrics;
  PlanService service(opts);

  JsonValue cold = parse_json(service.handle_line(plan_request("predict", sor_like("X", "24"))));
  ASSERT_TRUE(cold.get("ok").as_bool());
  JsonValue scaled = parse_json(service.handle_line(plan_request("predict", sor_like("X", "48"))));
  ASSERT_TRUE(scaled.get("ok").as_bool());
  EXPECT_EQ(scaled.get("cache").as_string(), "pi");
  // Same structure hash, different exact hash, same reused Π.
  EXPECT_EQ(cold.get("canonical").get("structure").as_string(),
            scaled.get("canonical").get("structure").as_string());
  EXPECT_NE(cold.get("canonical").get("exact").as_string(),
            scaled.get("canonical").get("exact").as_string());
  EXPECT_EQ(cold.get("result").get("time_function").to_json(),
            scaled.get("result").get("time_function").to_json());
  EXPECT_EQ(metrics.snapshot().counters.at("serve.cache.pi"), 1);
}

TEST(PlanService, ParamsChangeSplitsDocumentCache) {
  PlanService service;
  std::string program = sor_like("X", "24");
  ASSERT_EQ(parse_json(service.handle_line(plan_request("predict", program)))
                .get("cache")
                .as_string(),
            "miss");
  // Different accounting => different resolved params => no document hit
  // (the Π skeleton still applies).
  std::string req = "{\"op\":\"predict\",\"program\":" + JsonWriter::escape(program) +
                    ",\"params\":{\"dim\":2,\"accounting\":\"barrier\"}}";
  EXPECT_EQ(parse_json(service.handle_line(req)).get("cache").as_string(), "pi");
}

// The `result` object of a reply line: its last member, up to the closing
// brace of the reply.
std::string result_bytes(const std::string& reply) {
  const std::size_t at = reply.find("\"result\":");
  if (at == std::string::npos || reply.empty() || reply.back() != '}') return "";
  const std::size_t begin = at + std::string("\"result\":").size();
  return reply.substr(begin, reply.size() - 1 - begin);
}

TEST(PlanService, OpsSliceTheSharedDocument) {
  // Four requesters with four namings of one nest: one plan, three hits.
  const std::vector<std::pair<std::string, std::string>> requests = {
      {"partition", "X"}, {"map", "Y"}, {"predict", "Z"}, {"explain", "W"}};
  // The slice contract of docs/serve.md, written out.
  const std::map<std::string, std::set<std::string>> kKeys = {
      {"partition",
       {"dependences", "depth", "iterations", "loop", "partition", "space_mode", "steps",
        "time_function", "validation"}},
      {"map", {"depth", "loop", "mapping", "partition", "space_mode", "time_function"}},
      {"predict",
       {"depth", "iterations", "loop", "simulation", "space_mode", "steps", "time_function"}},
      {"explain",
       {"dependences", "depth", "iterations", "loop", "mapping", "partition", "simulation",
        "space_mode", "steps", "time_function", "validation"}},
  };

  // explain alone adds the audit keys; params is the resolved
  // configuration, with every default spelled out.
  const std::set<std::string> kCanonical = {"exact", "structure"};
  const std::set<std::string> kExplainCanonical = {"exact", "exact_key", "params", "structure",
                                                   "structure_key"};
  JsonValue resolved;
  resolved.set("accounting", JsonValue::make_string("paper"));
  resolved.set("dim", JsonValue::make_int(2));
  resolved.set("space", JsonValue::make_string("symbolic"));
  resolved.set("tcalc", JsonValue::make_double(1.0));
  resolved.set("tcomm", JsonValue::make_double(5.0));
  resolved.set("tstart", JsonValue::make_double(50.0));
  resolved.set("weighted", JsonValue::make_bool(false));

  PlanService service;
  for (const auto& [op, tag] : requests) {
    const std::string program = sor_like(tag, "16");
    const std::string line = service.handle_line(plan_request(op, program));
    JsonValue reply = parse_json(line);
    ASSERT_TRUE(reply.get("ok").as_bool()) << line;
    EXPECT_EQ(reply.get("cache").as_string(), op == "partition" ? "miss" : "hit") << op;

    const JsonValue& canonical = reply.get("canonical");
    std::set<std::string> canonical_keys;
    for (const auto& [key, value] : canonical.as_object()) canonical_keys.insert(key);
    EXPECT_EQ(canonical_keys, op == "explain" ? kExplainCanonical : kCanonical) << op;
    if (op == "explain") {
      const CanonicalForm cf = canonicalize_nest(parse_loop_nest(program));
      EXPECT_EQ(canonical.get("exact_key").as_string(), cf.exact_key);
      EXPECT_EQ(canonical.get("structure_key").as_string(), cf.structure_key);
      EXPECT_EQ(canonical.get("params").to_json(), resolved.to_json());
    }

    // The result's bytes are exactly what JsonValue serializes.
    const std::string bytes = result_bytes(line);
    EXPECT_EQ(parse_json(bytes).to_json(), bytes) << op;

    // Exactly the op's key set, each member equal to the requester's own
    // pipeline document.
    const JsonValue& result = reply.get("result");
    std::set<std::string> keys;
    for (const auto& [key, value] : result.as_object()) keys.insert(key);
    EXPECT_EQ(keys, kKeys.at(op)) << op;
    LoopNest nest = parse_loop_nest(program);
    PipelineConfig config;
    config.cube_dim = 2;
    config.space_mode = SpaceMode::Symbolic;
    JsonValue doc = parse_json(pipeline_result_to_json(nest, run_pipeline(nest, config)));
    for (const auto& [key, value] : result.as_object())
      EXPECT_EQ(value.to_json(), doc.get(key).to_json()) << op << "." << key;
  }
}

TEST(PlanService, ErrorMappingMatchesTypedHierarchy) {
  obs::MetricsRegistry metrics;
  ServiceOptions opts;
  opts.obs.metrics = &metrics;
  PlanService service(opts);

  // Malformed JSON -> parse/65, id null (it was unreadable).
  JsonValue r = parse_json(service.handle_line("{nope"));
  EXPECT_FALSE(r.get("ok").as_bool());
  EXPECT_EQ(r.get("error").get("kind").as_string(), "parse");
  EXPECT_EQ(r.get("error").get("code").as_int64(), 65);
  EXPECT_TRUE(r.get("id").is_null());

  // Trailing bytes violate NDJSON framing -> parse/65.
  r = parse_json(service.handle_line("{\"op\":\"ping\"} {\"op\":\"ping\"}"));
  EXPECT_EQ(r.get("error").get("code").as_int64(), 65);

  // Unknown op -> config/78, id echoed verbatim.
  r = parse_json(service.handle_line("{\"id\":7,\"op\":\"frobnicate\"}"));
  EXPECT_EQ(r.get("error").get("kind").as_string(), "config");
  EXPECT_EQ(r.get("error").get("code").as_int64(), 78);
  EXPECT_EQ(r.get("id").as_int64(), 7);

  // Missing program -> config/78.
  r = parse_json(service.handle_line("{\"op\":\"partition\"}"));
  EXPECT_EQ(r.get("error").get("code").as_int64(), 78);

  // Unknown params member -> config/78 (strict params validation).
  r = parse_json(service.handle_line(
      "{\"op\":\"partition\",\"program\":\"x\",\"params\":{\"dimension\":2}}"));
  EXPECT_EQ(r.get("error").get("code").as_int64(), 78);

  // Unparsable program -> parse/65 (frontend ParseError).
  r = parse_json(service.handle_line("{\"op\":\"partition\",\"program\":\"loop x {\"}"));
  EXPECT_EQ(r.get("error").get("kind").as_string(), "parse");
  EXPECT_EQ(r.get("error").get("code").as_int64(), 65);

  EXPECT_EQ(metrics.snapshot().counters.at("serve.errors"), 6);
}

TEST(PlanService, NonStringOpIsATypedConfigError) {
  obs::MetricsRegistry metrics;
  ServiceOptions opts;
  opts.obs.metrics = &metrics;
  PlanService service(opts);

  // A single request: not a missing op, a wrongly typed one.
  JsonValue r = parse_json(service.handle_line("{\"id\":1,\"op\":7}"));
  EXPECT_FALSE(r.get("ok").as_bool());
  EXPECT_EQ(r.get("error").get("kind").as_string(), "config");
  EXPECT_EQ(r.get("error").get("code").as_int64(), 78);
  EXPECT_EQ(r.get("error").get("message").as_string(), "\"op\" must be a string");
  EXPECT_EQ(r.get("id").as_int64(), 1);

  // A batch item the same way, while its sibling still plans.
  r = parse_json(service.handle_line(
      "{\"id\":\"b\",\"op\":\"batch\",\"requests\":[{\"id\":2,\"op\":[\"map\"]}," +
      plan_request("partition", sor_like("X", "8"), "3") + "]}"));
  ASSERT_TRUE(r.get("ok").as_bool()) << r.to_json();
  const auto& replies = r.get("replies").as_array();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].get("error").get("code").as_int64(), 78);
  EXPECT_EQ(replies[0].get("error").get("message").as_string(), "\"op\" must be a string");
  EXPECT_EQ(replies[0].get("id").as_int64(), 2);
  EXPECT_TRUE(replies[1].get("ok").as_bool());

  // An absent op is still reported as missing.
  r = parse_json(service.handle_line("{\"id\":4}"));
  EXPECT_EQ(r.get("error").get("message").as_string(), "missing \"op\" member");
  EXPECT_EQ(metrics.snapshot().counters.at("serve.errors"), 3);
}

TEST(PlanService, InvalidUtf8IsAParseErrorWithAValidJsonReply) {
  // The id is unreadable, so it is not echoed: the reply stays valid JSON.
  PlanService service;
  const std::string reply = service.handle_line("{\"id\":\"\xff\xfe\",\"op\":\"ping\"}");
  JsonValue r = parse_json(reply);
  EXPECT_FALSE(r.get("ok").as_bool());
  EXPECT_EQ(r.get("error").get("kind").as_string(), "parse");
  EXPECT_EQ(r.get("error").get("code").as_int64(), 65);
  EXPECT_TRUE(r.get("id").is_null());
  EXPECT_EQ(reply.find('\xff'), std::string::npos);
}

TEST(PlanService, EveryParamsMemberRejectsEveryWrongJsonKind) {
  // The eight members of docs/serve.md's params table, each with the JSON
  // kinds it accepts; every other kind is config/78 with the shared
  // "params.<name> must be ..." message, and the service keeps answering.
  const std::map<std::string, std::set<std::string>> kAccepts = {
      {"dim", {"int"}},
      {"space", {"string"}},
      {"accounting", {"string"}},
      {"weighted", {"bool"}},
      {"tcalc", {"int", "double"}},
      {"tstart", {"int", "double"}},
      {"tcomm", {"int", "double"}},
      {"pi", {"array"}},
  };
  const std::map<std::string, std::string> kKinds = {
      {"null", "null"},     {"bool", "true"},  {"int", "1"},     {"double", "1.5"},
      {"string", "\"x\""}, {"array", "[1]"}, {"object", "{}"},
  };
  obs::MetricsRegistry metrics;
  ServiceOptions opts;
  opts.obs.metrics = &metrics;
  PlanService service(opts);
  const std::string program = JsonWriter::escape(sor_like("X", "8"));
  int errors = 0;
  for (const auto& [member, accepted] : kAccepts) {
    for (const auto& [kind, literal] : kKinds) {
      if (accepted.count(kind) != 0) continue;
      JsonValue r = parse_json(service.handle_line("{\"op\":\"predict\",\"program\":" + program +
                                                   ",\"params\":{\"" + member + "\":" + literal +
                                                   "}}"));
      ++errors;
      EXPECT_FALSE(r.get("ok").as_bool()) << member << "=" << literal;
      EXPECT_EQ(r.get("error").get("kind").as_string(), "config") << member << "=" << literal;
      EXPECT_EQ(r.get("error").get("code").as_int64(), 78) << member << "=" << literal;
      const std::string message = r.get("error").get("message").as_string();
      EXPECT_EQ(message.rfind("params." + member + " must be ", 0), 0u) << message;
    }
  }
  EXPECT_EQ(metrics.snapshot().counters.at("serve.errors"), errors);
  EXPECT_TRUE(parse_json(service.handle_line("{\"op\":\"ping\"}")).get("ok").as_bool());
}

TEST(PlanService, PiOfWrongLengthIsAConfigError) {
  PlanService service;
  JsonValue r = parse_json(service.handle_line(
      "{\"op\":\"predict\",\"program\":" + JsonWriter::escape(sor_like("X", "8")) +
      ",\"params\":{\"dim\":2,\"pi\":[1,1,1]}}"));
  EXPECT_EQ(r.get("error").get("kind").as_string(), "config") << r.to_json();
  EXPECT_EQ(r.get("error").get("code").as_int64(), 78);
}

TEST(PlanService, OverflowIsAConfigErrorAsOnTheCli) {
  // A 4 x 4e18 nest leaves int64 in its closed forms.  The CLI exits 78
  // ("input too large for exact 64-bit closed forms"); the daemon replies
  // with the same classification (core/error.hpp) and keeps serving.
  PlanService service;
  const std::string program =
      "loop narrow { for i = 1 to 4 for j = 1 to 4000000000000000000 A[i, j] = A[i, j-1] + 1; }";
  JsonValue r = parse_json(service.handle_line("{\"id\":3,\"op\":\"predict\",\"program\":" +
                                               JsonWriter::escape(program) +
                                               ",\"params\":{\"space\":\"symbolic\"}}"));
  EXPECT_FALSE(r.get("ok").as_bool());
  EXPECT_EQ(r.get("error").get("kind").as_string(), "config") << r.to_json();
  EXPECT_EQ(r.get("error").get("code").as_int64(), 78);
  EXPECT_NE(r.get("error").get("message").as_string().find("overflow"), std::string::npos);
  EXPECT_EQ(r.get("id").as_int64(), 3);
  EXPECT_TRUE(parse_json(service.handle_line("{\"op\":\"ping\"}")).get("ok").as_bool());
}

TEST(PlanService, PingStatsShutdown) {
  PlanService service;
  JsonValue ping = parse_json(service.handle_line("{\"id\":\"p\",\"op\":\"ping\"}"));
  EXPECT_TRUE(ping.get("ok").as_bool());
  EXPECT_EQ(ping.get("id").as_string(), "p");

  (void)service.handle_line(plan_request("partition", sor_like("X", "16")));
  JsonValue stats = parse_json(service.handle_line("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.get("cache").get("documents").as_int64(), 1);
  EXPECT_EQ(stats.get("cache").get("skeletons").as_int64(), 1);
  EXPECT_EQ(stats.get("defaults").get("space").as_string(), "symbolic");

  EXPECT_FALSE(service.shutdown_requested());
  JsonValue bye = parse_json(service.handle_line("{\"op\":\"shutdown\"}"));
  EXPECT_TRUE(bye.get("ok").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(PlanService, DocumentEvictionUnderTinyCapacity) {
  ServiceOptions opts;
  opts.doc_cache_capacity = 1;
  PlanService service(opts);
  (void)service.handle_line(plan_request("partition", sor_like("X", "16")));
  (void)service.handle_line(plan_request("partition", sor_like("X", "20")));  // evicts 16
  JsonValue again = parse_json(service.handle_line(plan_request("partition", sor_like("X", "16"))));
  EXPECT_EQ(again.get("cache").as_string(), "pi");  // doc evicted, Π survives
  EXPECT_EQ(service.cache_stats().doc_evictions, 2);
}

TEST(PlanService, ExplainEchoesTheCanonicalKeys) {
  // The daemon's cache keys round-trip against offline canonicalization, so
  // `hypart json` output (which embeds the same keys) can pre-warm a daemon.
  PlanService service;
  std::string program = sor_like("X", "24");
  JsonValue reply = parse_json(service.handle_line(plan_request("explain", program)));
  ASSERT_TRUE(reply.get("ok").as_bool()) << reply.to_json();
  CanonicalForm cf = canonicalize_nest(parse_loop_nest(program));
  EXPECT_EQ(reply.get("canonical").get("structure_key").as_string(), cf.structure_key);
  EXPECT_EQ(reply.get("canonical").get("exact_key").as_string(), cf.exact_key);
  EXPECT_EQ(reply.get("canonical").get("structure").as_string(), cf.structure_hex());
  EXPECT_EQ(reply.get("canonical").get("exact").as_string(), cf.exact_hex());
}

// ---- batch op -------------------------------------------------------------

std::string batch_request(const std::vector<std::string>& subs, const std::string& id = "\"b1\"") {
  std::string out = "{\"id\":" + id + ",\"op\":\"batch\",\"requests\":[";
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += subs[i];
  }
  out += "]}";
  return out;
}

TEST(PlanService, BatchAnswersInRequestOrderAndDedupsWithinTheBatch) {
  obs::MetricsRegistry metrics;
  ServiceOptions opts;
  opts.obs.metrics = &metrics;
  PlanService service(opts);

  // miss, renamed duplicate of the pending miss, a rescale of the pending
  // miss (independent miss: cache probes all happen before any planning, so
  // a Π produced by this batch is not visible within it), invalid op.
  JsonValue reply = parse_json(service.handle_line(batch_request({
      plan_request("partition", sor_like("X", "24"), "1"),
      plan_request("partition", sor_like("Y", "24"), "2"),
      plan_request("predict", sor_like("X", "48"), "3"),
      "{\"id\":4,\"op\":\"ping\"}",
  })));
  ASSERT_TRUE(reply.get("ok").as_bool()) << reply.to_json();
  EXPECT_EQ(reply.get("op").as_string(), "batch");
  EXPECT_EQ(reply.get("id").as_string(), "b1");
  const auto& replies = reply.get("replies").as_array();
  ASSERT_EQ(replies.size(), 4u);

  // Replies line up with requests; ids echo through.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(replies[i].get("id").as_int64(), static_cast<std::int64_t>(i + 1));
  EXPECT_EQ(replies[0].get("cache").as_string(), "miss");
  EXPECT_EQ(replies[1].get("cache").as_string(), "hit");
  EXPECT_EQ(replies[2].get("cache").as_string(), "miss");
  EXPECT_FALSE(replies[3].get("ok").as_bool());
  EXPECT_EQ(replies[3].get("error").get("code").as_int64(), 78);

  // The duplicate replays its sibling's document under its own names, with
  // no planning time of its own.
  EXPECT_EQ(replies[0].get("result").get("loop").as_string(), "nestX");
  EXPECT_EQ(replies[1].get("result").get("loop").as_string(), "nestY");
  EXPECT_EQ(replies[1].get("plan_us").as_int64(), 0);
  EXPECT_EQ(replies[0].get("result").get("partition").to_json(),
            replies[1].get("result").get("partition").to_json());

  // Everything the batch planned is visible to the next request: a further
  // rescale now reuses the Π skeleton the first batch inserted.
  JsonValue next = parse_json(
      service.handle_line(batch_request({plan_request("predict", sor_like("X", "96"), "5")})));
  EXPECT_EQ(next.get("replies").as_array().at(0).get("cache").as_string(), "pi");

  // Two request lines; per-op and disposition counters count sub-requests.
  obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.requests"), 2);
  EXPECT_EQ(snap.counters.at("serve.requests.batch"), 2);
  EXPECT_EQ(snap.counters.at("serve.requests.partition"), 2);
  EXPECT_EQ(snap.counters.at("serve.requests.predict"), 2);
  EXPECT_EQ(snap.counters.at("serve.cache.miss"), 2);
  EXPECT_EQ(snap.counters.at("serve.cache.hit"), 1);
  EXPECT_EQ(snap.counters.at("serve.cache.pi"), 1);
  EXPECT_EQ(snap.counters.at("serve.errors"), 1);
}

TEST(PlanService, BatchSubRepliesMatchSingleRequestReplies) {
  // Everything except plan_us is byte-identical between a batch sub-reply
  // and the same request served alone on an identically primed service.
  PlanService alone;
  PlanService batched;
  std::string prime = plan_request("partition", sor_like("X", "24"), "\"p\"");
  (void)alone.handle_line(prime);
  (void)batched.handle_line(prime);

  std::string renamed = plan_request("map", sor_like("Y", "24"), "\"q\"");
  JsonValue single = parse_json(alone.handle_line(renamed));
  JsonValue batch = parse_json(batched.handle_line(batch_request({renamed})));
  JsonValue sub = batch.get("replies").as_array().at(0);
  for (const char* key : {"cache", "canonical", "id", "ok", "op", "result"})
    EXPECT_EQ(single.get(key).to_json(), sub.get(key).to_json()) << key;
}

// ---- cold-plan replay oracle ----------------------------------------------

// A three-array LU update sweep with every array name a parameter.
std::string lu_like(const std::string& l, const std::string& u, const std::string& a) {
  return "loop lu { for k = 0 to 8 for i = k + 1 to 8 for j = k + 1 to 8 " + l + "[k, i, j] = " +
         l + "[k, i, j-1]; " + u + "[k, i, j] = " + u + "[k, i-1, j]; " + a + "[k, i, j] = " + a +
         "[k-1, i, j] - " + l + "[k, i, j] * " + u + "[k, i, j]; }";
}

std::string space_request(const std::string& op, const std::string& program,
                          const std::string& space, const std::string& id) {
  return "{\"id\":" + id + ",\"op\":\"" + op + "\",\"program\":" + JsonWriter::escape(program) +
         ",\"params\":{\"dim\":2,\"space\":\"" + space + "\"}}";
}

// A reply line without the two members that legitimately differ between a
// cache hit and a cold plan: "cache" and "plan_us".
std::string strip_disposition(const std::string& reply) {
  static const std::regex kVolatile("\"cache\":\"(hit|pi|miss)\",|\"plan_us\":[0-9]+,");
  return std::regex_replace(reply, kVolatile, "");
}

TEST(PlanService, RenamedHitMatchesAColdPlanOfTheRequester) {
  // The hit is replayed from the producer's cached plan; the reference is
  // the requester's request planned from scratch on a fresh service.  Byte
  // equality checks the cached plan itself, not just the name splice.  The
  // LU renaming keeps the arrays' name-sorted order, so the exact key (and
  // with it the cache entry) is shared.
  const std::vector<std::pair<std::string, std::string>> nests = {
      {sor_like("X", "24"), sor_like("Y", "24")},
      {lu_like("Lp", "Up", "A"), lu_like("Mp", "Vp", "B")},
  };
  for (const auto& [producer, requester] : nests)
    for (const char* space : {"dense", "symbolic"})
      for (const char* op : {"partition", "map", "predict", "explain"}) {
        SCOPED_TRACE(std::string(op) + " " + space + ": " + requester);
        PlanService warm;
        (void)warm.handle_line(space_request(op, producer, space, "1"));
        const std::string hit = warm.handle_line(space_request(op, requester, space, "2"));
        ASSERT_NE(hit.find("\"cache\":\"hit\""), std::string::npos) << hit;
        PlanService fresh;
        const std::string cold = fresh.handle_line(space_request(op, requester, space, "2"));
        ASSERT_NE(cold.find("\"cache\":\"miss\""), std::string::npos) << cold;
        EXPECT_EQ(strip_disposition(hit), strip_disposition(cold));
        if (std::string(op) == "explain") {
          // ...and both carry the requester's own pipeline document.
          LoopNest nest = parse_loop_nest(requester);
          PipelineConfig config;
          config.cube_dim = 2;
          config.space_mode = std::string(space) == "dense" ? SpaceMode::Dense : SpaceMode::Symbolic;
          EXPECT_EQ(result_bytes(hit),
                    parse_json(pipeline_result_to_json(nest, run_pipeline(nest, config))).to_json());
        }

        // A batch whose second sub-request is a renamed duplicate of the
        // first replays it the same way.
        PlanService batched;
        const std::string batch =
            batched.handle_line(batch_request({space_request(op, producer, space, "1"),
                                               space_request(op, requester, space, "2")}));
        PlanService fresh_producer;
        const std::string cold_producer =
            fresh_producer.handle_line(space_request(op, producer, space, "1"));
        EXPECT_EQ(strip_disposition(batch),
                  "{\"id\":\"b1\",\"ok\":true,\"op\":\"batch\",\"replies\":[" +
                      strip_disposition(cold_producer) + "," + strip_disposition(cold) + "]}");
      }
}

TEST(PlanService, BatchValidation) {
  ServiceOptions opts;
  opts.max_batch = 2;
  PlanService service(opts);

  // requests must be a non-empty array...
  JsonValue r = parse_json(service.handle_line("{\"op\":\"batch\",\"requests\":7}"));
  EXPECT_FALSE(r.get("ok").as_bool());
  EXPECT_EQ(r.get("error").get("code").as_int64(), 78);
  r = parse_json(service.handle_line("{\"op\":\"batch\",\"requests\":[]}"));
  EXPECT_EQ(r.get("error").get("code").as_int64(), 78);

  // ...no larger than max_batch (whole-batch rejection)...
  std::string sub = plan_request("partition", sor_like("X", "16"));
  r = parse_json(service.handle_line(batch_request({sub, sub, sub})));
  EXPECT_FALSE(r.get("ok").as_bool());
  EXPECT_EQ(r.get("error").get("code").as_int64(), 78);

  // ...and nesting is rejected per sub-request while siblings still plan.
  r = parse_json(service.handle_line(batch_request({batch_request({sub}), sub})));
  ASSERT_TRUE(r.get("ok").as_bool()) << r.to_json();
  const auto& replies = r.get("replies").as_array();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_FALSE(replies[0].get("ok").as_bool());
  EXPECT_EQ(replies[0].get("error").get("code").as_int64(), 78);
  EXPECT_TRUE(replies[1].get("ok").as_bool());
}

TEST(PlanService, BatchFansColdMissesAcrossThreads) {
  // Structurally distinct nests in one batch: every one is a genuine miss
  // planned in the parallel pass; dispositions and counters stay
  // deterministic regardless of worker scheduling.
  obs::MetricsRegistry metrics;
  ServiceOptions opts;
  opts.obs.metrics = &metrics;
  opts.batch_parallelism = 4;
  PlanService service(opts);

  std::vector<std::string> subs;
  std::vector<std::string> programs = {
      sor_like("X", "16"),
      "loop a { for i = 1 to 20 for j = 1 to 20 B[i, j] = B[i-1, j-1] + B[i, j-1]; }",
      "loop b { for i = 1 to 12 for j = 1 to 12 for k = 1 to 12 "
      "C[i, j, k] = C[i-1, j, k] + C[i, j-1, k] + C[i, j, k-1]; }",
  };
  for (std::size_t i = 0; i < programs.size(); ++i)
    subs.push_back(plan_request("partition", programs[i], std::to_string(i)));
  JsonValue reply = parse_json(service.handle_line(batch_request(subs)));
  ASSERT_TRUE(reply.get("ok").as_bool()) << reply.to_json();
  const auto& replies = reply.get("replies").as_array();
  ASSERT_EQ(replies.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(replies[i].get("ok").as_bool()) << replies[i].to_json();
    EXPECT_EQ(replies[i].get("id").as_int64(), static_cast<std::int64_t>(i));
    EXPECT_EQ(replies[i].get("cache").as_string(), "miss");
  }
  EXPECT_EQ(metrics.snapshot().counters.at("serve.cache.miss"), 3);
  EXPECT_EQ(service.cache_stats().documents, 3u);
}

// ---- socket server --------------------------------------------------------

int connect_unix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return -1;
  return fd;
}

std::string roundtrip(int fd, const std::string& request) {
  std::string line = request + "\n";
  if (!write_full(fd, line.data(), line.size())) return "";
  std::string buffer;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return "";
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) return buffer.substr(0, nl);
  }
}

std::string test_socket_path(const char* name) {
  std::string dir = ::getenv("TMPDIR") != nullptr ? ::getenv("TMPDIR") : "/tmp";
  return dir + "/hypart_test_" + name + "_" + std::to_string(::getpid()) + ".sock";
}

TEST(Server, ConcurrentClientsOverUnixSocket) {
  PlanService service;
  ServerOptions sopts;
  sopts.unix_path = test_socket_path("conc");
  sopts.threads = 4;
  Server server(service, sopts);
  server.start();

  constexpr int kClients = 6;
  constexpr int kPerClient = 4;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int fd = connect_unix(sopts.unix_path);
      ASSERT_GE(fd, 0);
      for (int k = 0; k < kPerClient; ++k) {
        std::string tag = "c" + std::to_string(c);
        std::string reply = roundtrip(fd, plan_request("partition", sor_like(tag, "16")));
        JsonValue v = parse_json(reply);
        if (v.get("ok").as_bool()) ++ok_count;
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  // All clients planned the same structure: exactly one miss ever.
  PlanCacheStats s = service.cache_stats();
  EXPECT_GE(s.doc_hits, 1);
  EXPECT_EQ(s.documents, 1u);
  server.request_stop();
  server.stop();
}

TEST(Server, MalformedLinesGetErrorRepliesAndConnectionSurvives) {
  PlanService service;
  ServerOptions sopts;
  sopts.unix_path = test_socket_path("mal");
  Server server(service, sopts);
  server.start();

  int fd = connect_unix(sopts.unix_path);
  ASSERT_GE(fd, 0);
  JsonValue bad = parse_json(roundtrip(fd, "this is not json"));
  EXPECT_FALSE(bad.get("ok").as_bool());
  EXPECT_EQ(bad.get("error").get("code").as_int64(), 65);
  // The same connection still serves good requests afterwards.
  JsonValue good = parse_json(roundtrip(fd, "{\"op\":\"ping\"}"));
  EXPECT_TRUE(good.get("ok").as_bool());
  ::close(fd);
  server.request_stop();
  server.stop();
}

TEST(Server, OverlongLineGetsOneReplyThenFramingResumes) {
  obs::MetricsRegistry metrics;
  ServiceOptions vopts;
  vopts.obs.metrics = &metrics;
  PlanService service(vopts);
  ServerOptions sopts;
  sopts.unix_path = test_socket_path("long");
  Server server(service, sopts);  // max_line_bytes = 1 MiB
  server.start();

  int fd = connect_unix(sopts.unix_path);
  ASSERT_GE(fd, 0);
  // A 3 MiB line, then a ping on the same connection.
  std::string payload(3u << 20, 'x');
  payload += "\n{\"op\":\"ping\"}\n";
  std::thread writer([&] { (void)write_full(fd, payload.data(), payload.size()); });
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[4096];
  while (lines.size() < 2) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = buffer.find('\n')) != std::string::npos; buffer.erase(0, nl + 1))
      lines.push_back(buffer.substr(0, nl));
  }
  writer.join();
  ASSERT_EQ(lines.size(), 2u);
  JsonValue error = parse_json(lines[0]);
  EXPECT_FALSE(error.get("ok").as_bool());
  EXPECT_EQ(error.get("error").get("code").as_int64(), 78);
  EXPECT_EQ(error.get("error").get("message").as_string(), "request line exceeds maximum length");
  JsonValue pong = parse_json(lines[1]);
  EXPECT_TRUE(pong.get("ok").as_bool()) << lines[1];
  EXPECT_EQ(pong.get("op").as_string(), "ping");
  ::close(fd);
  server.request_stop();
  server.stop();
  EXPECT_EQ(metrics.snapshot().counters.at("serve.errors"), 1);
}

TEST(Server, ShutdownOpStopsTheServer) {
  PlanService service;
  ServerOptions sopts;
  sopts.unix_path = test_socket_path("bye");
  Server server(service, sopts);
  server.start();

  int fd = connect_unix(sopts.unix_path);
  ASSERT_GE(fd, 0);
  JsonValue bye = parse_json(roundtrip(fd, "{\"op\":\"shutdown\"}"));
  EXPECT_TRUE(bye.get("ok").as_bool());
  ::close(fd);
  server.wait();  // returns because the shutdown op triggered request_stop
  SUCCEED();
}

TEST(Server, OverloadShedsConnectionsWithTypedError) {
  obs::MetricsRegistry metrics;
  ServiceOptions vopts;
  vopts.obs.metrics = &metrics;
  PlanService service(vopts);
  ServerOptions sopts;
  sopts.unix_path = test_socket_path("ovl");
  sopts.threads = 1;
  sopts.max_pending = 1;
  Server server(service, sopts);
  server.start();

  // A claims the single worker (workers own a connection until it closes).
  int a = connect_unix(sopts.unix_path);
  ASSERT_GE(a, 0);
  EXPECT_TRUE(parse_json(roundtrip(a, "{\"op\":\"ping\"}")).get("ok").as_bool());

  // B fills the pending queue.  Give the accept thread a moment to queue it
  // before C arrives.
  int b = connect_unix(sopts.unix_path);
  ASSERT_GE(b, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // C is over the bound: the server pushes one typed error line and closes
  // without waiting for a request, so just read.
  int c = connect_unix(sopts.unix_path);
  ASSERT_GE(c, 0);
  std::string pushed;
  char ch = 0;
  while (::read(c, &ch, 1) == 1 && ch != '\n') pushed.push_back(ch);
  JsonValue shed = parse_json(pushed);
  EXPECT_FALSE(shed.get("ok").as_bool());
  EXPECT_EQ(shed.get("error").get("kind").as_string(), "overloaded");
  EXPECT_EQ(shed.get("error").get("code").as_int64(), 79);
  char extra = 0;
  EXPECT_EQ(::read(c, &extra, 1), 0);  // EOF: connection was closed
  ::close(c);

  // Once A releases the worker, the queued B is served normally.
  ::close(a);
  EXPECT_TRUE(parse_json(roundtrip(b, "{\"op\":\"ping\"}")).get("ok").as_bool());
  ::close(b);

  EXPECT_EQ(metrics.snapshot().counters.at("serve.overload.rejected"), 1);
  server.request_stop();
  server.stop();
}

TEST(Server, BatchOverUnixSocket) {
  PlanService service;
  ServerOptions sopts;
  sopts.unix_path = test_socket_path("batch");
  Server server(service, sopts);
  server.start();

  int fd = connect_unix(sopts.unix_path);
  ASSERT_GE(fd, 0);
  JsonValue reply = parse_json(roundtrip(
      fd, batch_request({plan_request("partition", sor_like("X", "16"), "1"),
                         plan_request("partition", sor_like("Y", "16"), "2")})));
  ASSERT_TRUE(reply.get("ok").as_bool()) << reply.to_json();
  const auto& replies = reply.get("replies").as_array();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].get("cache").as_string(), "miss");
  EXPECT_EQ(replies[1].get("cache").as_string(), "hit");
  ::close(fd);
  server.request_stop();
  server.stop();
}

TEST(Server, TcpEphemeralPortRoundtrip) {
  PlanService service;
  ServerOptions sopts;  // no unix_path, port 0 => ephemeral TCP
  Server server(service, sopts);
  server.start();
  ASSERT_GT(server.port(), 0);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  JsonValue pong = parse_json(roundtrip(fd, "{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.get("ok").as_bool());
  ::close(fd);
  server.request_stop();
  server.stop();
}

}  // namespace
}  // namespace hypart::serve
