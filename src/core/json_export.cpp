#include "core/json_export.hpp"

namespace hypart {

std::string pipeline_result_to_json(const LoopNest& nest, const PipelineResult& r) {
  JsonWriter w;
  auto write_intvec = [&w](const IntVec& v) {
    w.begin_array();
    for (std::int64_t x : v) w.value(x);
    w.end_array();
  };
  w.begin_object();
  w.field("loop", nest.name());
  w.field("depth", static_cast<std::uint64_t>(nest.depth()));
  w.field("space_mode", to_string(r.space_mode));
  w.field("iterations", r.iteration_count());

  w.begin_array("dependences");
  for (const Dependence& d : r.dependence.dependences) {
    w.begin_object();
    w.field("array", d.array);
    w.field("kind", to_string(d.kind));
    w.key("distance");
    write_intvec(d.distance);
    w.end_object();
  }
  w.end_array();

  w.key("time_function");
  write_intvec(r.time_function.pi);
  w.field("steps", r.sim.steps);

  const PlanView& plan = *r.plan;  // the same members whichever grouping ran
  w.key("partition").begin_object();
  w.field("projected_points", plan.line_count);
  w.field("group_size_r", plan.group_size_r);
  w.field("beta", static_cast<std::uint64_t>(plan.beta));
  w.field("blocks", plan.blocks.group_count);
  plan.write_partition_json(w);
  w.field("total_arcs", static_cast<std::uint64_t>(plan.stats.total_arcs));
  w.field("interblock_arcs", static_cast<std::uint64_t>(plan.stats.interblock_arcs));
  w.end_object();

  w.key("mapping").begin_object();
  w.field("processors", static_cast<std::uint64_t>(plan.processors));
  w.field("method", plan.method);
  plan.write_mapping_json(w);
  w.end_object();

  w.key("simulation").begin_object();
  w.field("t_calc_units", r.sim.total.calc);
  w.field("t_start_units", r.sim.total.start);
  w.field("t_comm_units", r.sim.total.comm);
  w.field("time", r.sim.time);
  w.field("messages", r.sim.messages);
  w.field("words", r.sim.words);
  w.key("faults").begin_object();
  w.field("failed_nodes", r.sim.failed_nodes);
  w.field("failed_links", r.sim.failed_links);
  w.field("rerouted_messages", r.sim.rerouted_messages);
  w.field("migrated_blocks", r.sim.migrated_blocks);
  w.field("migration_t_start_units", r.sim.migration_cost.start);
  w.field("migration_t_comm_units", r.sim.migration_cost.comm);
  w.end_object();
  w.end_object();

  w.key("validation").begin_object();
  w.field("exact_cover", r.exact_cover);
  w.field("theorem1", r.theorem1);
  w.field("theorem2", r.theorem2.holds);
  w.field("theorem2_bound", static_cast<std::uint64_t>(r.theorem2.bound));
  w.field("theorem2_max_out_degree", static_cast<std::uint64_t>(r.theorem2.max_out_degree));
  w.field("lemma2", r.lemmas.lemma2_holds);
  w.field("lemma3", r.lemmas.lemma3_holds);
  w.end_object();

  if (r.metrics) w.key("metrics").raw_value(r.metrics->to_json());

  w.end_object();
  return w.str();
}

}  // namespace hypart
