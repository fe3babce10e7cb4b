#include "exec/worker_loop.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/error.hpp"

namespace hypart::exec {

namespace {

IntVec eval_subscripts(const std::vector<AffineExpr>& subs, const IntVec& iteration) {
  IntVec element(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) element[i] = subs[i].evaluate(iteration);
  return element;
}

}  // namespace

NodeProgram::NodeProgram(const char* runtime, const LoopNest& nest,
                         const ComputationStructure& q, const TimeFunction& tf,
                         const Partition& part, const Mapping& mapping,
                         const DependenceInfo& deps, const InitFn& init, bool measure_phases)
    : nest_(nest), q_(q), tf_(tf), part_(part), deps_(deps), init_(init),
      measure_(measure_phases) {
  for (const Statement& s : nest.statements())
    if (!s.is_executable())
      throw Error(ErrorKind::Config, std::string(runtime) + ": statement '" + s.label +
                                         "' has no executable right-hand side");
  require_serializable_updates(nest);
  arc_cols_ = q.arc_columns(deps);
  remap(mapping);
}

void NodeProgram::remap(const Mapping& mapping) {
  if (mapping.block_to_proc.size() != part_.block_count())
    throw std::invalid_argument("NodeProgram: mapping/partition size mismatch");
  const PointRows& verts = q_.vertices();
  Schedule& s = sched_ = Schedule{};
  s.vproc.resize(verts.size());
  s.my_order.resize(mapping.processor_count);
  std::vector<std::int64_t> vstep(verts.size());
  for (std::size_t vid = 0; vid < verts.size(); ++vid) {
    s.vproc[vid] = mapping.block_to_proc[part_.block_of(vid)];
    s.my_order[s.vproc[vid]].push_back(vid);
    const std::int64_t step = vstep[vid] = tf_.step_of(verts[vid]);
    if (vid == 0 || step < s.min_step) s.min_step = step;
    if (vid == 0 || step > s.max_step) s.max_step = step;
  }
  for (auto& order : s.my_order)
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (vstep[a] != vstep[b]) return vstep[a] < vstep[b];
      return lex_less(verts[a], verts[b]);
    });
  // A vertex awaits one message per Dependence entry whose arc into it
  // crosses processors; entries sharing a distance share an arc column.
  std::vector<std::uint32_t> entries_per_col(q_.dependences().size(), 0);
  for (std::size_t col : arc_cols_) ++entries_per_col[col];
  s.expected.assign(verts.size(), 0);
  q_.for_each_arc_id([&](std::size_t src, std::size_t dst, std::size_t k) {
    if (s.vproc[src] != s.vproc[dst]) s.expected[dst] += entries_per_col[k];
  });
}

bool NodeProgram::run(ProcId me, WorkerTransport& transport, WorkerOutcome& out) const {
  // Phase clocks cost two steady_clock reads per phase per iteration, so
  // they run only when measured.
  using phase_clock = std::chrono::steady_clock;
  auto phase_us = [](phase_clock::time_point a, phase_clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };

  ArrayStore local;
  std::unordered_map<std::size_t, std::uint32_t> received;
  std::vector<ValueMessage> inbox;
  auto load = [&](const std::string& array, const IntVec& element) {
    std::optional<double> v = local.load(array, element);
    if (v) return *v;
    double h = init_(array, element);
    local.store(array, element, h);
    ++out.halo_loads;
    return h;
  };

  IntVec iter;  // the current vertex, copied once for the evaluators
  for (std::size_t vid : sched_.my_order[me]) {
    const PointRef row = q_.row(vid);
    iter.assign(row.begin(), row.end());
    const std::int64_t step = tf_.step_of(row);
    if (!transport.before_vertex(me, vid, step)) return false;

    // Block until every remote input of this iteration has arrived.
    if (sched_.expected[vid] > 0) {
      phase_clock::time_point w0;
      if (measure_) w0 = phase_clock::now();
      while (received[vid] < sched_.expected[vid]) {
        if (!transport.receive(me, vid, sched_.expected[vid] - received[vid], inbox)) return false;
        for (ValueMessage& m : inbox) {
          local.store(m.array, m.element, m.value);
          ++received[m.sink_vid];
        }
        inbox.clear();
      }
      if (measure_) out.wait_us += phase_us(w0, phase_clock::now());
    }

    phase_clock::time_point c0;
    if (measure_) c0 = phase_clock::now();
    for (const Statement& s : nest_.statements()) {
      double value = evaluate(s.rhs, load, iter);
      const ArrayAccess& w = s.accesses.front();
      IntVec element = eval_subscripts(w.subscripts, iter);
      local.store(w.array, element, value);
      out.writes.push_back({w.array, std::move(element), step, value});
    }
    if (measure_) {
      phase_clock::time_point now = phase_clock::now();
      out.compute_us += phase_us(c0, now);
      c0 = now;  // reuse as the send-phase start
    }

    // Forward produced/consumed values along every crossing dependence.
    for (std::size_t e = 0; e < deps_.dependences.size(); ++e) {
      const Dependence& d = deps_.dependences[e];
      std::optional<std::size_t> sink = q_.arc_sink(vid, arc_cols_[e]);
      if (!sink) continue;
      ProcId target = sched_.vproc[*sink];
      if (target == me) continue;
      IntVec element = eval_subscripts(d.source_subscripts, iter);
      std::optional<double> value = local.load(d.array, element);
      if (!value) {
        value = init_(d.array, element);
        ++out.halo_loads;
      }
      ValueMessage msg{*sink, d.array, std::move(element), *value};
      if (!transport.send(me, target, msg)) return false;
      ++out.messages_sent;
    }
    if (measure_) out.send_us += phase_us(c0, phase_clock::now());
  }
  return true;
}

ArrayStore merge_writes(const std::vector<WorkerOutcome>& workers) {
  std::unordered_map<std::string,
                     std::unordered_map<IntVec, std::pair<std::int64_t, double>, IntVecHash>>
      merged;
  for (const WorkerOutcome& worker : workers) {
    for (const WriteRecord& w : worker.writes) {
      auto& amap = merged[w.array];
      auto it = amap.find(w.element);
      if (it == amap.end() || it->second.first <= w.step) amap[w.element] = {w.step, w.value};
    }
  }
  ArrayStore written;
  for (const auto& [array, values] : merged)
    for (const auto& [element, step_value] : values)
      written.store(array, element, step_value.second);
  return written;
}

}  // namespace hypart::exec
