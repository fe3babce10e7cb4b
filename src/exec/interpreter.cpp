#include "exec/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/error.hpp"
#include "loop/index_set.hpp"
#include "numeric/rat_matrix.hpp"

namespace hypart {

void ArrayStore::store(const std::string& array, const IntVec& element, double value) {
  arrays[array][element] = value;
}

std::optional<double> ArrayStore::load(const std::string& array, const IntVec& element) const {
  auto it = arrays.find(array);
  if (it == arrays.end()) return std::nullopt;
  auto jt = it->second.find(element);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

std::size_t ArrayStore::total_elements() const {
  std::size_t n = 0;
  for (const auto& [name, values] : arrays) n += values.size();
  return n;
}

double default_init(const std::string& array, const IntVec& element) {
  // Deterministic and distinct per array and element; small magnitudes to
  // keep floating-point comparisons stable across summation orders.
  std::size_t h = std::hash<std::string>{}(array);
  for (std::int64_t x : element)
    h ^= static_cast<std::size_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return 0.25 + static_cast<double>(h % 1024) / 4096.0;
}

namespace {

void require_executable(const LoopNest& nest) {
  for (const Statement& s : nest.statements())
    if (!s.is_executable())
      throw Error(ErrorKind::Config, "interpreter: statement '" + s.label +
                                         "' has no executable right-hand side (use "
                                         "LoopNestBuilder::assign)");
}

}  // namespace

void require_serializable_updates(const LoopNest& nest) {
  // Distributed execution relies on every element's updates forming a
  // single dependence-ordered chain.  A write access whose nullspace has
  // dimension >= 2 (e.g. y[i,j] inside a 4-deep nest) updates one element
  // from a whole sub-lattice of iterations; the hyperplane schedule then
  // runs some of those updates concurrently and the chain model would lose
  // updates.  Refuse rather than silently compute something else.
  for (const Statement& s : nest.statements()) {
    const ArrayAccess& w = s.accesses.front();
    if (w.kind != AccessKind::Write) continue;
    RatMat f = RatMat::from_int(w.access_matrix(nest.depth()));
    if (f.nullspace().size() >= 2)
      throw Error(
          ErrorKind::Config,
          "interpreter: statement '" + s.label + "' updates array '" + w.array +
          "' along a reduction lattice of dimension >= 2; the hyperplane schedule "
          "cannot serialize those updates (restructure the reduction into a chain)");
  }
}

namespace {

IntVec eval_subscripts(const std::vector<AffineExpr>& subs, const IntVec& iteration) {
  IntVec element(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) element[i] = subs[i].evaluate(iteration);
  return element;
}

/// Execute all statements of one iteration against a load/store interface.
template <typename LoadFn, typename StoreFn>
void execute_iteration(const LoopNest& nest, const IntVec& iter, LoadFn&& load, StoreFn&& store) {
  for (const Statement& s : nest.statements()) {
    double value = evaluate(s.rhs, load, iter);
    const ArrayAccess& w = s.accesses.front();  // assign() puts the write first
    store(w.array, eval_subscripts(w.subscripts, iter), value);
  }
}

}  // namespace

ArrayStore run_sequential(const LoopNest& nest, const InitFn& init) {
  require_executable(nest);
  ArrayStore store;
  IndexSet is(nest);
  auto load = [&](const std::string& array, const IntVec& element) {
    std::optional<double> v = store.load(array, element);
    return v ? *v : init(array, element);
  };
  is.for_each([&](const IntVec& iter) {
    execute_iteration(
        nest, iter, load,
        [&](const std::string& array, const IntVec& element, double value) {
          store.store(array, element, value);
        });
  });
  return store;
}

DistributedResult run_distributed(const LoopNest& nest, const ComputationStructure& q,
                                  const TimeFunction& tf, const Partition& part,
                                  const Mapping& mapping, const DependenceInfo& deps,
                                  const InitFn& init) {
  require_executable(nest);
  require_serializable_updates(nest);
  if (mapping.block_to_proc.size() != part.block_count())
    throw std::invalid_argument("run_distributed: mapping/partition size mismatch");
  const std::size_t nprocs = mapping.processor_count;
  const std::vector<std::size_t> arc_cols = q.arc_columns(deps);

  DistributedResult result;
  result.stats.per_proc_iterations.assign(nprocs, 0);

  // Processor of every vertex; iterations bucketed by hyperplane step.
  std::vector<ProcId> vproc(q.vertices().size());
  std::map<std::int64_t, std::vector<std::size_t>> by_step;
  for (std::size_t vid = 0; vid < q.vertices().size(); ++vid) {
    vproc[vid] = mapping.block_to_proc[part.block_of(vid)];
    by_step[tf.step_of(q.vertices()[vid])].push_back(vid);
  }

  // Private local stores; reads miss to host memory (halo load) and cache.
  std::vector<ArrayStore> local(nprocs);
  // Written-value merge: keep the value of the largest-step writer.
  std::unordered_map<std::string, std::unordered_map<IntVec, std::pair<std::int64_t, double>,
                                                     IntVecHash>>
      written;

  IntVec iter;  // the current vertex, copied once for the evaluators
  for (const auto& [step, vids] : by_step) {
    ++result.stats.steps;
    for (std::size_t vid : vids) {
      iter.assign(q.row(vid).begin(), q.row(vid).end());
      const ProcId p = vproc[vid];
      ++result.stats.per_proc_iterations[p];

      auto load = [&](const std::string& array, const IntVec& element) {
        std::optional<double> v = local[p].load(array, element);
        if (v) return *v;
        double h = init(array, element);
        local[p].store(array, element, h);  // now resident in local memory
        ++result.stats.halo_loads;
        return h;
      };
      execute_iteration(nest, iter, load,
                        [&](const std::string& array, const IntVec& element, double value) {
                          local[p].store(array, element, value);
                          auto& amap = written[array];
                          auto it = amap.find(element);
                          if (it == amap.end() || it->second.first <= step)
                            amap[element] = {step, value};
                        });

      // Forward values along every analyzed dependence whose sink iteration
      // lives on another processor (this is exactly the communication the
      // partitioning counts as interblock).
      for (std::size_t e = 0; e < deps.dependences.size(); ++e) {
        const Dependence& dep = deps.dependences[e];
        std::optional<std::size_t> sink = q.arc_sink(vid, arc_cols[e]);
        if (!sink) continue;
        ProcId pq = vproc[*sink];
        if (pq == p) continue;
        IntVec element = eval_subscripts(dep.source_subscripts, iter);
        std::optional<double> value = local[p].load(dep.array, element);
        if (!value) {
          // Source never touched this element locally (possible only for
          // reuse chains whose access pattern skipped it); ship host data.
          value = init(dep.array, element);
          ++result.stats.halo_loads;
        }
        local[pq].store(dep.array, element, *value);
        ++result.stats.value_messages;
      }
    }
  }

  for (const auto& [array, values] : written)
    for (const auto& [element, step_value] : values)
      result.written.store(array, element, step_value.second);
  return result;
}

EquivalenceReport compare_stores(const ArrayStore& expected, const ArrayStore& actual,
                                 double tolerance) {
  EquivalenceReport rep;
  rep.equal = true;
  for (const auto& [array, values] : expected.arrays) {
    for (const auto& [element, value] : values) {
      ++rep.compared;
      std::optional<double> got = actual.load(array, element);
      if (!got || std::abs(*got - value) > tolerance) {
        rep.equal = false;
        if (rep.first_mismatch.empty()) {
          std::ostringstream os;
          os << array << to_string(element) << ": expected " << value << ", got "
             << (got ? std::to_string(*got) : std::string("<missing>"));
          rep.first_mismatch = os.str();
        }
      }
    }
  }
  // Extra written elements in `actual` are also mismatches.
  for (const auto& [array, values] : actual.arrays) {
    auto it = expected.arrays.find(array);
    for (const auto& [element, value] : values) {
      (void)value;
      if (it == expected.arrays.end() || !it->second.contains(element)) {
        rep.equal = false;
        if (rep.first_mismatch.empty())
          rep.first_mismatch = array + to_string(element) + ": unexpected write";
      }
    }
  }
  return rep;
}

}  // namespace hypart
