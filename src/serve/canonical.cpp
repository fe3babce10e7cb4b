#include "serve/canonical.hpp"

#include <map>

namespace hypart::serve {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

/// First-occurrence interner: maps each distinct value to a small id in the
/// order it is first seen.  Used for array names and bound constants so the
/// keys depend on the *pattern* of repetitions, never on the values.
template <typename T>
class Interner {
 public:
  std::size_t id(const T& value) {
    auto [it, inserted] = ids_.try_emplace(value, order_.size());
    if (inserted) order_.push_back(value);
    return it->second;
  }
  [[nodiscard]] const std::vector<T>& order() const { return order_; }

 private:
  std::map<T, std::size_t> ids_;
  std::vector<T> order_;
};

void append_int(std::string& out, std::int64_t v) { out += std::to_string(v); }

/// Append an affine expression as "c<const>:k0,k1,.." with coefficients
/// padded to the nest depth (missing trailing coefficients are zero and
/// must not distinguish the key).
void append_affine(std::string& out, const AffineExpr& e, std::size_t depth) {
  out += 'c';
  append_int(out, e.constant);
  out += ':';
  for (std::size_t k = 0; k < depth; ++k) {
    if (k > 0) out += ',';
    append_int(out, k < e.coeffs.size() ? e.coeffs[k] : 0);
  }
}

/// Append a bound term with its constant replaced by an equality-class id.
void append_affine_interned(std::string& out, const AffineExpr& e, std::size_t depth,
                            Interner<std::int64_t>& consts) {
  out += 'C';
  append_int(out, static_cast<std::int64_t>(consts.id(e.constant)));
  out += ':';
  for (std::size_t k = 0; k < depth; ++k) {
    if (k > 0) out += ',';
    append_int(out, k < e.coeffs.size() ? e.coeffs[k] : 0);
  }
}

void append_matrix(std::string& out, const IntMat& m) {
  out += '[';
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (r > 0) out += ';';
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c > 0) out += ',';
      append_int(out, m.at(r, c));
    }
  }
  out += ']';
}

}  // namespace

std::string CanonicalForm::structure_hex() const { return hex16(structure_hash); }
std::string CanonicalForm::exact_hex() const { return hex16(exact_hash); }

CanonicalForm canonicalize_nest(const LoopNest& nest, const DependenceInfo& deps) {
  CanonicalForm cf;
  cf.loop_name = nest.name();
  const std::size_t depth = nest.depth();

  Interner<std::string> arrays;
  Interner<std::int64_t> bound_consts;

  std::string key;
  key.reserve(256);
  key += "d=";
  append_int(key, static_cast<std::int64_t>(depth));

  // Loop bounds: per dimension, lower (max-of-terms) then upper
  // (min-of-terms), coefficients verbatim, constants interned.  Term order
  // is the source order — BoundExpr construction is deterministic.
  for (const LoopDim& dim : nest.dims()) {
    key += ";b:";
    for (std::size_t t = 0; t < dim.lower.terms.size(); ++t) {
      if (t > 0) key += '|';
      append_affine_interned(key, dim.lower.terms[t], depth, bound_consts);
    }
    key += "..";
    for (std::size_t t = 0; t < dim.upper.terms.size(); ++t) {
      if (t > 0) key += '|';
      append_affine_interned(key, dim.upper.terms[t], depth, bound_consts);
    }
  }

  // Statements: flop count plus every access (kind, canonical array id,
  // subscripts verbatim).  Subscript constants are offsets — they shape the
  // dependence vectors, so they stay literal; only *bound* constants scale
  // with the domain and are abstracted.
  for (const Statement& st : nest.statements()) {
    key += ";s:f=";
    append_int(key, st.flop_count);
    for (const ArrayAccess& a : st.accesses) {
      key += a.kind == AccessKind::Write ? ";W" : ";R";
      append_int(key, static_cast<std::int64_t>(arrays.id(a.array)));
      key += '[';
      for (std::size_t s = 0; s < a.subscripts.size(); ++s) {
        if (s > 0) key += ',';
        append_affine(key, a.subscripts[s], depth);
      }
      key += ']';
    }
  }

  // The dependence set D (deterministic order), then its lattice normal
  // forms: the column Hermite form is the canonical lattice basis, the
  // Smith elementary divisors are the lattice's abelian-group invariants.
  std::vector<IntVec> distances = deps.distance_vectors();
  key += ";D=";
  for (std::size_t i = 0; i < distances.size(); ++i) {
    if (i > 0) key += '|';
    for (std::size_t k = 0; k < distances[i].size(); ++k) {
      if (k > 0) key += ',';
      append_int(key, distances[i][k]);
    }
  }
  IntMat d_matrix = deps.dependence_matrix(depth);
  HermiteResult hnf = hermite_normal_form(d_matrix);
  SmithResult snf = smith_normal_form(d_matrix);
  key += ";H=";
  append_matrix(key, hnf.h);
  key += ";S=";
  for (std::size_t i = 0; i < snf.divisors.size(); ++i) {
    if (i > 0) key += ',';
    append_int(key, snf.divisors[i]);
  }
  cf.smith_divisors = snf.divisors;
  cf.lattice_rank = hnf.rank;

  cf.structure_key = key;
  cf.structure_hash = fnv1a(cf.structure_key);

  // Exact key: the structure plus the interned bound constants' actual
  // values, in first-occurrence order (the interner's order).
  std::string exact = key;
  exact += ";consts=";
  const std::vector<std::int64_t>& cvals = bound_consts.order();
  for (std::size_t i = 0; i < cvals.size(); ++i) {
    if (i > 0) exact += ',';
    append_int(exact, cvals[i]);
  }
  cf.exact_key = std::move(exact);
  cf.exact_hash = fnv1a(cf.exact_key);

  cf.arrays = arrays.order();
  return cf;
}

CanonicalForm canonicalize_nest(const LoopNest& nest) {
  return canonicalize_nest(nest, analyze_dependences(nest));
}

void write_canonical(JsonWriter& w, const CanonicalForm& cf, const std::string* params) {
  w.begin_object();
  w.field("exact", cf.exact_hex());
  if (params != nullptr) {
    w.field("exact_key", cf.exact_key);
    w.key("params").raw_value(*params);
  }
  w.field("structure", cf.structure_hex());
  if (params != nullptr) w.field("structure_key", cf.structure_key);
  w.end_object();
}

}  // namespace hypart::serve
