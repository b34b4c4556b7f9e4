#include "storage/ivm.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>

#include "analytics/aggregates.h"
#include "analytics/value.h"
#include "rdf/term.h"
#include "sparql/expr_eval.h"

namespace rapida::storage {

const char* IvmClassName(IvmClass cls) {
  switch (cls) {
    case IvmClass::kNone:
      return "none";
    case IvmClass::kAppend:
      return "append";
    case IvmClass::kDistinct:
      return "distinct";
    case IvmClass::kGroupAgg:
      return "group-agg";
  }
  return "none";
}

IvmClass IvmClassFromName(const std::string& name) {
  if (name == "append") return IvmClass::kAppend;
  if (name == "distinct") return IvmClass::kDistinct;
  if (name == "group-agg") return IvmClass::kGroupAgg;
  return IvmClass::kNone;
}

namespace {

const char* AggFuncLabel(sparql::AggFunc func) {
  switch (func) {
    case sparql::AggFunc::kCount:
      return "COUNT";
    case sparql::AggFunc::kSum:
      return "SUM";
    case sparql::AggFunc::kAvg:
      return "AVG";
    case sparql::AggFunc::kMin:
      return "MIN";
    case sparql::AggFunc::kMax:
      return "MAX";
    case sparql::AggFunc::kSample:
      return "SAMPLE";
    case sparql::AggFunc::kGroupConcat:
      return "GROUP_CONCAT";
  }
  return "?";
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

IvmDecision ClassifyMaintainability(const analytics::AnalyticalQuery& query) {
  if (query.groupings.size() != 1) {
    return {IvmClass::kNone, "multi-grouping final join"};
  }
  const analytics::GroupingSubquery& g = query.groupings[0];
  if (!g.IsConjunctive()) {
    return {IvmClass::kNone, "non-conjunctive pattern (OPTIONAL/UNION)"};
  }
  if (g.pattern.stars.empty()) {
    return {IvmClass::kNone, "empty pattern"};
  }
  if (g.having) {
    return {IvmClass::kNone, "HAVING re-filters groups"};
  }
  if (!query.order_by.empty() || query.limit != -1 || query.offset > 0) {
    return {IvmClass::kNone, "ORDER/LIMIT/OFFSET over final rows"};
  }
  // The stored table must be exactly the grouping's output: any top-level
  // reshaping (expressions, reordering) would have to be replayed.
  if (query.top_items.size() != g.columns.size()) {
    return {IvmClass::kNone, "top-level projection reshapes grouping output"};
  }
  for (size_t i = 0; i < query.top_items.size(); ++i) {
    if (query.top_items[i].expr != nullptr ||
        query.top_items[i].name != g.columns[i]) {
      return {IvmClass::kNone, "top-level projection reshapes grouping output"};
    }
  }
  if (g.aggs.empty()) {
    if (!g.group_by.empty()) {
      // A zero-aggregate grouping's rows are its distinct keys (the form
      // SELECT DISTINCT desugars to), so patching is union + dedup — but
      // only if the keys are exactly the projected columns; otherwise the
      // stored rows are not the grouping output.
      for (const std::string& gv : g.group_by) {
        if (!Contains(g.columns, gv)) {
          return {IvmClass::kNone, "group key not projected"};
        }
      }
      return {IvmClass::kDistinct, "union delta rows, dedup"};
    }
    if (query.top_distinct) {
      return {IvmClass::kDistinct, "union delta rows, dedup"};
    }
    return {IvmClass::kAppend, "append delta rows"};
  }
  if (query.top_distinct) {
    return {IvmClass::kNone, "DISTINCT over aggregate rows"};
  }
  for (const ntga::AggSpec& spec : g.aggs) {
    switch (spec.func) {
      case sparql::AggFunc::kCount:
      case sparql::AggFunc::kSum:
      case sparql::AggFunc::kMin:
      case sparql::AggFunc::kMax:
        break;
      default:
        return {IvmClass::kNone,
                std::string("non-incremental aggregate ") +
                    AggFuncLabel(spec.func)};
    }
  }
  for (const std::string& gv : g.group_by) {
    if (!Contains(g.columns, gv)) {
      return {IvmClass::kNone, "group key not projected"};
    }
  }
  return {IvmClass::kGroupAgg, "merge COUNT/SUM adds, MIN/MAX compares"};
}

namespace {

using Assignment = std::unordered_map<std::string, rdf::TermId>;

/// One star triple with every constant resolved to the mutated graph's
/// dictionary ids.
struct ResolvedTriple {
  bool is_presence = false;       // type or constant-object: (s, prop, obj)
  rdf::TermId prop = rdf::kInvalidTermId;
  rdf::TermId obj = rdf::kInvalidTermId;  // presence only
  std::string var;                        // object var otherwise
};

struct ResolvedStar {
  std::string subject_var;
  std::vector<ResolvedTriple> triples;
};

enum class BindMode { kOldOnly, kNewOnly, kAny };

/// Enumerates the *delta* matches of a conjunctive star graph against the
/// post-mutation index: full assignments that use at least one delta
/// triple, each exactly once (pivot partitioning; see ivm.h).
class DeltaEnumerator {
 public:
  DeltaEnumerator(const analytics::GroupingSubquery& grouping,
                  const DeltaPartition& delta, const rdf::GraphIndex& index,
                  const rdf::Dictionary& dict)
      : g_(grouping), delta_(delta), index_(index), dict_(dict) {}

  /// False when some constant of the pattern is not even in the
  /// dictionary — then the pattern has no matches at all, delta included.
  bool Resolve() {
    type_id_ = index_.graph().TypeIdOrInvalid();
    for (const ntga::StarPattern& sp : g_.pattern.stars) {
      ResolvedStar star;
      star.subject_var = sp.subject_var;
      for (const ntga::StarTriple& st : sp.triples) {
        ResolvedTriple t;
        if (st.prop.is_type()) {
          t.is_presence = true;
          t.prop = type_id_;
          t.obj = dict_.Lookup(rdf::Term::Iri(st.prop.type_object));
        } else {
          t.prop = dict_.LookupIri(st.prop.property);
          if (st.object.is_var) {
            t.var = st.object.var;
          } else {
            t.is_presence = true;
            t.obj = dict_.Lookup(st.object.term);
          }
        }
        if (t.prop == rdf::kInvalidTermId ||
            (t.is_presence && t.obj == rdf::kInvalidTermId)) {
          return false;
        }
        star.triples.push_back(std::move(t));
      }
      stars_.push_back(std::move(star));
    }
    // Sorted delta subjects: a deterministic enumeration order makes the
    // patched row order reproducible run to run.
    delta_subjects_.assign(delta_.subjects.begin(), delta_.subjects.end());
    std::sort(delta_subjects_.begin(), delta_subjects_.end());
    return true;
  }

  void Enumerate(const std::function<void(const Assignment&)>& fn) {
    size_t n = stars_.size();
    for (pivot_ = 0; pivot_ < n; ++pivot_) {
      // BFS star order from the pivot (the pattern is connected, so every
      // star is reached through a join edge whose variable is bound by the
      // time the star is expanded).
      order_.clear();
      order_.push_back(pivot_);
      std::vector<bool> seen(n, false);
      seen[pivot_] = true;
      for (size_t head = 0; head < order_.size(); ++head) {
        size_t cur = order_[head];
        for (const ntga::JoinEdge& e : g_.pattern.joins) {
          size_t a = static_cast<size_t>(e.star_a);
          size_t b = static_cast<size_t>(e.star_b);
          if (a == cur && !seen[b]) {
            seen[b] = true;
            order_.push_back(b);
          } else if (b == cur && !seen[a]) {
            seen[a] = true;
            order_.push_back(a);
          }
        }
      }
      if (order_.size() != n) continue;  // disconnected: analyzer rejects
      Assignment a;
      ExtendStar(0, &a, fn);
    }
  }

 private:
  BindMode ModeOf(size_t star_idx) const {
    if (star_idx < pivot_) return BindMode::kOldOnly;
    if (star_idx == pivot_) return BindMode::kNewOnly;
    return BindMode::kAny;
  }

  bool IsDelta(rdf::TermId s, rdf::TermId p, rdf::TermId o) const {
    return delta_.triples.count(rdf::Triple{s, p, o}) > 0;
  }

  /// Candidate subjects for the star at order_[oi], derived from the
  /// already-bound assignment (the pivot seeds from the delta subjects).
  std::vector<rdf::TermId> CandidateSubjects(size_t star_idx,
                                             const Assignment& a) const {
    const ResolvedStar& star = stars_[star_idx];
    auto it = a.find(star.subject_var);
    if (it != a.end()) return {it->second};
    for (const ntga::JoinEdge& e : g_.pattern.joins) {
      ntga::JoinRole role;
      const ntga::PropKey* prop = nullptr;
      if (static_cast<size_t>(e.star_a) == star_idx) {
        role = e.role_a;
        prop = &e.prop_a;
      } else if (static_cast<size_t>(e.star_b) == star_idx) {
        role = e.role_b;
        prop = &e.prop_b;
      } else {
        continue;
      }
      auto bound = a.find(e.var);
      if (bound == a.end()) continue;
      if (role == ntga::JoinRole::kSubject) return {bound->second};
      if (prop->is_type()) continue;  // type objects are constants
      rdf::TermId pid = dict_.LookupIri(prop->property);
      if (pid == rdf::kInvalidTermId) return {};
      return index_.Subjects(pid, bound->second);
    }
    return {};
  }

  void ExtendStar(size_t oi, Assignment* a,
                  const std::function<void(const Assignment&)>& fn) {
    if (oi == order_.size()) {
      if (PassesFilters(*a)) fn(*a);
      return;
    }
    size_t star_idx = order_[oi];
    BindMode mode = ModeOf(star_idx);
    std::vector<rdf::TermId> candidates;
    if (oi == 0) {
      // The pivot binds new-only, and a new binding's triples all share
      // the binding's subject, so it must be a delta subject.
      candidates = delta_subjects_;
    } else {
      candidates = CandidateSubjects(star_idx, *a);
    }
    for (rdf::TermId s : candidates) {
      BindStar(star_idx, s, mode, a, [&] { ExtendStar(oi + 1, a, fn); });
    }
  }

  /// Enumerates bindings of one star rooted at `s`, consistent with `a`,
  /// respecting `mode` (old-only skips delta triples; new-only requires at
  /// least one). Calls `k` with the bindings applied; backtracks after.
  void BindStar(size_t star_idx, rdf::TermId s, BindMode mode, Assignment* a,
                const std::function<void()>& k) {
    const ResolvedStar& star = stars_[star_idx];
    auto it = a->find(star.subject_var);
    if (it != a->end() && it->second != s) return;
    bool bound_subject = (it == a->end());
    if (bound_subject) (*a)[star.subject_var] = s;
    BindTriples(star, 0, s, mode, /*used_delta=*/false, a, k);
    if (bound_subject) a->erase(star.subject_var);
  }

  void BindTriples(const ResolvedStar& star, size_t ti, rdf::TermId s,
                   BindMode mode, bool used_delta, Assignment* a,
                   const std::function<void()>& k) {
    if (ti == star.triples.size()) {
      if (mode == BindMode::kNewOnly && !used_delta) return;
      k();
      return;
    }
    const ResolvedTriple& t = star.triples[ti];
    auto step = [&](rdf::TermId o) {
      bool d = IsDelta(s, t.prop, o);
      if (mode == BindMode::kOldOnly && d) return;
      BindTriples(star, ti + 1, s, mode, used_delta || d, a, k);
    };
    if (t.is_presence) {
      if (index_.Contains(s, t.prop, t.obj)) step(t.obj);
      return;
    }
    auto bound = a->find(t.var);
    if (bound != a->end()) {
      if (index_.Contains(s, t.prop, bound->second)) step(bound->second);
      return;
    }
    for (rdf::TermId o : index_.Objects(t.prop, s)) {
      (*a)[t.var] = o;
      step(o);
      a->erase(t.var);
    }
  }

  bool PassesFilters(const Assignment& a) const {
    if (g_.filters.empty()) return true;
    sparql::VarResolver resolve = [&a](const std::string& var) {
      auto it = a.find(var);
      return it == a.end() ? rdf::kInvalidTermId : it->second;
    };
    for (const sparql::ExprPtr& f : g_.filters) {
      if (!sparql::EffectiveBool(sparql::EvaluateExpr(*f, resolve, dict_))) {
        return false;
      }
    }
    return true;
  }

  const analytics::GroupingSubquery& g_;
  const DeltaPartition& delta_;
  const rdf::GraphIndex& index_;
  const rdf::Dictionary& dict_;
  rdf::TermId type_id_ = rdf::kInvalidTermId;
  std::vector<ResolvedStar> stars_;
  std::vector<rdf::TermId> delta_subjects_;
  size_t pivot_ = 0;
  std::vector<size_t> order_;
};

/// Projects one delta assignment onto the grouping's output columns
/// (append/distinct classes: every column is a pattern variable).
Status ProjectRow(const Assignment& a, const std::vector<std::string>& columns,
                  std::vector<rdf::TermId>* row) {
  row->clear();
  row->reserve(columns.size());
  for (const std::string& c : columns) {
    auto it = a.find(c);
    if (it == a.end()) {
      return Status::Internal("delta match does not bind column '" + c + "'");
    }
    row->push_back(it->second);
  }
  return Status::OK();
}

StatusOr<analytics::BindingTable> PatchGroupAgg(
    const analytics::GroupingSubquery& g, const analytics::BindingTable& base,
    DeltaEnumerator* enumerator, rdf::Dictionary* dict) {
  // Bind each output column to its source: a group variable or an
  // aggregate slot.
  struct ColRef {
    bool is_agg = false;
    size_t idx = 0;  // into g.aggs or g.group_by
  };
  std::vector<ColRef> cols(g.columns.size());
  for (size_t i = 0; i < g.columns.size(); ++i) {
    const std::string& c = g.columns[i];
    bool found = false;
    for (size_t j = 0; j < g.aggs.size() && !found; ++j) {
      if (g.aggs[j].output_name == c) {
        cols[i] = {true, j};
        found = true;
      }
    }
    for (size_t k = 0; k < g.group_by.size() && !found; ++k) {
      if (g.group_by[k] == c) {
        cols[i] = {false, k};
        found = true;
      }
    }
    if (!found) {
      return Status::Internal("column '" + c +
                              "' is neither group key nor aggregate");
    }
  }

  // Aggregate the delta matches per group key (std::map: deterministic
  // appended-row order).
  std::map<std::vector<rdf::TermId>, std::vector<analytics::Aggregator>>
      dgroups;
  Status err = Status::OK();
  enumerator->Enumerate([&](const Assignment& a) {
    if (!err.ok()) return;
    std::vector<rdf::TermId> key;
    key.reserve(g.group_by.size());
    for (const std::string& gv : g.group_by) {
      auto it = a.find(gv);
      if (it == a.end()) {
        err = Status::Internal("delta match does not bind group var '" + gv +
                               "'");
        return;
      }
      key.push_back(it->second);
    }
    auto [git, inserted] = dgroups.try_emplace(key);
    if (inserted) {
      for (const ntga::AggSpec& spec : g.aggs) {
        git->second.emplace_back(spec.func, /*distinct=*/false,
                                 spec.separator);
      }
    }
    for (size_t j = 0; j < g.aggs.size(); ++j) {
      const ntga::AggSpec& spec = g.aggs[j];
      if (spec.count_star) {
        git->second[j].AddRow();
      } else {
        auto it = a.find(spec.var);
        git->second[j].AddTerm(
            it == a.end() ? rdf::kInvalidTermId : it->second, *dict);
      }
    }
  });
  RAPIDA_RETURN_IF_ERROR(err);

  analytics::BindingTable out = base;
  if (dgroups.empty()) return out;

  // Index the stored rows by group key.
  std::vector<size_t> key_cols(g.group_by.size());
  for (size_t k = 0; k < g.group_by.size(); ++k) {
    bool found = false;
    for (size_t i = 0; i < cols.size() && !found; ++i) {
      if (!cols[i].is_agg && cols[i].idx == k) {
        key_cols[k] = i;
        found = true;
      }
    }
    if (!found) {
      return Status::Internal("group var '" + g.group_by[k] +
                              "' has no output column");
    }
  }
  std::map<std::vector<rdf::TermId>, size_t> base_index;
  for (size_t r = 0; r < out.NumRows(); ++r) {
    std::vector<rdf::TermId> key;
    key.reserve(key_cols.size());
    for (size_t i : key_cols) key.push_back(out.Row(r)[i]);
    base_index.emplace(std::move(key), r);
  }

  for (auto& [key, delta_aggs] : dgroups) {
    auto found = base_index.find(key);
    if (found == base_index.end()) {
      // A group born in the delta: its delta-only aggregate IS its value.
      std::vector<rdf::TermId> row(cols.size(), rdf::kInvalidTermId);
      for (size_t i = 0; i < cols.size(); ++i) {
        row[i] = cols[i].is_agg ? delta_aggs[cols[i].idx].Finalize(dict)
                                : key[cols[i].idx];
      }
      out.AddRow(row);
      continue;
    }
    const std::span<rdf::TermId> row = out.MutableRow(found->second);
    for (size_t i = 0; i < cols.size(); ++i) {
      if (!cols[i].is_agg) continue;
      const ntga::AggSpec& spec = g.aggs[cols[i].idx];
      const analytics::Aggregator& da = delta_aggs[cols[i].idx];
      switch (spec.func) {
        case sparql::AggFunc::kCount:
        case sparql::AggFunc::kSum: {
          std::optional<double> old = dict->AsNumber(row[i]);
          if (!old.has_value()) {
            return Status::Internal("stored aggregate cell is not numeric");
          }
          double add = spec.func == sparql::AggFunc::kCount
                           ? static_cast<double>(da.count())
                           : da.sum();
          row[i] = analytics::InternNumber(dict, *old + add);
          break;
        }
        case sparql::AggFunc::kMin:
        case sparql::AggFunc::kMax: {
          rdf::TermId dv = da.Finalize(dict);
          if (dv == rdf::kInvalidTermId) break;  // no bound delta values
          if (row[i] == rdf::kInvalidTermId) {
            row[i] = dv;  // empty-group MIN/MAX was unbound
            break;
          }
          int cmp = analytics::CompareTerms(*dict, dv, row[i]);
          bool take = spec.func == sparql::AggFunc::kMin ? cmp < 0 : cmp > 0;
          if (take) row[i] = dv;
          break;
        }
        default:
          return Status::Internal("unpatchable aggregate in group-agg class");
      }
    }
  }
  return out;
}

}  // namespace

StatusOr<analytics::BindingTable> PatchResult(
    const analytics::AnalyticalQuery& query, IvmClass cls,
    const analytics::BindingTable& base, const DeltaPartition& delta,
    const rdf::GraphIndex& index, rdf::Dictionary* dict) {
  if (cls == IvmClass::kNone) {
    return Status::InvalidArgument("query result is not maintainable");
  }
  if (query.groupings.size() != 1) {
    return Status::Internal("maintainable artifact with multiple groupings");
  }
  const analytics::GroupingSubquery& g = query.groupings[0];
  if (base.vars() != g.columns) {
    return Status::Internal("stored schema does not match the query");
  }
  if (delta.empty()) return base;

  DeltaEnumerator enumerator(g, delta, index, *dict);
  if (!enumerator.Resolve()) return base;  // pattern matches nothing at all

  if (cls == IvmClass::kGroupAgg) {
    return PatchGroupAgg(g, base, &enumerator, dict);
  }

  analytics::BindingTable out = base;
  Status err = Status::OK();
  if (cls == IvmClass::kAppend) {
    enumerator.Enumerate([&](const Assignment& a) {
      if (!err.ok()) return;
      std::vector<rdf::TermId> row;
      Status s = ProjectRow(a, g.columns, &row);
      if (!s.ok()) {
        err = s;
        return;
      }
      out.AddRow(row);
    });
  } else {  // kDistinct
    std::set<std::vector<rdf::TermId>> seen;
    for (const std::span<const rdf::TermId> row : out.rows()) {
      seen.emplace(row.begin(), row.end());
    }
    enumerator.Enumerate([&](const Assignment& a) {
      if (!err.ok()) return;
      std::vector<rdf::TermId> row;
      Status s = ProjectRow(a, g.columns, &row);
      if (!s.ok()) {
        err = s;
        return;
      }
      if (seen.insert(row).second) out.AddRow(row);
    });
  }
  RAPIDA_RETURN_IF_ERROR(err);
  return out;
}

}  // namespace rapida::storage
