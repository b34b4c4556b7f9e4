#include "engines/ntga_exec.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "analytics/aggregates.h"
#include "mapreduce/kernels.h"
#include "sparql/expr_eval.h"
#include "util/hash_index.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rapida::engine {

using analytics::Aggregator;
using ntga::NestedTripleGroup;
using ntga::ResolvedPattern;
using ntga::ResolvedStar;
using ntga::TripleGroup;

namespace {

/// TG_OptGrpFilter with triple-level filter pushdown: after the star
/// projection, triples whose object fails a pushed single-variable filter
/// are removed; losing every triple of a *primary* property rejects the
/// whole group (secondary properties just end up absent — exactly the
/// per-pattern semantics the α conditions test later).
std::optional<TripleGroup> FilterStarWithFilters(
    const TripleGroup& tg, const ResolvedStar& star, rdf::TermId type_id,
    const PushedFilters& pushed, const rdf::Dictionary& dict) {
  std::optional<TripleGroup> base = ntga::FilterStar(tg, star, type_id);
  if (!base.has_value()) return std::nullopt;
  for (const ntga::ResolvedStarTriple& pt : star.triples) {
    if (pt.object_var.empty()) continue;
    auto it = pushed.find(pt.object_var);
    if (it == pushed.end() || it->second.empty()) continue;
    auto fails = [&](const rdf::Triple& t) {
      if (!(ntga::DataPropKey{t.p, t.p == type_id ? t.o : rdf::kInvalidTermId} ==
            pt.key)) {
        return false;  // triple belongs to another property
      }
      auto resolve = [&pt, &t](const std::string& v) {
        return v == pt.object_var ? t.o : rdf::kInvalidTermId;
      };
      for (const sparql::Expr* f : it->second) {
        if (!sparql::EffectiveBool(sparql::EvaluateExpr(*f, resolve, dict))) {
          return true;
        }
      }
      return false;
    };
    auto& triples = base->triples;
    triples.erase(std::remove_if(triples.begin(), triples.end(), fails),
                  triples.end());
    if (star.primary.count(pt.key) > 0 &&
        !base->HasProp(pt.key, type_id, pt.const_object)) {
      return std::nullopt;
    }
  }
  return base;
}

/// Per-input-tag role in a TG_AlphaJoin cycle.
struct TagRole {
  bool is_nested = false;  // accumulated nested input vs raw star file
  int star = -1;           // star to filter (raw inputs)
  bool left_side = true;
  ntga::JoinRole role = ntga::JoinRole::kSubject;
  ntga::DataPropKey prop;
};

/// Per-reduce-task scratch of the TG_AlphaJoin reduce: pools of parsed
/// nested groups per side (element capacity reused across key groups),
/// the merge target, and the emit buffer.
struct AlphaReduceScratch {
  std::vector<NestedTripleGroup> left, right;
  NestedTripleGroup merged;
  std::string buf;
};

/// Alg. 3's multiAggMap for the TG_AggJoin map: an insertion-ordered
/// HashIndex over the encoded "gid#grpkey" string with dense side tables.
struct MultiAggTable {
  util::HashIndex index;
  std::vector<std::string> keys;
  std::vector<std::vector<Aggregator>> agg_rows;
};

/// Per-map-task scratch of the NTGA maps (MapContext::TaskState): parse
/// targets, the binding expansion and the key/value emit buffers, reused
/// across the task's records, plus the TG_AggJoin pre-aggregation table
/// that map_finish flushes.
struct NtgMapScratch {
  TripleGroup tg;
  NestedTripleGroup ntg;
  ntga::BindingExpansion exp;
  std::vector<rdf::TermId> row_buf;
  std::string key_buf, val_buf;
  MultiAggTable table;
};

/// Parses one map input record into `s->ntg`. `raw_star` < 0: the record
/// is an accumulated nested group. Otherwise it is a raw subject
/// triplegroup of that star, projected through TG_OptGrpFilter (every
/// other star left empty). False when the record does not parse or the
/// star filter rejects it.
bool LoadNestedGroup(std::string_view value, int raw_star, int num_stars,
                     const ResolvedPattern& pattern, rdf::TermId type_id,
                     const PushedFilters& pushed, const rdf::Dictionary& dict,
                     NtgMapScratch* s) {
  if (raw_star < 0) {
    return ntga::ParseNestedInto(value, num_stars, &s->ntg).ok();
  }
  if (!ntga::ParseTripleGroupInto(value, &s->tg).ok()) return false;
  auto filtered = FilterStarWithFilters(s->tg, pattern.stars[raw_star],
                                        type_id, pushed, dict);
  if (!filtered.has_value()) return false;
  s->ntg.stars.resize(num_stars);
  for (int st = 0; st < num_stars; ++st) {
    if (st == raw_star) continue;
    s->ntg.stars[st].subject = rdf::kInvalidTermId;
    s->ntg.stars[st].triples.clear();
  }
  s->ntg.stars[raw_star] = std::move(*filtered);
  return true;
}

}  // namespace

NtgaExec::NtgaExec(mr::Cluster* cluster, Dataset* dataset,
                   std::string tmp_prefix)
    : cluster_(cluster),
      dataset_(dataset),
      tmp_prefix_(std::move(tmp_prefix)) {}

std::string NtgaExec::NextTmp(const std::string& hint) {
  std::string name =
      tmp_prefix_ + ":" + std::to_string(counter_++) + ":" + hint;
  temp_files_.push_back(name);
  return name;
}

void NtgaExec::Cleanup() {
  for (const std::string& f : temp_files_) {
    if (dataset_->dfs().Exists(f)) (void)dataset_->dfs().Delete(f);
  }
  temp_files_.clear();
}

StatusOr<std::string> NtgaExec::AlphaJoinCycle(
    const ResolvedPattern& pattern, const PushedFilters& pushed_filters,
    const std::vector<std::vector<std::string>>& star_files, size_t edge,
    int star, const std::string& acc,
    const std::vector<ntga::AlphaCondition>& alphas, const std::string& label,
    size_t cycle) {
  const int num_stars = static_cast<int>(pattern.stars.size());
  const rdf::Dictionary* dict = &dataset_->dict();
  const rdf::TermId type_id = pattern.type_id;

  // The accumulated (left) side holds the edge's other star.
  const ntga::ResolvedJoin& join = pattern.joins[edge];
  const bool pulls_b = star == join.star_b;
  const int left_star = pulls_b ? join.star_a : join.star_b;
  const ntga::JoinRole left_role = pulls_b ? join.role_a : join.role_b;
  const ntga::DataPropKey left_prop = pulls_b ? join.prop_a : join.prop_b;
  const ntga::JoinRole right_role = pulls_b ? join.role_b : join.role_a;
  const ntga::DataPropKey right_prop = pulls_b ? join.prop_b : join.prop_a;

  mr::JobConfig job;
  job.name = label + ":alphajoin" + std::to_string(cycle);
  std::vector<TagRole> roles;
  if (acc.empty()) {
    for (const std::string& f : star_files[left_star]) {
      job.inputs.push_back(f);
      roles.push_back(TagRole{false, left_star, true, left_role, left_prop});
    }
  } else {
    job.inputs.push_back(acc);
    roles.push_back(TagRole{true, -1, true, left_role, left_prop});
  }
  for (const std::string& f : star_files[star]) {
    job.inputs.push_back(f);
    roles.push_back(TagRole{false, star, false, right_role, right_prop});
  }
  std::string out_file = NextTmp(label + ":aj" + std::to_string(cycle));
  job.output = out_file;

  // The job runs to completion inside Cluster::Run, so its closures may
  // borrow the caller's pattern, filters and α conditions.
  job.map = [roles = std::move(roles), &pattern, &pushed_filters, dict,
             type_id, num_stars, left_star](const mr::Record& r, int tag,
                                            mr::MapContext* ctx) {
    const TagRole& role = roles[tag];
    NtgMapScratch* s = ctx->TaskState<NtgMapScratch>();
    if (!LoadNestedGroup(r.value(), role.is_nested ? -1 : role.star,
                         num_stars, pattern, type_id, pushed_filters, *dict,
                         s)) {
      return;
    }
    int endpoint_star = role.is_nested ? left_star : role.star;
    std::vector<rdf::TermId> keys =
        ntga::JoinKeys(s->ntg, endpoint_star, role.role, role.prop, type_id);
    s->val_buf.assign(role.left_side ? "L|" : "R|");
    ntga::SerializeNestedTo(s->ntg, &s->val_buf);
    for (rdf::TermId key : keys) {
      s->key_buf.clear();
      mr::kernels::AppendDecimal(&s->key_buf, key);
      ctx->Emit(s->key_buf, s->val_buf);
    }
  };

  job.reduce = [&alphas, type_id, num_stars](std::string_view /*key*/,
                                             const mr::ValueSpan& values,
                                             mr::ReduceContext* ctx) {
    AlphaReduceScratch* s = ctx->TaskState<AlphaReduceScratch>();
    size_t nleft = 0, nright = 0;
    for (std::string_view v : values) {
      if (v.size() < 2) continue;
      const bool is_left = v[0] == 'L';
      std::vector<NestedTripleGroup>& pool = is_left ? s->left : s->right;
      size_t& count = is_left ? nleft : nright;
      if (count == pool.size()) pool.emplace_back();
      if (!ntga::ParseNestedInto(v.substr(2), num_stars, &pool[count])
               .ok()) {
        continue;
      }
      ++count;
    }
    for (size_t li = 0; li < nleft; ++li) {
      for (size_t ri = 0; ri < nright; ++ri) {
        const NestedTripleGroup& r = s->right[ri];
        s->merged = s->left[li];  // copy-assign reuses capacity
        for (int st = 0; st < num_stars; ++st) {
          if (r.IsFilled(st)) s->merged.stars[st] = r.stars[st];
        }
        if (!ntga::SatisfiesAnyAlpha(s->merged, alphas, type_id)) continue;
        s->buf.clear();
        ntga::SerializeNestedTo(s->merged, &s->buf);
        ctx->Emit("", s->buf);
      }
    }
  };
  // Pure function of (key, values): reducers may run concurrently.
  job.reduce_parallel_safe = true;

  RAPIDA_RETURN_IF_ERROR(cluster_->Run(job).status());
  return out_file;
}

StatusOr<std::vector<analytics::BindingTable>> NtgaExec::RunAggJoins(
    const ResolvedPattern& pattern, const PatternMatches& matches,
    const PushedFilters& pushed_filters,
    const std::vector<const NtgaGrouping*>& groupings, bool map_side_agg,
    const std::string& name, const std::string& out_hint,
    std::string* out_file) {
  const int num_stars = static_cast<int>(pattern.stars.size());
  const bool star_mode = matches.nested_file.empty();
  rdf::Dictionary* dict = &dataset_->dict();
  rdf::TermId type_id = pattern.type_id;

  mr::JobConfig job;
  job.name = name;
  if (star_mode) {
    job.inputs = matches.star_files;
  } else {
    job.inputs = {matches.nested_file};
  }
  *out_file = NextTmp(out_hint);
  job.output = *out_file;

  // The reduce finds a key's grouping by its `gid#` prefix.
  std::vector<const NtgaGrouping*> by_id;
  for (const NtgaGrouping* g : groupings) {
    const size_t id = static_cast<size_t>(g->id);
    if (id >= by_id.size()) by_id.resize(id + 1);
    by_id[id] = g;
  }

  // Per-mapper multiAggMap (Alg. 3): key "gid#grpkey" -> aggregators.
  // Lives in the task's NtgMapScratch so concurrent map tasks accumulate
  // into independent tables; map_finish flushes it in insertion order
  // (keys are unique per task and the shuffle sorts by key). The job runs
  // to completion inside Cluster::Run, so its closures may borrow the
  // caller's pattern, filters and groupings.
  const int raw_star = star_mode ? 0 : -1;
  job.map = [&groupings, &pattern, &pushed_filters, dict, type_id, num_stars,
             raw_star, map_side_agg](const mr::Record& r, int,
                                     mr::MapContext* ctx) {
    NtgMapScratch* s = ctx->TaskState<NtgMapScratch>();
    if (!LoadNestedGroup(r.value(), raw_star, num_stars, pattern, type_id,
                         pushed_filters, *dict, s)) {
      return;
    }
    for (const NtgaGrouping* g : groupings) {
      const NtgaGrouping& grouping = *g;
      if (!ntga::SatisfiesAlpha(s->ntg, grouping.spec.alpha, type_id)) {
        continue;
      }
      // Positions of group / agg vars within pattern_vars (tiny).
      auto pos_of = [&grouping](const std::string& v) {
        for (size_t i = 0; i < grouping.pattern_vars.size(); ++i) {
          if (grouping.pattern_vars[i] == v) return static_cast<int>(i);
        }
        return -1;
      };
      ntga::ExpandBindingsInto(s->ntg, pattern, grouping.pattern_vars,
                               /*skip_unbound=*/true, &s->exp);
      for (size_t row = 0; row < s->exp.num_rows; ++row) {
        const rdf::TermId* mapping = s->exp.row(row);
        if (grouping.mapping_predicate) {
          s->row_buf.assign(mapping, mapping + s->exp.width);
          if (!grouping.mapping_predicate(s->row_buf)) continue;
        }
        s->key_buf.clear();
        mr::kernels::AppendDecimal(&s->key_buf,
                                   static_cast<uint64_t>(grouping.id));
        s->key_buf += '#';
        bool first = true;
        for (const std::string& v : grouping.spec.group_vars) {
          if (!first) s->key_buf += ',';
          first = false;
          int i = pos_of(v);
          mr::kernels::AppendDecimal(
              &s->key_buf, i < 0 ? rdf::kInvalidTermId : mapping[i]);
        }
        if (map_side_agg) {
          MultiAggTable& table = s->table;
          auto [id, inserted] = table.index.FindOrInsert(
              mr::HashKey(s->key_buf),
              static_cast<uint32_t>(table.keys.size()),
              [&](uint32_t cand) { return table.keys[cand] == s->key_buf; });
          if (inserted) {
            table.keys.push_back(s->key_buf);
            table.agg_rows.emplace_back();
            for (const ntga::AggSpec& a : grouping.spec.aggs) {
              table.agg_rows.back().emplace_back(a.func, false, a.separator);
            }
          }
          std::vector<Aggregator>& aggs = table.agg_rows[id];
          for (size_t a = 0; a < grouping.spec.aggs.size(); ++a) {
            const ntga::AggSpec& spec = grouping.spec.aggs[a];
            if (spec.count_star) {
              aggs[a].AddRow();
            } else {
              int i = pos_of(spec.var);
              aggs[a].AddTerm(i < 0 ? rdf::kInvalidTermId : mapping[i],
                              *dict);
            }
          }
        } else {
          s->val_buf.assign("R|");
          bool farg = true;
          for (const ntga::AggSpec& spec : grouping.spec.aggs) {
            if (!farg) s->val_buf += ',';
            farg = false;
            int i = pos_of(spec.var);
            mr::kernels::AppendDecimal(
                &s->val_buf, spec.count_star || i < 0 ? rdf::kInvalidTermId
                                                      : mapping[i]);
          }
          ctx->Emit(s->key_buf, s->val_buf);
        }
      }
    }
  };
  if (map_side_agg) {
    job.map_finish = [](mr::MapContext* ctx) {
      const MultiAggTable& table = ctx->TaskState<NtgMapScratch>()->table;
      for (size_t id = 0; id < table.keys.size(); ++id) {
        std::string value = "P";
        for (const Aggregator& a : table.agg_rows[id]) {
          value += '|';
          value += a.SerializePartial();
        }
        ctx->Emit(table.keys[id], value);
      }
    };
  }

  // The aggregator list resets per key group; the decode and emit
  // buffers are per-task scratch reused across groups.
  struct ReduceScratch {
    std::vector<rdf::TermId> args, row;
    std::string val_buf;
  };
  job.reduce = [&by_id, dict](std::string_view key,
                              const mr::ValueSpan& values,
                              mr::ReduceContext* ctx) {
    ReduceScratch* s = ctx->TaskState<ReduceScratch>();
    size_t hash_pos = key.find('#');
    if (hash_pos == std::string_view::npos) return;
    int64_t gid = 0;
    ParseInt64(key.substr(0, hash_pos), &gid);
    const NtgaGrouping& grouping = *by_id[gid];
    std::vector<Aggregator> aggs;
    for (const ntga::AggSpec& a : grouping.spec.aggs) {
      aggs.emplace_back(a.func, false, a.separator);
    }
    for (std::string_view v : values) {
      if (v.empty()) continue;
      if (v[0] == 'P') {
        FieldTokenizer parts(v, '|');
        std::string_view part;
        parts.Next(&part);  // the "P" marker
        for (size_t a = 0; a < aggs.size() && parts.Next(&part); ++a) {
          auto partial = Aggregator::DeserializePartial(
              grouping.spec.aggs[a].func, part,
              grouping.spec.aggs[a].separator);
          if (partial.ok()) aggs[a].Merge(*partial, *dict);
        }
      } else if (v[0] == 'R') {
        DecodeRowInto(v.substr(2), &s->args);
        for (size_t a = 0; a < aggs.size(); ++a) {
          if (grouping.spec.aggs[a].count_star) {
            aggs[a].AddRow();
          } else if (a < s->args.size()) {
            aggs[a].AddTerm(s->args[a], *dict);
          }
        }
      }
    }
    DecodeRowInto(key.substr(hash_pos + 1), &s->row);
    for (Aggregator& a : aggs) s->row.push_back(a.Finalize(dict));
    s->val_buf.clear();
    AppendRow(&s->val_buf, s->row);
    ctx->Emit(key.substr(0, hash_pos), s->val_buf);
  };

  RAPIDA_RETURN_IF_ERROR(cluster_->Run(job).status());

  // Collect per-grouping tables.
  RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                          dataset_->dfs().Open(*out_file));
  std::vector<analytics::BindingTable> out;
  std::vector<rdf::TermId> row;
  for (const NtgaGrouping* g : groupings) {
    const NtgaGrouping& grouping = *g;
    analytics::BindingTable table(grouping.output_columns);
    std::string gid = std::to_string(grouping.id);
    for (const mr::Record& r : f->records) {
      if (r.key() != gid) continue;
      DecodeRowInto(r.value(), &row);
      row.resize(grouping.output_columns.size(), rdf::kInvalidTermId);
      table.AddRow(row);
    }
    // GROUP BY ALL over no qualifying detail still yields the default row.
    if (grouping.spec.group_vars.empty() && table.NumRows() == 0) {
      row.clear();
      for (const ntga::AggSpec& a : grouping.spec.aggs) {
        Aggregator empty(a.func, false, a.separator);
        row.push_back(empty.Finalize(dict));
      }
      table.AddRow(row);
    }
    if (grouping.having != nullptr) {
      analytics::FilterRowsByExpr(&table, *grouping.having, *dict);
    }
    out.push_back(std::move(table));
  }
  return out;
}

StatusOr<TableRef> NtgaExec::ExpandToTable(
    const ResolvedPattern& pattern, const PatternMatches& matches,
    const PushedFilters& pushed_filters,
    const std::vector<std::string>& columns, RowPredicate mapping_predicate,
    const std::string& label) {
  const int num_stars = static_cast<int>(pattern.stars.size());
  const bool star_mode = matches.nested_file.empty();
  rdf::Dictionary* dict = &dataset_->dict();
  rdf::TermId type_id = pattern.type_id;
  auto shared_pattern = std::make_shared<ResolvedPattern>(pattern);
  auto shared_filters = std::make_shared<PushedFilters>(pushed_filters);
  auto shared_vars = std::make_shared<std::vector<std::string>>(columns);

  mr::JobConfig job;
  job.name = label + ":expand (map-only)";
  if (star_mode) {
    job.inputs = matches.star_files;
  } else {
    job.inputs = {matches.nested_file};
  }
  std::string out_file = NextTmp(label + ":rows");
  job.output = out_file;

  const int raw_star = star_mode ? 0 : -1;
  job.map = [shared_pattern, shared_filters, shared_vars, dict, type_id,
             num_stars, raw_star, mapping_predicate](
                const mr::Record& r, int, mr::MapContext* ctx) {
    NtgMapScratch* s = ctx->TaskState<NtgMapScratch>();
    if (!LoadNestedGroup(r.value(), raw_star, num_stars, *shared_pattern,
                         type_id, *shared_filters, *dict, s)) {
      return;
    }
    // skip_unbound=false: a star the match did not fill (never the case
    // for all-primary patterns) or an absent optional property stays NULL
    // in the row, matching the relational NULL convention downstream.
    ntga::ExpandBindingsInto(s->ntg, *shared_pattern, *shared_vars,
                             /*skip_unbound=*/false, &s->exp);
    uint64_t emitted = 0;
    for (size_t row = 0; row < s->exp.num_rows; ++row) {
      const rdf::TermId* mapping = s->exp.row(row);
      if (mapping_predicate) {
        s->row_buf.assign(mapping, mapping + s->exp.width);
        if (!mapping_predicate(s->row_buf)) continue;
      }
      s->val_buf.clear();
      AppendRow(&s->val_buf, mapping, s->exp.width);
      ctx->Emit("", s->val_buf);
      ++emitted;
    }
    // The triplegroup is the NTGA engines' native factorized form: this
    // expansion is the decompress boundary, so each group that produced
    // rows books itself against the flat rows it stood for.
    if (emitted > 0) ctx->NoteFactorizedGroup(emitted);
  };
  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;
  return TableRef{out_file, columns};
}

StatusOr<analytics::BindingTable> NtgaExec::FinalJoinProject(
    std::vector<analytics::BindingTable> agg_tables,
    const std::vector<sparql::SelectItem>& items,
    const std::vector<std::string>& agg_files, const std::string& label) {
  rdf::Dictionary* dict = &dataset_->dict();
  ProjectedResult projected =
      JoinAndProject(std::move(agg_tables), items, dict);

  // One map-only cycle: scan the aggregated outputs, emit the joined
  // projection once.
  mr::JobConfig job;
  job.name = label + ":finaljoin (map-only)";
  std::set<std::string> distinct_inputs(agg_files.begin(), agg_files.end());
  job.inputs.assign(distinct_inputs.begin(), distinct_inputs.end());
  std::string out_file = NextTmp(label + ":result");
  job.output = out_file;
  auto rows = std::make_shared<std::vector<std::string>>(projected.rows);
  // Exactly one of the (possibly concurrent) mappers emits the rows.
  auto emitted = std::make_shared<std::atomic<bool>>(false);
  job.map = [](const mr::Record&, int, mr::MapContext*) {};
  job.map_finish = [rows, emitted](mr::MapContext* ctx) {
    if (emitted->exchange(true)) return;
    for (const std::string& r : *rows) ctx->Emit("", r);
  };
  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;

  return ToBindingTable(projected);
}

}  // namespace rapida::engine
