#include "engines/ntga_exec.h"

#include <algorithm>

#include "mapreduce/kernels.h"
#include "sparql/expr_eval.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rapida::engine {

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

/// Per-map-task scratch of the NTGA maps (MapContext::TaskState): parse
/// targets, the binding expansion and the key/value emit buffers, reused
/// across the task's records, plus the TG_AggJoin's aggregation table
/// (Alg. 3's multiAggMap) that map_finish flushes.
struct NtgMapScratch {
  TripleGroup tg;
  NestedTripleGroup ntg;
  ntga::BindingExpansion exp;
  std::vector<rdf::TermId> row_buf;
  std::string key_buf, val_buf;
  AggMap agg;
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

NtgaExec::NtgaExec(RelationalOps* rel)
    : rel_(rel), cluster_(rel->cluster()), dataset_(rel->dataset()) {}

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
  std::string out_file = rel_->NextTmp(label + ":aj" + std::to_string(cycle));
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
  *out_file = rel_->NextTmp(out_hint);
  job.output = *out_file;

  // The reduce finds a key's grouping by its `gid#` prefix; the map reads
  // each grouping's key and aggregate cells at their positions in its
  // pattern_vars (-1: not a pattern variable, read as NULL).
  struct Positions {
    std::vector<int> keys, args;
  };
  std::vector<const NtgaGrouping*> by_id;
  std::vector<Positions> positions;
  for (const NtgaGrouping* g : groupings) {
    const size_t id = static_cast<size_t>(g->id);
    if (id >= by_id.size()) by_id.resize(id + 1);
    by_id[id] = g;
    auto pos_of = [g](const std::string& v) {
      auto it = std::find(g->pattern_vars.begin(), g->pattern_vars.end(), v);
      return it == g->pattern_vars.end()
                 ? -1
                 : static_cast<int>(it - g->pattern_vars.begin());
    };
    Positions& p = positions.emplace_back();
    for (const std::string& v : g->spec.group_vars) p.keys.push_back(pos_of(v));
    for (const ntga::AggSpec& a : g->spec.aggs) {
      p.args.push_back(a.count_star ? -1 : pos_of(a.var));
    }
  }

  // Each qualifying solution mapping goes into the aggregation shuffle
  // under its "gid#grpkey" key. The job runs to completion inside
  // Cluster::Run, so its closures may borrow the caller's pattern, filters
  // and groupings.
  const int raw_star = star_mode ? 0 : -1;
  job.map = [&groupings, &positions, &pattern, &pushed_filters, dict,
             type_id, num_stars, raw_star, map_side_agg](
                const mr::Record& r, int, mr::MapContext* ctx) {
    NtgMapScratch* s = ctx->TaskState<NtgMapScratch>();
    if (!LoadNestedGroup(r.value(), raw_star, num_stars, pattern, type_id,
                         pushed_filters, *dict, s)) {
      return;
    }
    for (size_t g = 0; g < groupings.size(); ++g) {
      const NtgaGrouping& grouping = *groupings[g];
      if (!ntga::SatisfiesAlpha(s->ntg, grouping.spec.alpha, type_id)) {
        continue;
      }
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
        const std::vector<int>& keys = positions[g].keys;
        for (size_t k = 0; k < keys.size(); ++k) {
          if (k > 0) s->key_buf += ',';
          mr::kernels::AppendDecimal(
              &s->key_buf, keys[k] < 0 ? rdf::kInvalidTermId
                                       : mapping[static_cast<size_t>(keys[k])]);
        }
        s->agg.Add(s->key_buf, mapping, positions[g].args,
                   grouping.spec.aggs, map_side_agg, *dict, ctx);
      }
    }
  };
  if (map_side_agg) {
    job.map_finish = [](mr::MapContext* ctx) {
      ctx->TaskState<NtgMapScratch>()->agg.Flush(ctx);
    };
  }

  job.reduce = [&by_id, dict](std::string_view key,
                              const mr::ValueSpan& values,
                              mr::ReduceContext* ctx) {
    AggReduceScratch* s = ctx->TaskState<AggReduceScratch>();
    size_t hash_pos = key.find('#');
    if (hash_pos == std::string_view::npos) return;
    int64_t gid = 0;
    ParseInt64(key.substr(0, hash_pos), &gid);
    FoldAggGroup(key.substr(hash_pos + 1), by_id[gid]->spec.aggs, values,
                 dict, s);
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
      table.AddRow(EmptyGroupRow(grouping.spec.aggs, dict));
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
  std::string out_file = rel_->NextTmp(label + ":rows");
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

}  // namespace rapida::engine
