#include "engines/relational_ops.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <unordered_map>

#include "analytics/aggregates.h"
#include "analytics/value.h"
#include "mapreduce/kernels.h"
#include "sparql/expr_eval.h"
#include "util/hash_index.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rapida::engine {

using analytics::Aggregator;

void AppendRow(std::string* out, const rdf::TermId* row, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) *out += ',';
    mr::kernels::AppendDecimal(out, row[i]);
  }
}

void AppendRow(std::string* out, const std::vector<rdf::TermId>& row) {
  AppendRow(out, row.data(), row.size());
}

void DecodeRowInto(std::string_view data, std::vector<rdf::TermId>* out) {
  out->clear();
  if (data.empty()) return;
  size_t start = 0;
  while (true) {
    size_t pos = data.find(',', start);
    std::string_view part = data.substr(
        start, pos == std::string_view::npos ? std::string_view::npos
                                             : pos - start);
    int64_t v = 0;
    ParseDigits(part, &v);
    out->push_back(static_cast<rdf::TermId>(v));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
}

std::string EncodeRow(const std::vector<rdf::TermId>& row) {
  std::string out;
  AppendRow(&out, row);
  return out;
}

std::vector<rdf::TermId> DecodeRow(std::string_view data) {
  std::vector<rdf::TermId> out;
  DecodeRowInto(data, &out);
  return out;
}

int TableRef::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

RowPredicate CompilePredicate(
    const std::vector<const sparql::Expr*>& filters,
    const std::vector<std::string>& columns, const rdf::Dictionary* dict) {
  if (filters.empty()) return nullptr;
  std::vector<sparql::ExprPtr> cloned;
  cloned.reserve(filters.size());
  for (const sparql::Expr* f : filters) cloned.push_back(f->Clone());
  auto shared =
      std::make_shared<std::vector<sparql::ExprPtr>>(std::move(cloned));
  std::vector<std::string> cols = columns;
  return [shared, cols, dict](const std::vector<rdf::TermId>& row) {
    auto resolve = [&cols, &row](const std::string& v) -> rdf::TermId {
      for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] == v) return i < row.size() ? row[i] : rdf::kInvalidTermId;
      }
      return rdf::kInvalidTermId;
    };
    for (const sparql::ExprPtr& f : *shared) {
      if (!sparql::EffectiveBool(sparql::EvaluateExpr(*f, resolve, *dict))) {
        return false;
      }
    }
    return true;
  };
}

RelationalOps::RelationalOps(mr::Cluster* cluster, Dataset* dataset,
                             const EngineOptions& options,
                             std::string tmp_prefix)
    : cluster_(cluster),
      dataset_(dataset),
      options_(options),
      tmp_prefix_(std::move(tmp_prefix)) {}

std::string RelationalOps::NextTmp(const std::string& hint) {
  std::string name =
      tmp_prefix_ + ":" + std::to_string(counter_++) + ":" + hint;
  temp_files_.push_back(name);
  return name;
}

void RelationalOps::Cleanup() {
  for (const std::string& f : temp_files_) {
    if (dataset_->dfs().Exists(f)) {
      (void)dataset_->dfs().Delete(f);
    }
  }
  temp_files_.clear();
}

namespace {

/// Decodes an input record according to its JoinInput layout, reusing
/// `out`'s capacity.
void DecodeInputRowInto(const JoinInput& input, const mr::Record& r,
                        std::vector<rdf::TermId>* out) {
  if (!input.is_vp) {
    DecodeRowInto(r.value(), out);
    return;
  }
  out->clear();
  int64_t s = 0;
  ParseDigits(r.key(), &s);
  out->push_back(static_cast<rdf::TermId>(s));
  if (input.columns.size() == 1) return;
  int64_t o = 0;
  ParseDigits(r.value(), &o);
  out->push_back(static_cast<rdf::TermId>(o));
}

std::vector<rdf::TermId> DecodeInputRow(const JoinInput& input,
                                        const mr::Record& r) {
  std::vector<rdf::TermId> out;
  DecodeInputRowInto(input, r, &out);
  return out;
}

/// Broadcast side table of the flat map-join: one flat cell pool plus two
/// CSR layers — rows over cells, and per-distinct-key groups over rows —
/// probed through a HashIndex on the mixed key id. Rows keep file order
/// within each group.
struct BroadcastTable {
  util::HashIndex index;
  std::vector<rdf::TermId> keys;    // distinct join key per dense id
  std::vector<uint32_t> group_end;  // CSR: rows of key id g are
                                    //   row_of[group_end[g-1]..group_end[g])
  std::vector<uint32_t> row_of;     // row indices grouped by key id
  std::vector<uint32_t> row_end;    // CSR: cells of row r
  std::vector<rdf::TermId> cells;   // row payloads in arrival order

  uint32_t GroupBegin(uint32_t id) const {
    return id == 0 ? 0 : group_end[id - 1];
  }
  uint32_t RowBegin(uint32_t r) const { return r == 0 ? 0 : row_end[r - 1]; }
};

void BuildBroadcast(const JoinInput& input,
                    const std::vector<mr::Record>& records, int key_col,
                    BroadcastTable* t) {
  std::vector<uint32_t> key_id_of_row;
  std::vector<uint32_t> counts;
  std::vector<rdf::TermId> row;
  t->index.Reserve(records.size());
  for (const mr::Record& r : records) {
    DecodeInputRowInto(input, r, &row);
    if (input.predicate && !input.predicate(row)) continue;
    rdf::TermId k = row[key_col];
    auto [id, inserted] = t->index.FindOrInsert(
        util::MixId(k), static_cast<uint32_t>(t->keys.size()),
        [&](uint32_t cand) { return t->keys[cand] == k; });
    if (inserted) {
      t->keys.push_back(k);
      counts.push_back(0);
    }
    ++counts[id];
    key_id_of_row.push_back(id);
    t->cells.insert(t->cells.end(), row.begin(), row.end());
    t->row_end.push_back(static_cast<uint32_t>(t->cells.size()));
  }
  // Counting-sort scatter: group rows by key id, file order within a group.
  t->group_end.resize(counts.size());
  uint32_t total = 0;
  for (size_t g = 0; g < counts.size(); ++g) {
    total += counts[g];
    t->group_end[g] = total;
  }
  t->row_of.resize(key_id_of_row.size());
  std::vector<uint32_t> cursor(counts.size());
  for (size_t g = 0; g < counts.size(); ++g) cursor[g] = t->GroupBegin(g);
  for (size_t r = 0; r < key_id_of_row.size(); ++r) {
    t->row_of[cursor[key_id_of_row[r]]++] = static_cast<uint32_t>(r);
  }
}

/// Per-map-task scratch (MapContext::TaskState) of the flat operators'
/// maps: the decoded input row, the width-strided cross-product buffers
/// and the key/value emit buffers, reused across the task's records.
struct MapScratch {
  std::vector<rdf::TermId> row, cur, next, pred_row;
  std::string key_buf, val_buf;
};

/// Per-reduce-task scratch of the repartition-join reduce: each side's
/// rows in a flat cell pool + CSR row bounds, the current/next
/// cross-product buffers (width-strided), and the emit buffer.
struct JoinReduceScratch {
  std::vector<std::vector<rdf::TermId>> side_cells;
  std::vector<std::vector<uint32_t>> side_end;
  std::vector<rdf::TermId> row, cur, next, pred_row;
  std::string val_buf;
};

/// Per-map-task state of GroupBy's map-side pre-aggregation (the
/// relational analogue of Alg. 3's multiAggMap): an insertion-ordered
/// open-addressing table — HashIndex over the encoded group key, dense
/// side tables — plus the decode and key buffers. map_finish flushes it.
struct PartialAggScratch {
  util::HashIndex index;
  std::vector<std::string> keys;
  std::vector<std::vector<Aggregator>> agg_rows;
  std::vector<rdf::TermId> row;
  std::string key_buf;
};

// ---------------------------------------------------------------------------
// Factorized (d-representation) join machinery — see engines/factorized.h
// and DESIGN.md §16. A join runs in "fact mode" when any input is
// factorized or a factorized output was requested; the flat paths above
// stay byte-for-byte untouched otherwise.
// ---------------------------------------------------------------------------

/// Where a column position lives inside a Factorization.
struct CellLoc {
  enum Kind { kUncovered, kBase, kFactor };
  Kind kind = kUncovered;
  int factor = -1;  // index into factors (kFactor only)
  int slot = -1;    // index within base_cols / factors[factor]
};

std::vector<CellLoc> LocateCells(const Factorization& spec) {
  std::vector<CellLoc> loc(static_cast<size_t>(spec.width));
  for (size_t s = 0; s < spec.base_cols.size(); ++s) {
    loc[static_cast<size_t>(spec.base_cols[s])] =
        CellLoc{CellLoc::kBase, -1, static_cast<int>(s)};
  }
  for (size_t f = 0; f < spec.factors.size(); ++f) {
    for (size_t c = 0; c < spec.factors[f].size(); ++c) {
      loc[static_cast<size_t>(spec.factors[f][c])] =
          CellLoc{CellLoc::kFactor, static_cast<int>(f), static_cast<int>(c)};
    }
  }
  return loc;
}

/// Decodes a factor row's cells into `out` (factor-col order), padding
/// missing cells with NULL up to `cols`.
void DecodeFactorRowInto(std::string_view row, size_t cols,
                         std::vector<rdf::TermId>* out) {
  DecodeRowInto(row, out);
  out->resize(cols, rdf::kInvalidTermId);
}

/// The contiguous encoded bytes of factor `f` inside the record value the
/// GroupView was parsed from (row views are slices of one segment).
std::string_view FactorSegment(const GroupView& g, size_t f) {
  size_t b = g.FactorBegin(f);
  size_t e = g.factor_end[f];
  if (b == e) return std::string_view();
  const char* lo = g.rows[b].data();
  const char* hi = g.rows[e - 1].data() + g.rows[e - 1].size();
  return std::string_view(lo, static_cast<size_t>(hi - lo));
}

/// How the fact-mode map handles one join input.
struct FactInputPlan {
  FactorizationPtr spec;     // null: flat side (emits "F" rows)
  /// Layout of the partial groups this side emits ("G" payloads), in the
  /// INPUT table's coordinates. Equal to `spec` when the join column sits
  /// in the base; base extended by the join factor otherwise.
  FactorizationPtr partial;
  int join_factor = -1;  // >= 0: partially decompress this factor
  int join_slot = -1;    // slot in base_cols / cell idx in factors[join_factor]
  bool stream = false;   // decompress in the map (input predicate present)

  bool grouped() const { return spec != nullptr && !stream; }
};

/// One collected partial group on the reduce side.
struct FactEntry {
  std::vector<rdf::TermId> base;   // decoded partial-base cells
  std::vector<std::string> fsegs;  // owned factor segments
  std::vector<uint64_t> frows;     // rows per factor
};

/// Synthesizes the outer-miss entry: NULL base cells + one all-NULL row
/// per factor.
FactEntry NullEntry(const Factorization& partial) {
  FactEntry e;
  e.base.assign(partial.base_cols.size(), rdf::kInvalidTermId);
  for (const auto& cols : partial.factors) {
    std::string seg;
    for (size_t c = 0; c < cols.size(); ++c) {
      if (c > 0) seg += ',';
      seg += '0';
    }
    e.fsegs.push_back(std::move(seg));
    e.frows.push_back(1);
  }
  return e;
}

/// Computes each input's fact-mode map plan.
std::vector<FactInputPlan> BuildFactInputPlans(
    const std::vector<JoinInput>& inputs, const std::vector<int>& join_idx) {
  std::vector<FactInputPlan> plans(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].factor == nullptr) continue;
    FactInputPlan& p = plans[i];
    p.spec = inputs[i].factor;
    if (inputs[i].predicate != nullptr) {
      p.stream = true;  // predicates see flat rows: stream-decompress
      continue;
    }
    std::vector<CellLoc> loc = LocateCells(*p.spec);
    const CellLoc jl = loc[static_cast<size_t>(join_idx[i])];
    if (jl.kind == CellLoc::kFactor) {
      p.join_factor = jl.factor;
      p.join_slot = jl.slot;
      auto partial = std::make_shared<Factorization>();
      partial->width = p.spec->width;
      partial->base_cols = p.spec->base_cols;
      const auto& jcols = p.spec->factors[static_cast<size_t>(jl.factor)];
      partial->base_cols.insert(partial->base_cols.end(), jcols.begin(),
                                jcols.end());
      for (size_t f = 0; f < p.spec->factors.size(); ++f) {
        if (static_cast<int>(f) == jl.factor) continue;
        partial->factors.push_back(p.spec->factors[f]);
      }
      p.partial = std::move(partial);
    } else {
      // Join column in the base (or uncovered: every flat row joins NULL).
      p.join_slot = jl.kind == CellLoc::kBase ? jl.slot : -1;
      p.partial = p.spec;
    }
  }
  return plans;
}

/// Per-side assembly of the factorized OUTPUT spec of a repartition join:
/// base = [join position] ++ each grouped side's kept partial-base slots;
/// factors = sides in order (flat side -> one factor of its non-join
/// columns; grouped side -> its partial factors). Returns null when any
/// output position would be claimed twice (the flat fold's overwrite
/// semantics cannot be represented) — callers then emit flat.
struct FactOutAssembly {
  FactorizationPtr spec;
  /// Per side: partial-base slots appended to the output base (grouped
  /// sides), or input column indices encoded as factor rows (flat sides).
  std::vector<std::vector<int>> base_keep;
  std::vector<std::vector<int>> flat_cols;
};

FactOutAssembly BuildFactOutput(const std::vector<JoinInput>& inputs,
                                const std::vector<FactInputPlan>& plans,
                                const std::vector<std::vector<int>>& out_pos,
                                const std::vector<int>& join_idx,
                                size_t width) {
  FactOutAssembly out;
  out.base_keep.resize(inputs.size());
  out.flat_cols.resize(inputs.size());
  auto spec = std::make_shared<Factorization>();
  spec->width = static_cast<int>(width);
  std::vector<bool> covered(width, false);
  const int join_out = out_pos[0][static_cast<size_t>(join_idx[0])];
  covered[static_cast<size_t>(join_out)] = true;
  spec->base_cols.push_back(join_out);
  auto claim = [&covered](int pos) {
    if (covered[static_cast<size_t>(pos)]) return false;
    covered[static_cast<size_t>(pos)] = true;
    return true;
  };
  // Base: join key first, then each grouped side's kept partial-base slots.
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!plans[i].grouped()) continue;
    const Factorization& partial = *plans[i].partial;
    for (size_t s = 0; s < partial.base_cols.size(); ++s) {
      const int in_col = partial.base_cols[s];
      if (in_col == join_idx[i]) continue;  // == the key; emitted once
      const int pos = out_pos[i][static_cast<size_t>(in_col)];
      if (pos == join_out) continue;  // same column name as the key
      if (!claim(pos)) return out;    // conflict: stay flat
      spec->base_cols.push_back(pos);
      out.base_keep[i].push_back(static_cast<int>(s));
    }
  }
  // Factors: sides in order.
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (plans[i].grouped()) {
      const Factorization& partial = *plans[i].partial;
      for (const auto& cols : partial.factors) {
        std::vector<int> f;
        for (int in_col : cols) {
          const int pos = out_pos[i][static_cast<size_t>(in_col)];
          if (!claim(pos)) return out;
          f.push_back(pos);
        }
        spec->factors.push_back(std::move(f));
      }
    } else {
      std::vector<int> f;
      std::vector<int> keep;
      for (size_t c = 0; c < inputs[i].columns.size(); ++c) {
        if (static_cast<int>(c) == join_idx[i]) continue;
        const int pos = out_pos[i][static_cast<size_t>(c)];
        if (pos == join_out) continue;  // duplicate of the key column
        if (!claim(pos)) return out;
        f.push_back(pos);
        keep.push_back(static_cast<int>(c));
      }
      spec->factors.push_back(std::move(f));
      out.flat_cols[i] = std::move(keep);
    }
  }
  out.spec = std::move(spec);
  return out;
}

/// Factorized-output spec of a map-join (big side -> base + its factors,
/// one factor per small side) plus each small side's kept column indices.
/// Null spec = the output stays flat.
struct MapJoinFactSpec {
  FactorizationPtr spec;
  std::vector<std::vector<int>> small_keep;
};

}  // namespace

int MapJoinStreamedInput(const std::vector<uint64_t>& sizes,
                         const std::vector<bool>& outer, uint64_t threshold) {
  if (sizes.size() < 2) return -1;
  size_t big = 0;
  for (size_t i = 1; i < sizes.size(); ++i) {
    if (sizes[i] > sizes[big]) big = i;
  }
  if (outer[big]) return -1;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i != big && sizes[i] > threshold) return -1;
  }
  return static_cast<int>(big);
}

StatusOr<TableRef> RelationalOps::Join(const std::string& name_hint,
                                       const std::vector<JoinInput>& inputs,
                                       RowPredicate post_predicate,
                                       bool factorize_output) {
  RAPIDA_CHECK(!inputs.empty());
  // Output layout: first input's columns, then the unseen columns of each
  // later input. Per input: mapping from its columns to output positions,
  // and the index of its join column.
  std::vector<std::string> out_columns = inputs[0].columns;
  std::vector<std::vector<int>> out_pos(inputs.size());
  std::vector<int> join_idx(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    join_idx[i] = -1;
    for (size_t c = 0; c < inputs[i].columns.size(); ++c) {
      const std::string& name = inputs[i].columns[c];
      if (name == inputs[i].join_column) join_idx[i] = static_cast<int>(c);
      auto it = std::find(out_columns.begin(), out_columns.end(), name);
      int pos;
      if (it == out_columns.end()) {
        pos = static_cast<int>(out_columns.size());
        out_columns.push_back(name);
      } else {
        pos = static_cast<int>(it - out_columns.begin());
      }
      out_pos[i].push_back(pos);
    }
    if (join_idx[i] < 0) {
      return Status::InvalidArgument("join column '" + inputs[i].join_column +
                                     "' not among input columns");
    }
    if (i == 0 && inputs[i].outer) {
      return Status::InvalidArgument("first join input cannot be outer");
    }
  }
  const size_t width = out_columns.size();

  // Map-join eligibility (MapJoinStreamedInput). Factorized inputs are
  // sized by their FLAT equivalent so the strategy choice matches the flat
  // path exactly (a factorized file is smaller; deciding on its stored
  // size could flip the join strategy and with it the output row order).
  std::vector<uint64_t> sizes;
  std::vector<bool> outer;
  for (const JoinInput& in : inputs) {
    sizes.push_back(in.flat_bytes != 0 ? in.flat_bytes
                                       : dataset_->VpFileBytes(in.file));
    outer.push_back(in.outer);
  }
  const int big = options_.enable_map_joins
                      ? MapJoinStreamedInput(
                            sizes, outer, options_.map_join_threshold_bytes)
                      : -1;
  const bool map_join = big >= 0;

  bool any_factorized = false;
  for (const JoinInput& in : inputs) {
    if (in.factor != nullptr) any_factorized = true;
  }
  if (any_factorized || factorize_output) {
    return FactJoin(name_hint, inputs, post_predicate, factorize_output,
                    map_join, big, out_columns, out_pos, join_idx);
  }

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = out_columns;

  mr::JobConfig job;
  job.name = name_hint + (map_join ? " (map-join)" : "");
  for (const JoinInput& in : inputs) job.inputs.push_back(in.file);
  job.output = out.file;

  // Shared copies for the closures.
  auto ins = std::make_shared<std::vector<JoinInput>>(inputs);

  if (map_join) {
    // CSR broadcast tables for every small input, probed through
    // HashIndex; the big side streams through width-strided cross-product
    // buffers kept in the task's scratch.
    auto tables =
        std::make_shared<std::vector<BroadcastTable>>(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (static_cast<int>(i) == big) continue;
      RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                              dataset_->dfs().Open(inputs[i].file));
      BuildBroadcast(inputs[i], f->records, join_idx[i], &(*tables)[i]);
    }
    job.map = [ins, tables, big, out_pos, join_idx, width, post_predicate](
                  const mr::Record& r, int tag, mr::MapContext* ctx) {
      if (tag != big) return;  // broadcast copies: scanned, not re-emitted
      MapScratch* s = ctx->TaskState<MapScratch>();
      const JoinInput& input = (*ins)[big];
      DecodeInputRowInto(input, r, &s->row);
      if (input.predicate && !input.predicate(s->row)) return;
      rdf::TermId key = s->row[join_idx[big]];
      // Start from the big row, fold in each small side.
      s->cur.assign(width, rdf::kInvalidTermId);
      for (size_t c = 0; c < s->row.size(); ++c) {
        s->cur[out_pos[big][c]] = s->row[c];
      }
      for (size_t i = 0; i < ins->size(); ++i) {
        if (i == static_cast<size_t>(big)) continue;
        const BroadcastTable& t = (*tables)[i];
        uint32_t id =
            t.index.Find(util::MixId(key), [&](uint32_t cand) {
              return t.keys[cand] == key;
            });
        if (id == util::HashIndex::kNotFound) {
          if (!(*ins)[i].outer) return;  // inner miss: no output
          continue;                      // outer: leave columns NULL
        }
        s->next.clear();
        for (size_t p = 0; p < s->cur.size() / width; ++p) {
          for (uint32_t g = t.GroupBegin(id); g < t.group_end[id]; ++g) {
            uint32_t r2 = t.row_of[g];
            size_t base = s->next.size();
            s->next.insert(s->next.end(), s->cur.begin() + p * width,
                           s->cur.begin() + (p + 1) * width);
            uint32_t cb = t.RowBegin(r2);
            for (uint32_t c = cb; c < t.row_end[r2]; ++c) {
              s->next[base + out_pos[i][c - cb]] = t.cells[c];
            }
          }
        }
        s->cur.swap(s->next);
      }
      for (size_t p = 0; p < s->cur.size() / width; ++p) {
        if (post_predicate) {
          s->pred_row.assign(s->cur.begin() + p * width,
                             s->cur.begin() + (p + 1) * width);
          if (!post_predicate(s->pred_row)) continue;
        }
        s->val_buf.clear();
        AppendRow(&s->val_buf, s->cur.data() + p * width, width);
        ctx->Emit("", s->val_buf);
      }
    };
  } else {
    // Repartition join: the map tags each row with its side; the reduce
    // keeps each side as a flat CSR pool in per-task scratch.
    job.map = [ins, join_idx](const mr::Record& r, int tag,
                              mr::MapContext* ctx) {
      MapScratch* s = ctx->TaskState<MapScratch>();
      const JoinInput& input = (*ins)[tag];
      DecodeInputRowInto(input, r, &s->row);
      if (input.predicate && !input.predicate(s->row)) return;
      s->key_buf.clear();
      mr::kernels::AppendDecimal(&s->key_buf, s->row[join_idx[tag]]);
      s->val_buf.clear();
      mr::kernels::AppendDecimal(&s->val_buf, static_cast<uint64_t>(tag));
      s->val_buf += '|';
      AppendRow(&s->val_buf, s->row.data(), s->row.size());
      ctx->Emit(s->key_buf, s->val_buf);
    };
    job.reduce = [ins, out_pos, width, post_predicate](
                     std::string_view /*key*/, const mr::ValueSpan& values,
                     mr::ReduceContext* ctx) {
      JoinReduceScratch* s = ctx->TaskState<JoinReduceScratch>();
      s->side_cells.resize(ins->size());
      s->side_end.resize(ins->size());
      for (size_t i = 0; i < ins->size(); ++i) {
        s->side_cells[i].clear();
        s->side_end[i].clear();
      }
      for (std::string_view v : values) {
        size_t bar = v.find('|');
        if (bar == std::string_view::npos) continue;
        int64_t tag = 0;
        ParseInt64(v.substr(0, bar), &tag);
        DecodeRowInto(v.substr(bar + 1), &s->row);
        auto& cells = s->side_cells[tag];
        cells.insert(cells.end(), s->row.begin(), s->row.end());
        s->side_end[tag].push_back(static_cast<uint32_t>(cells.size()));
      }
      if (s->side_end[0].empty()) return;
      s->cur.clear();
      for (size_t r = 0; r < s->side_end[0].size(); ++r) {
        size_t base = s->cur.size();
        s->cur.resize(base + width, rdf::kInvalidTermId);
        uint32_t cb = r == 0 ? 0 : s->side_end[0][r - 1];
        for (uint32_t c = cb; c < s->side_end[0][r]; ++c) {
          s->cur[base + out_pos[0][c - cb]] = s->side_cells[0][c];
        }
      }
      for (size_t i = 1; i < ins->size(); ++i) {
        if (s->side_end[i].empty()) {
          if (!(*ins)[i].outer) return;
          continue;
        }
        s->next.clear();
        for (size_t p = 0; p < s->cur.size() / width; ++p) {
          for (size_t r = 0; r < s->side_end[i].size(); ++r) {
            size_t base = s->next.size();
            s->next.insert(s->next.end(), s->cur.begin() + p * width,
                           s->cur.begin() + (p + 1) * width);
            uint32_t cb = r == 0 ? 0 : s->side_end[i][r - 1];
            for (uint32_t c = cb; c < s->side_end[i][r]; ++c) {
              s->next[base + out_pos[i][c - cb]] = s->side_cells[i][c];
            }
          }
        }
        s->cur.swap(s->next);
      }
      for (size_t p = 0; p < s->cur.size() / width; ++p) {
        if (post_predicate) {
          s->pred_row.assign(s->cur.begin() + p * width,
                             s->cur.begin() + (p + 1) * width);
          if (!post_predicate(s->pred_row)) continue;
        }
        s->val_buf.clear();
        AppendRow(&s->val_buf, s->cur.data() + p * width, width);
        ctx->Emit("", s->val_buf);
      }
    };
    // Pure function of (key, values): reducers may run concurrently.
    job.reduce_parallel_safe = true;
  }

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats ignored, cluster_->Run(job));
  (void)ignored;
  return out;
}

StatusOr<TableRef> RelationalOps::FactJoin(
    const std::string& name_hint, const std::vector<JoinInput>& inputs,
    RowPredicate post_predicate, bool factorize_output, bool map_join,
    int big, const std::vector<std::string>& out_columns,
    const std::vector<std::vector<int>>& out_pos,
    const std::vector<int>& join_idx) {
  const size_t width = out_columns.size();
  auto ins = std::make_shared<std::vector<JoinInput>>(inputs);
  auto plans = std::make_shared<std::vector<FactInputPlan>>(
      BuildFactInputPlans(inputs, join_idx));

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = out_columns;

  mr::JobConfig job;
  job.name = name_hint + (map_join ? " (map-join)" : "");
  for (const JoinInput& in : inputs) job.inputs.push_back(in.file);
  job.output = out.file;

  FactorizationPtr out_spec;

  if (map_join) {
    // ---- map-only path: broadcast every small side (factorized smalls
    // are decompressed at build time), stream the big side. Factorized
    // output: one group record per big row (or per big partial group)
    // instead of the enumerated cross product. ----
    auto hashes = std::make_shared<std::vector<
        std::unordered_map<rdf::TermId,
                           std::vector<std::vector<rdf::TermId>>>>>();
    hashes->resize(inputs.size());
    {
      GroupView gv;
      std::vector<rdf::TermId> tmp_row;
      for (size_t i = 0; i < inputs.size(); ++i) {
        if (static_cast<int>(i) == big) continue;
        RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                                dataset_->dfs().Open(inputs[i].file));
        for (const mr::Record& r : f->records) {
          if ((*plans)[i].spec != nullptr) {
            if (!ParseGroup(r.value(), (*plans)[i].spec->factors.size(), &gv)) {
              continue;
            }
            ForEachFlatRow(*(*plans)[i].spec, gv, &tmp_row,
                           [&](const std::vector<rdf::TermId>& fr) {
                             if (inputs[i].predicate &&
                                 !inputs[i].predicate(fr)) {
                               return;
                             }
                             (*hashes)[i][fr[static_cast<size_t>(
                                               join_idx[i])]]
                                 .push_back(fr);
                           });
          } else {
            std::vector<rdf::TermId> row = DecodeInputRow(inputs[i], r);
            if (inputs[i].predicate && !inputs[i].predicate(row)) continue;
            (*hashes)[i][row[static_cast<size_t>(join_idx[i])]].push_back(
                std::move(row));
          }
        }
      }
    }

    // Output spec: big side -> base (+ its factors when grouped), one
    // factor per small side. Any double-claimed position => stay flat.
    auto mjf = std::make_shared<MapJoinFactSpec>();
    if (factorize_output && post_predicate == nullptr) {
      auto spec = std::make_shared<Factorization>();
      spec->width = static_cast<int>(width);
      std::vector<bool> covered(width, false);
      bool ok = true;
      auto claim = [&covered, &ok](int pos) {
        if (covered[static_cast<size_t>(pos)]) {
          ok = false;
          return;
        }
        covered[static_cast<size_t>(pos)] = true;
      };
      const FactInputPlan& bp = (*plans)[static_cast<size_t>(big)];
      if (bp.grouped()) {
        for (int c : bp.partial->base_cols) {
          const int pos = out_pos[static_cast<size_t>(big)]
                                 [static_cast<size_t>(c)];
          claim(pos);
          spec->base_cols.push_back(pos);
        }
        for (const auto& cols : bp.partial->factors) {
          std::vector<int> f;
          for (int c : cols) {
            const int pos = out_pos[static_cast<size_t>(big)]
                                   [static_cast<size_t>(c)];
            claim(pos);
            f.push_back(pos);
          }
          spec->factors.push_back(std::move(f));
        }
      } else {
        for (size_t c = 0; c < inputs[static_cast<size_t>(big)].columns.size();
             ++c) {
          const int pos = out_pos[static_cast<size_t>(big)][c];
          claim(pos);
          spec->base_cols.push_back(pos);
        }
      }
      mjf->small_keep.resize(inputs.size());
      for (size_t i = 0; i < inputs.size(); ++i) {
        if (static_cast<int>(i) == big) continue;
        std::vector<int> f;
        std::vector<int> keep;
        for (size_t c = 0; c < inputs[i].columns.size(); ++c) {
          if (static_cast<int>(c) == join_idx[i]) continue;
          const int pos = out_pos[i][c];
          claim(pos);
          f.push_back(pos);
          keep.push_back(static_cast<int>(c));
        }
        spec->factors.push_back(std::move(f));
        mjf->small_keep[i] = std::move(keep);
      }
      if (ok) {
        mjf->spec = spec;
        out_spec = spec;
      }
    }

    job.map = [ins, plans, hashes, big, out_pos, join_idx, width,
               post_predicate, mjf](const mr::Record& r, int tag,
                                    mr::MapContext* ctx) {
      if (tag != big) return;  // broadcast copies: scanned, not re-emitted
      const JoinInput& input = (*ins)[static_cast<size_t>(big)];
      const FactInputPlan& bp = (*plans)[static_cast<size_t>(big)];
      const bool fact_out = mjf->spec != nullptr;

      // Flat fold of one big row (flat output).
      auto fold_row = [&](const std::vector<rdf::TermId>& row) {
        rdf::TermId key = row[static_cast<size_t>(join_idx[big])];
        std::vector<std::vector<rdf::TermId>> results;
        {
          std::vector<rdf::TermId> base(width, rdf::kInvalidTermId);
          for (size_t c = 0; c < row.size(); ++c) {
            base[static_cast<size_t>(out_pos[static_cast<size_t>(big)][c])] =
                row[c];
          }
          results.push_back(std::move(base));
        }
        for (size_t i = 0; i < ins->size(); ++i) {
          if (i == static_cast<size_t>(big)) continue;
          auto it = (*hashes)[i].find(key);
          bool empty = it == (*hashes)[i].end() || it->second.empty();
          if (empty) {
            if (!(*ins)[i].outer) return;
            continue;
          }
          std::vector<std::vector<rdf::TermId>> next;
          for (const auto& partial : results) {
            for (const auto& srow : it->second) {
              std::vector<rdf::TermId> merged = partial;
              for (size_t c = 0; c < srow.size(); ++c) {
                merged[static_cast<size_t>(out_pos[i][c])] = srow[c];
              }
              next.push_back(std::move(merged));
            }
          }
          results = std::move(next);
        }
        for (const auto& merged : results) {
          if (post_predicate && !post_predicate(merged)) continue;
          ctx->Emit("", EncodeRow(merged));
        }
      };

      // One output group per big row (factorized output, flat big side).
      auto group_row = [&](const std::vector<rdf::TermId>& row) {
        rdf::TermId key = row[static_cast<size_t>(join_idx[big])];
        std::vector<const std::vector<std::vector<rdf::TermId>>*> matches(
            ins->size(), nullptr);
        for (size_t i = 0; i < ins->size(); ++i) {
          if (i == static_cast<size_t>(big)) continue;
          auto it = (*hashes)[i].find(key);
          bool empty = it == (*hashes)[i].end() || it->second.empty();
          if (empty) {
            if (!(*ins)[i].outer) return;  // inner miss: no output
            continue;                      // outer: NULL factor row below
          }
          matches[i] = &it->second;
        }
        GroupEncoder enc;
        enc.Start();
        for (size_t c = 0; c < row.size(); ++c) enc.AddBaseCell(row[c]);
        std::vector<rdf::TermId> cells;
        for (size_t i = 0; i < ins->size(); ++i) {
          if (i == static_cast<size_t>(big)) continue;
          const auto& keep = mjf->small_keep[i];
          enc.StartFactor();
          if (matches[i] == nullptr) {
            cells.assign(keep.size(), rdf::kInvalidTermId);
            enc.AddFactorRow(cells.data(), cells.size());
          } else {
            for (const auto& srow : *matches[i]) {
              cells.clear();
              for (int c : keep) {
                cells.push_back(srow[static_cast<size_t>(c)]);
              }
              enc.AddFactorRow(cells.data(), cells.size());
            }
          }
        }
        ctx->Emit("", enc.Finish());
        ctx->NoteFactorizedGroup(enc.flat_rows());
      };

      if (bp.spec == nullptr) {
        std::vector<rdf::TermId> row = DecodeInputRow(input, r);
        if (input.predicate && !input.predicate(row)) return;
        if (fact_out) {
          group_row(row);
        } else {
          fold_row(row);
        }
        return;
      }
      GroupView view;
      if (!ParseGroup(r.value(), bp.spec->factors.size(), &view)) return;
      if (bp.stream || (!fact_out && bp.grouped())) {
        // Stream-decompress the big side (predicate present, or the output
        // must be flat anyway).
        std::vector<rdf::TermId> row;
        ForEachFlatRow(*bp.spec, view, &row,
                       [&](const std::vector<rdf::TermId>& fr) {
                         if (input.predicate && !input.predicate(fr)) return;
                         if (fact_out) {
                           group_row(fr);
                         } else {
                           fold_row(fr);
                         }
                       });
        return;
      }

      // Grouped big side, factorized output: pass the group through,
      // appending one matched factor per small side.
      auto append_smalls = [&](GroupEncoder* enc, rdf::TermId key) {
        std::vector<rdf::TermId> cells;
        for (size_t i = 0; i < ins->size(); ++i) {
          if (i == static_cast<size_t>(big)) continue;
          const auto& keep = mjf->small_keep[i];
          auto it = (*hashes)[i].find(key);
          bool empty = it == (*hashes)[i].end() || it->second.empty();
          enc->StartFactor();
          if (empty) {
            cells.assign(keep.size(), rdf::kInvalidTermId);
            enc->AddFactorRow(cells.data(), cells.size());
          } else {
            for (const auto& srow : it->second) {
              cells.clear();
              for (int c : keep) cells.push_back(srow[static_cast<size_t>(c)]);
              enc->AddFactorRow(cells.data(), cells.size());
            }
          }
        }
      };
      auto probe_all = [&](rdf::TermId key) {
        for (size_t i = 0; i < ins->size(); ++i) {
          if (i == static_cast<size_t>(big) || (*ins)[i].outer) continue;
          auto it = (*hashes)[i].find(key);
          if (it == (*hashes)[i].end() || it->second.empty()) return false;
        }
        return true;
      };

      GroupEncoder enc;
      if (bp.join_factor < 0) {
        rdf::TermId key = rdf::kInvalidTermId;
        if (bp.join_slot >= 0) {
          std::vector<rdf::TermId> base;
          DecodeFactorRowInto(view.base, bp.spec->base_cols.size(), &base);
          key = base[static_cast<size_t>(bp.join_slot)];
        }
        if (!probe_all(key)) return;
        enc.Start();
        enc.AddRawBase(view.base);
        for (size_t g = 0; g < bp.spec->factors.size(); ++g) {
          enc.AddRawFactor(FactorSegment(view, g), view.FactorRows(g));
        }
        append_smalls(&enc, key);
        ctx->Emit("", enc.Finish());
        ctx->NoteFactorizedGroup(enc.flat_rows());
        return;
      }
      // Join column inside a factor: bind one of its rows per emission.
      const size_t j = static_cast<size_t>(bp.join_factor);
      const auto& jcols = bp.spec->factors[j];
      std::vector<rdf::TermId> cells;
      for (size_t t = view.FactorBegin(j); t < view.factor_end[j]; ++t) {
        DecodeFactorRowInto(view.rows[t], jcols.size(), &cells);
        rdf::TermId key = cells[static_cast<size_t>(bp.join_slot)];
        if (!probe_all(key)) continue;
        enc.Start();
        enc.AddRawBase(view.base);
        for (rdf::TermId c : cells) enc.AddBaseCell(c);
        for (size_t g = 0; g < bp.spec->factors.size(); ++g) {
          if (g == j) continue;
          enc.AddRawFactor(FactorSegment(view, g), view.FactorRows(g));
        }
        append_smalls(&enc, key);
        ctx->Emit("", enc.Finish());
        ctx->NoteFactorizedGroup(enc.flat_rows());
      }
    };
  } else {
    // ---- repartition path ----
    std::shared_ptr<FactOutAssembly> asmbl;
    if (factorize_output && post_predicate == nullptr && inputs.size() >= 2) {
      asmbl = std::make_shared<FactOutAssembly>(
          BuildFactOutput(inputs, *plans, out_pos, join_idx, width));
      out_spec = asmbl->spec;
    }

    job.map = [ins, plans, join_idx](const mr::Record& r, int tag,
                                     mr::MapContext* ctx) {
      const JoinInput& input = (*ins)[static_cast<size_t>(tag)];
      const FactInputPlan& p = (*plans)[static_cast<size_t>(tag)];
      if (p.spec == nullptr) {
        std::vector<rdf::TermId> row = DecodeInputRow(input, r);
        if (input.predicate && !input.predicate(row)) return;
        ctx->Emit(std::to_string(row[static_cast<size_t>(join_idx[tag])]),
                  std::to_string(tag) + "|" + EncodeRow(row));
        return;
      }
      GroupView view;
      if (!ParseGroup(r.value(), p.spec->factors.size(), &view)) return;
      if (p.stream) {
        std::vector<rdf::TermId> row;
        ForEachFlatRow(
            *p.spec, view, &row, [&](const std::vector<rdf::TermId>& fr) {
              if (input.predicate && !input.predicate(fr)) return;
              ctx->Emit(
                  std::to_string(fr[static_cast<size_t>(join_idx[tag])]),
                  std::to_string(tag) + "|" + EncodeRow(fr));
            });
        return;
      }
      if (p.join_factor < 0) {
        // Join column in the base (or uncovered: NULL): ship the whole
        // group through the shuffle untouched.
        rdf::TermId key = rdf::kInvalidTermId;
        if (p.join_slot >= 0) {
          std::vector<rdf::TermId> base;
          DecodeFactorRowInto(view.base, p.spec->base_cols.size(), &base);
          key = base[static_cast<size_t>(p.join_slot)];
        }
        std::string val = std::to_string(tag) + "#";
        val.append(r.value());
        ctx->Emit(std::to_string(key), val);
        return;
      }
      // Partial decompression: consume the join factor into the partial
      // base, one emission per join-factor row; every other factor stays
      // compressed across the shuffle.
      const size_t j = static_cast<size_t>(p.join_factor);
      const auto& jcols = p.spec->factors[j];
      std::vector<rdf::TermId> cells;
      for (size_t t = view.FactorBegin(j); t < view.factor_end[j]; ++t) {
        DecodeFactorRowInto(view.rows[t], jcols.size(), &cells);
        std::string val = std::to_string(tag) + "#";
        val.append(view.base.data(), view.base.size());
        if (!p.spec->base_cols.empty()) val += ',';
        AppendRow(&val, cells);
        for (size_t g = 0; g < p.spec->factors.size(); ++g) {
          if (g == j) continue;
          val += '|';
          std::string_view seg = FactorSegment(view, g);
          val.append(seg.data(), seg.size());
        }
        ctx->Emit(std::to_string(cells[static_cast<size_t>(p.join_slot)]),
                  val);
      }
    };

    if (out_spec != nullptr) {
      // Factorized output: cross the sides' partial groups per key; flat
      // sides contribute one shared factor each.
      job.reduce = [ins, plans, asmbl](std::string_view key,
                                       const mr::ValueSpan& values,
                                       mr::ReduceContext* ctx) {
        const size_t n = ins->size();
        std::vector<std::vector<std::vector<rdf::TermId>>> rows(n);
        std::vector<std::vector<FactEntry>> entries(n);
        GroupView gv;
        for (std::string_view v : values) {
          size_t bar = v.find_first_of("|#");
          if (bar == std::string_view::npos || bar + 1 >= v.size()) continue;
          int64_t tag = 0;
          ParseInt64(v.substr(0, bar), &tag);
          const char kind = v[bar] == '|' ? 'F' : 'G';
          std::string_view payload = v.substr(bar + 1);
          if (kind == 'F') {
            rows[static_cast<size_t>(tag)].push_back(DecodeRow(payload));
            continue;
          }
          const Factorization& partial =
              *(*plans)[static_cast<size_t>(tag)].partial;
          if (!ParseGroup(payload, partial.factors.size(), &gv)) continue;
          FactEntry e;
          DecodeFactorRowInto(gv.base, partial.base_cols.size(), &e.base);
          for (size_t g = 0; g < partial.factors.size(); ++g) {
            e.fsegs.emplace_back(FactorSegment(gv, g));
            e.frows.push_back(gv.FactorRows(g));
          }
          entries[static_cast<size_t>(tag)].push_back(std::move(e));
        }
        for (size_t i = 0; i < n; ++i) {
          const bool grouped = (*plans)[i].grouped();
          const bool present = grouped ? !entries[i].empty() : !rows[i].empty();
          if (present) continue;
          if (i == 0 || !(*ins)[i].outer) return;  // inner miss
          if (grouped) {
            entries[i].push_back(NullEntry(*(*plans)[i].partial));
          } else {
            rows[i].emplace_back((*ins)[i].columns.size(),
                                 rdf::kInvalidTermId);
          }
        }
        int64_t kv = 0;
        ParseDigits(key, &kv);
        // Flat sides' factor segments are shared by every emitted group.
        std::vector<std::string> flat_seg(n);
        std::vector<uint64_t> flat_count(n);
        for (size_t i = 0; i < n; ++i) {
          if ((*plans)[i].grouped()) continue;
          const auto& keep = asmbl->flat_cols[i];
          std::string& seg = flat_seg[i];
          for (const auto& row : rows[i]) {
            if (flat_count[i] > 0) seg += ';';
            ++flat_count[i];
            bool first = true;
            for (int c : keep) {
              if (!first) seg += ',';
              first = false;
              mr::kernels::AppendDecimal(&seg, row[static_cast<size_t>(c)]);
            }
          }
        }
        std::vector<size_t> gsides;
        for (size_t i = 0; i < n; ++i) {
          if ((*plans)[i].grouped()) gsides.push_back(i);
        }
        std::vector<size_t> idx(gsides.size(), 0);
        GroupEncoder enc;
        for (;;) {
          enc.Start();
          enc.AddBaseCell(static_cast<rdf::TermId>(kv));
          for (size_t gi = 0; gi < gsides.size(); ++gi) {
            const FactEntry& e = entries[gsides[gi]][idx[gi]];
            for (int slot : asmbl->base_keep[gsides[gi]]) {
              enc.AddBaseCell(e.base[static_cast<size_t>(slot)]);
            }
          }
          for (size_t i = 0, gi = 0; i < n; ++i) {
            if ((*plans)[i].grouped()) {
              const FactEntry& e = entries[i][idx[gi]];
              for (size_t g = 0; g < e.fsegs.size(); ++g) {
                enc.AddRawFactor(e.fsegs[g], e.frows[g]);
              }
              ++gi;
            } else {
              enc.AddRawFactor(flat_seg[i], flat_count[i]);
            }
          }
          ctx->Emit("", enc.Finish());
          ctx->NoteFactorizedGroup(enc.flat_rows());
          size_t g = gsides.size();
          for (;;) {
            if (g == 0) return;
            --g;
            if (++idx[g] < entries[gsides[g]].size()) break;
            idx[g] = 0;
          }
        }
      };
    } else {
      // Flat output: decompress every side, then the standard fold.
      const size_t w = width;
      job.reduce = [ins, plans, out_pos, w, post_predicate](
                       std::string_view /*key*/, const mr::ValueSpan& values,
                       mr::ReduceContext* ctx) {
        std::vector<std::vector<std::vector<rdf::TermId>>> sides(ins->size());
        GroupView gv;
        std::vector<rdf::TermId> scratch;
        for (std::string_view v : values) {
          size_t bar = v.find_first_of("|#");
          if (bar == std::string_view::npos || bar + 1 >= v.size()) continue;
          int64_t tag = 0;
          ParseInt64(v.substr(0, bar), &tag);
          const char kind = v[bar] == '|' ? 'F' : 'G';
          std::string_view payload = v.substr(bar + 1);
          auto& side = sides[static_cast<size_t>(tag)];
          if (kind == 'F') {
            side.push_back(DecodeRow(payload));
            continue;
          }
          const Factorization& partial =
              *(*plans)[static_cast<size_t>(tag)].partial;
          if (!ParseGroup(payload, partial.factors.size(), &gv)) continue;
          ForEachFlatRow(partial, gv, &scratch,
                         [&side](const std::vector<rdf::TermId>& fr) {
                           side.push_back(fr);
                         });
        }
        if (sides[0].empty()) return;
        std::vector<std::vector<rdf::TermId>> results;
        for (const auto& row : sides[0]) {
          std::vector<rdf::TermId> base(w, rdf::kInvalidTermId);
          for (size_t c = 0; c < row.size(); ++c) {
            base[static_cast<size_t>(out_pos[0][c])] = row[c];
          }
          results.push_back(std::move(base));
        }
        for (size_t i = 1; i < ins->size(); ++i) {
          if (sides[i].empty()) {
            if (!(*ins)[i].outer) return;
            continue;
          }
          std::vector<std::vector<rdf::TermId>> next;
          for (const auto& partial : results) {
            for (const auto& srow : sides[i]) {
              std::vector<rdf::TermId> merged = partial;
              for (size_t c = 0; c < srow.size(); ++c) {
                merged[static_cast<size_t>(out_pos[i][c])] = srow[c];
              }
              next.push_back(std::move(merged));
            }
          }
          results = std::move(next);
        }
        for (const auto& merged : results) {
          if (post_predicate && !post_predicate(merged)) continue;
          ctx->Emit("", EncodeRow(merged));
        }
      };
    }
    job.reduce_parallel_safe = true;
  }

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats ignored, cluster_->Run(job));
  (void)ignored;
  if (out_spec != nullptr) {
    out.factor = out_spec;
    RAPIDA_ASSIGN_OR_RETURN(out.flat_bytes, FlatStoredBytes(out));
  }
  return out;
}

StatusOr<TableRef> RelationalOps::UnionAll(
    const std::string& name_hint, const std::vector<TableRef>& inputs) {
  RAPIDA_CHECK(!inputs.empty());
  // Unified layout plus, per input, the mapping from its columns to
  // output positions (same scheme as Join's layout).
  std::vector<std::string> out_columns = inputs[0].columns;
  std::vector<std::vector<int>> out_pos(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (const std::string& name : inputs[i].columns) {
      auto it = std::find(out_columns.begin(), out_columns.end(), name);
      int pos;
      if (it == out_columns.end()) {
        pos = static_cast<int>(out_columns.size());
        out_columns.push_back(name);
      } else {
        pos = static_cast<int>(it - out_columns.begin());
      }
      out_pos[i].push_back(pos);
    }
  }
  const size_t width = out_columns.size();

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = out_columns;

  mr::JobConfig job;
  job.name = name_hint + " (map-only)";
  for (const TableRef& t : inputs) job.inputs.push_back(t.file);
  job.output = out.file;

  bool any_factorized = false;
  for (const TableRef& t : inputs) any_factorized |= t.factorized();

  if (any_factorized) {
    // Stream-decompress factorized branches: UNION output must be flat
    // (branch layouts differ) and rows enumerate in exact flat order.
    auto factors = std::make_shared<std::vector<FactorizationPtr>>();
    for (const TableRef& t : inputs) factors->push_back(t.factor);
    job.map = [factors, out_pos, width](const mr::Record& r, int tag,
                                        mr::MapContext* ctx) {
      const std::vector<int>& pos = out_pos[static_cast<size_t>(tag)];
      std::vector<rdf::TermId> padded(width, rdf::kInvalidTermId);
      auto emit = [&](const std::vector<rdf::TermId>& row) {
        padded.assign(width, rdf::kInvalidTermId);
        for (size_t c = 0; c < row.size() && c < pos.size(); ++c) {
          padded[static_cast<size_t>(pos[c])] = row[c];
        }
        ctx->Emit("", EncodeRow(padded));
      };
      const FactorizationPtr& spec = (*factors)[static_cast<size_t>(tag)];
      if (spec == nullptr) {
        emit(DecodeRow(r.value()));
        return;
      }
      GroupView view;
      if (!ParseGroup(r.value(), spec->factors.size(), &view)) return;
      std::vector<rdf::TermId> row;
      ForEachFlatRow(*spec, view, &row, emit);
    };
  } else {
    job.map = [out_pos, width](const mr::Record& r, int tag,
                               mr::MapContext* ctx) {
      MapScratch* s = ctx->TaskState<MapScratch>();
      DecodeRowInto(r.value(), &s->row);
      const std::vector<int>& pos = out_pos[tag];
      s->cur.assign(width, rdf::kInvalidTermId);
      for (size_t c = 0; c < s->row.size() && c < pos.size(); ++c) {
        s->cur[pos[c]] = s->row[c];
      }
      s->val_buf.clear();
      AppendRow(&s->val_buf, s->cur);
      ctx->Emit("", s->val_buf);
    };
  }

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;
  return out;
}

StatusOr<TableRef> RelationalOps::GroupBy(
    const std::string& name_hint, const TableRef& input,
    const std::vector<std::string>& key_columns,
    const std::vector<AggColumn>& aggs, RowPredicate having) {
  std::vector<int> key_idx;
  for (const std::string& k : key_columns) {
    int i = input.ColumnIndex(k);
    if (i < 0) {
      return Status::InvalidArgument("group key column '" + k +
                                     "' not in input");
    }
    key_idx.push_back(i);
  }
  std::vector<int> agg_idx;
  for (const AggColumn& a : aggs) {
    if (a.count_star) {
      agg_idx.push_back(-1);
      continue;
    }
    int i = input.ColumnIndex(a.column);
    if (i < 0) {
      return Status::InvalidArgument("aggregate column '" + a.column +
                                     "' not in input");
    }
    agg_idx.push_back(i);
  }

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = key_columns;
  for (const AggColumn& a : aggs) out.columns.push_back(a.output_name);

  rdf::Dictionary* dict = &dataset_->dict();
  auto agg_specs = std::make_shared<std::vector<AggColumn>>(aggs);

  mr::JobConfig job;
  job.name = name_hint;
  job.inputs = {input.file};
  job.output = out.file;

  auto make_aggs = [agg_specs]() {
    std::vector<Aggregator> out_aggs;
    for (const AggColumn& a : *agg_specs) {
      out_aggs.emplace_back(a.func, /*distinct=*/false, a.separator);
    }
    return out_aggs;
  };

  using PartialMap = std::map<std::string, std::vector<Aggregator>>;
  auto flush_partials = [](mr::MapContext* ctx) {
    PartialMap* partials = ctx->TaskState<PartialMap>();
    for (auto& [key, agg_list] : *partials) {
      std::string value = "P";
      for (const Aggregator& a : agg_list) {
        value += '|';
        value += a.SerializePartial();
      }
      ctx->Emit(key, value);
    }
    partials->clear();
  };

  bool weighted_safe = options_.partial_aggregation;
  for (const AggColumn& a : aggs) {
    // Float addition is grouping-sensitive: SUM/AVG pipelines must see the
    // same add order as the flat path, so they are never aggregated by
    // weight (the planner also keeps them flat upstream).
    if (a.func == sparql::AggFunc::kSum || a.func == sparql::AggFunc::kAvg) {
      weighted_safe = false;
    }
  }

  if (input.factorized() && weighted_safe) {
    // Weighted direct path: aggregate group records WITHOUT enumerating
    // their flat rows — the multiplicity of every cell is a product of the
    // other factors' row counts. This is where the factorization factor
    // turns into saved work.
    FactorizationPtr spec = input.factor;
    auto loc = std::make_shared<std::vector<CellLoc>>(LocateCells(*spec));
    auto is_e = std::make_shared<std::vector<bool>>(spec->factors.size(),
                                                    false);
    for (int k : key_idx) {
      if ((*loc)[static_cast<size_t>(k)].kind == CellLoc::kFactor) {
        (*is_e)[static_cast<size_t>((*loc)[static_cast<size_t>(k)].factor)] =
            true;
      }
    }
    job.map = [spec, loc, is_e, key_idx, agg_idx, dict, make_aggs](
                  const mr::Record& r, int, mr::MapContext* ctx) {
      GroupView view;
      if (!ParseGroup(r.value(), spec->factors.size(), &view)) return;
      PartialMap* partials = ctx->TaskState<PartialMap>();
      const size_t nf = spec->factors.size();
      std::vector<rdf::TermId> base(static_cast<size_t>(spec->width),
                                    rdf::kInvalidTermId);
      DecodeCellsInto(view.base, spec->base_cols, &base);
      // Decode every factor's rows; key-bearing factors are enumerated
      // (their rows split the group across keys), the rest contribute
      // multiplicity only.
      std::vector<std::vector<std::vector<rdf::TermId>>> cells(nf);
      std::vector<size_t> efactors;
      uint64_t mult = 1;
      for (size_t f = 0; f < nf; ++f) {
        const size_t rows = view.FactorRows(f);
        if (rows == 0) return;  // empty factor: zero flat rows
        cells[f].resize(rows);
        for (size_t t = 0; t < rows; ++t) {
          DecodeFactorRowInto(view.rows[view.FactorBegin(f) + t],
                              spec->factors[f].size(), &cells[f][t]);
        }
        if ((*is_e)[f]) {
          efactors.push_back(f);
        } else {
          mult *= rows;
        }
      }
      std::vector<size_t> idx(efactors.size(), 0);
      std::vector<rdf::TermId> key;
      auto cell_at = [&](int pos) -> rdf::TermId {
        const CellLoc& l = (*loc)[static_cast<size_t>(pos)];
        if (l.kind != CellLoc::kFactor) {
          return base[static_cast<size_t>(pos)];  // base cell or NULL
        }
        const size_t f = static_cast<size_t>(l.factor);
        size_t which = 0;
        while (efactors[which] != f) ++which;
        return cells[f][idx[which]][static_cast<size_t>(l.slot)];
      };
      for (;;) {
        key.clear();
        for (int k : key_idx) key.push_back(cell_at(k));
        auto [it, inserted] = partials->emplace(EncodeRow(key), make_aggs());
        std::vector<Aggregator>& agg_list = it->second;
        for (size_t a = 0; a < agg_idx.size(); ++a) {
          if (agg_idx[a] < 0) {
            agg_list[a].AddRowWeighted(mult);
            continue;
          }
          const CellLoc& l = (*loc)[static_cast<size_t>(agg_idx[a])];
          if (l.kind == CellLoc::kFactor &&
              !(*is_e)[static_cast<size_t>(l.factor)]) {
            // Aggregated column varies within a multiplicity factor: each
            // of its rows appears in mult / rows-of-factor flat rows.
            const size_t f = static_cast<size_t>(l.factor);
            const uint64_t w = mult / cells[f].size();
            for (const auto& frow : cells[f]) {
              agg_list[a].AddTermWeighted(frow[static_cast<size_t>(l.slot)],
                                          *dict, w);
            }
          } else {
            agg_list[a].AddTermWeighted(cell_at(agg_idx[a]), *dict, mult);
          }
        }
        size_t e = efactors.size();
        for (;;) {
          if (e == 0) return;
          --e;
          if (++idx[e] < cells[efactors[e]].size()) break;
          idx[e] = 0;
        }
      }
    };
    job.map_finish = flush_partials;
  } else if (input.factorized()) {
    // Stream-decompress, then the flat per-row behavior on each flat row
    // (raw mode, or an order-sensitive aggregate slipped through).
    FactorizationPtr spec = input.factor;
    const bool partial = options_.partial_aggregation;
    job.map = [spec, key_idx, agg_idx, dict, make_aggs, partial](
                  const mr::Record& r, int, mr::MapContext* ctx) {
      GroupView view;
      if (!ParseGroup(r.value(), spec->factors.size(), &view)) return;
      std::vector<rdf::TermId> row;
      ForEachFlatRow(
          *spec, view, &row, [&](const std::vector<rdf::TermId>& fr) {
            std::vector<rdf::TermId> key;
            for (int i : key_idx) key.push_back(fr[static_cast<size_t>(i)]);
            if (partial) {
              PartialMap* partials = ctx->TaskState<PartialMap>();
              auto [it, inserted] =
                  partials->emplace(EncodeRow(key), make_aggs());
              for (size_t a = 0; a < agg_idx.size(); ++a) {
                if (agg_idx[a] < 0) {
                  it->second[a].AddRow();
                } else {
                  it->second[a].AddTerm(fr[static_cast<size_t>(agg_idx[a])],
                                        *dict);
                }
              }
              return;
            }
            std::vector<rdf::TermId> args;
            for (int i : agg_idx) {
              args.push_back(i < 0 ? rdf::kInvalidTermId
                                   : fr[static_cast<size_t>(i)]);
            }
            ctx->Emit(EncodeRow(key), "R|" + EncodeRow(args));
          });
    };
    if (options_.partial_aggregation) job.map_finish = flush_partials;
  } else if (options_.partial_aggregation) {
    // Hash-based map-side pre-aggregation (the relational analogue of
    // Alg. 3's multiAggMap). The table lives in per-task state so
    // concurrent map tasks accumulate independently; map_finish flushes
    // it in insertion order (keys are unique per task and the shuffle
    // sorts by key).
    job.map = [key_idx, agg_idx, dict, make_aggs](const mr::Record& r, int,
                                                  mr::MapContext* ctx) {
      PartialAggScratch* s = ctx->TaskState<PartialAggScratch>();
      DecodeRowInto(r.value(), &s->row);
      s->key_buf.clear();
      for (size_t k = 0; k < key_idx.size(); ++k) {
        if (k > 0) s->key_buf += ',';
        mr::kernels::AppendDecimal(&s->key_buf, s->row[key_idx[k]]);
      }
      auto [id, inserted] = s->index.FindOrInsert(
          mr::HashKey(s->key_buf), static_cast<uint32_t>(s->keys.size()),
          [&](uint32_t cand) { return s->keys[cand] == s->key_buf; });
      if (inserted) {
        s->keys.push_back(s->key_buf);
        s->agg_rows.push_back(make_aggs());
      }
      std::vector<Aggregator>& agg_list = s->agg_rows[id];
      for (size_t a = 0; a < agg_idx.size(); ++a) {
        if (agg_idx[a] < 0) {
          agg_list[a].AddRow();
        } else {
          agg_list[a].AddTerm(s->row[agg_idx[a]], *dict);
        }
      }
    };
    job.map_finish = [](mr::MapContext* ctx) {
      PartialAggScratch* s = ctx->TaskState<PartialAggScratch>();
      for (size_t id = 0; id < s->keys.size(); ++id) {
        std::string value = "P";
        for (const Aggregator& a : s->agg_rows[id]) {
          value += '|';
          value += a.SerializePartial();
        }
        ctx->Emit(s->keys[id], value);
      }
    };
  } else {
    job.map = [key_idx, agg_idx](const mr::Record& r, int,
                                 mr::MapContext* ctx) {
      MapScratch* s = ctx->TaskState<MapScratch>();
      DecodeRowInto(r.value(), &s->row);
      s->key_buf.clear();
      for (size_t k = 0; k < key_idx.size(); ++k) {
        if (k > 0) s->key_buf += ',';
        mr::kernels::AppendDecimal(&s->key_buf, s->row[key_idx[k]]);
      }
      s->val_buf.assign("R|");
      for (size_t a = 0; a < agg_idx.size(); ++a) {
        if (a > 0) s->val_buf += ',';
        mr::kernels::AppendDecimal(
            &s->val_buf,
            agg_idx[a] < 0 ? rdf::kInvalidTermId : s->row[agg_idx[a]]);
      }
      ctx->Emit(s->key_buf, s->val_buf);
    };
  }

  // The aggregator list resets per key group; the decode and emit buffers
  // are per-task scratch reused across groups.
  struct ReduceScratch {
    std::vector<rdf::TermId> args, out_row;
    std::string val_buf;
  };
  job.reduce = [agg_specs, dict, make_aggs, having](
                   std::string_view key, const mr::ValueSpan& values,
                   mr::ReduceContext* ctx) {
    ReduceScratch* s = ctx->TaskState<ReduceScratch>();
    std::vector<Aggregator> agg_list = make_aggs();
    for (std::string_view v : values) {
      if (v.empty()) continue;
      if (v[0] == 'P') {
        FieldTokenizer parts(v, '|');
        std::string_view part;
        parts.Next(&part);  // the "P" marker
        for (size_t a = 0; a < agg_list.size() && parts.Next(&part); ++a) {
          auto partial = Aggregator::DeserializePartial(
              (*agg_specs)[a].func, part, (*agg_specs)[a].separator);
          if (partial.ok()) agg_list[a].Merge(*partial, *dict);
        }
      } else if (v[0] == 'R') {
        DecodeRowInto(v.substr(2), &s->args);
        for (size_t a = 0; a < agg_list.size() && a < s->args.size(); ++a) {
          if ((*agg_specs)[a].count_star) {
            agg_list[a].AddRow();
          } else {
            agg_list[a].AddTerm(s->args[a], *dict);
          }
        }
      }
    }
    DecodeRowInto(key, &s->out_row);
    for (Aggregator& a : agg_list) s->out_row.push_back(a.Finalize(dict));
    if (having != nullptr && !having(s->out_row)) return;
    s->val_buf.clear();
    AppendRow(&s->val_buf, s->out_row);
    ctx->Emit("", s->val_buf);
  };

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;

  // GROUP BY ALL over an empty input still produces one default row
  // (SPARQL: COUNT over the empty group is 0). Only when the *input* was
  // empty — an empty output over non-empty input means HAVING filtered
  // the single ALL-group, which must stay filtered.
  if (key_columns.empty()) {
    RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* in_f,
                            dataset_->dfs().Open(input.file));
    RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                            dataset_->dfs().Open(out.file));
    if (f->records.empty() && in_f->records.empty()) {
      std::vector<rdf::TermId> row;
      for (const AggColumn& a : aggs) {
        Aggregator empty(a.func, false, a.separator);
        row.push_back(empty.Finalize(dict));
      }
      if (having == nullptr || having(row)) {
        mr::RecordBatch batch;
        batch.Add("", EncodeRow(row));
        RAPIDA_RETURN_IF_ERROR(
            dataset_->dfs().Write(out.file, std::move(batch)));
      }
    }
  }
  return out;
}

StatusOr<TableRef> RelationalOps::DistinctProject(
    const std::string& name_hint, const TableRef& input,
    const std::vector<std::string>& columns, RowPredicate keep_predicate) {
  std::vector<int> idx;
  for (const std::string& c : columns) {
    int i = input.ColumnIndex(c);
    if (i < 0) {
      return Status::InvalidArgument("projection column '" + c +
                                     "' not in input");
    }
    idx.push_back(i);
  }
  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = columns;

  mr::JobConfig job;
  job.name = name_hint;
  job.inputs = {input.file};
  job.output = out.file;
  if (input.factorized()) {
    // Stream-decompress group records; the reduce-side dedup makes the
    // enumeration order immaterial (DISTINCT is order-insensitive), which
    // is exactly why the planner may factorize up to this sink.
    FactorizationPtr spec = input.factor;
    job.map = [spec, idx, keep_predicate](const mr::Record& r, int,
                                          mr::MapContext* ctx) {
      GroupView view;
      if (!ParseGroup(r.value(), spec->factors.size(), &view)) return;
      std::vector<rdf::TermId> row;
      std::vector<rdf::TermId> projected;
      ForEachFlatRow(*spec, view, &row,
                     [&](const std::vector<rdf::TermId>& fr) {
                       if (keep_predicate && !keep_predicate(fr)) return;
                       projected.clear();
                       for (int i : idx) {
                         projected.push_back(fr[static_cast<size_t>(i)]);
                       }
                       ctx->Emit(EncodeRow(projected), "");
                     });
    };
  } else {
    job.map = [idx, keep_predicate](const mr::Record& r, int,
                                    mr::MapContext* ctx) {
      MapScratch* s = ctx->TaskState<MapScratch>();
      DecodeRowInto(r.value(), &s->row);
      if (keep_predicate && !keep_predicate(s->row)) return;
      s->key_buf.clear();
      for (size_t k = 0; k < idx.size(); ++k) {
        if (k > 0) s->key_buf += ',';
        mr::kernels::AppendDecimal(&s->key_buf, s->row[idx[k]]);
      }
      ctx->Emit(s->key_buf, "");
    };
  }
  // Combiner dedups map-side; reduce emits one row per distinct key.
  job.combine = [](std::string_view key, const mr::ValueSpan&,
                   mr::ReduceContext* ctx) { ctx->Emit(key, ""); };
  job.reduce = [](std::string_view key, const mr::ValueSpan&,
                  mr::ReduceContext* ctx) { ctx->Emit("", key); };
  job.reduce_parallel_safe = true;

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;
  return out;
}

ProjectedResult JoinAndProject(std::vector<analytics::BindingTable> tables,
                               const std::vector<sparql::SelectItem>& items,
                               rdf::Dictionary* dict) {
  RAPIDA_CHECK(!tables.empty());
  analytics::BindingTable joined = std::move(tables[0]);
  for (size_t i = 1; i < tables.size(); ++i) joined = joined.Join(tables[i]);

  ProjectedResult out;
  for (const sparql::SelectItem& item : items) out.columns.push_back(item.name);
  for (const auto& row : joined.rows()) {
    auto resolve = [&joined, &row](const std::string& v) {
      int i = joined.VarIndex(v);
      return i < 0 ? rdf::kInvalidTermId : row[i];
    };
    std::vector<rdf::TermId> out_row;
    for (const sparql::SelectItem& item : items) {
      if (item.expr == nullptr) {
        out_row.push_back(resolve(item.name));
        continue;
      }
      sparql::EvalValue v = sparql::EvaluateExpr(*item.expr, resolve, *dict);
      switch (v.kind) {
        case sparql::EvalValue::Kind::kNum:
          out_row.push_back(analytics::InternNumber(dict, v.num));
          break;
        case sparql::EvalValue::Kind::kTerm:
          out_row.push_back(v.term != rdf::kInvalidTermId
                                ? v.term
                                : dict->Intern(*v.term_ptr));
          break;
        case sparql::EvalValue::Kind::kBool:
          out_row.push_back(dict->InternLiteral(v.b ? "true" : "false"));
          break;
        default:
          out_row.push_back(rdf::kInvalidTermId);
      }
    }
    out.rows.push_back(EncodeRow(out_row));
  }
  return out;
}

analytics::BindingTable ToBindingTable(const ProjectedResult& projected) {
  analytics::BindingTable out(projected.columns);
  for (const std::string& r : projected.rows) {
    std::vector<rdf::TermId> row = DecodeRow(r);
    row.resize(projected.columns.size(), rdf::kInvalidTermId);
    out.AddRow(std::move(row));
  }
  return out;
}

StatusOr<TableRef> RelationalOps::FinalJoinProject(
    const std::string& name_hint, const std::vector<TableRef>& inputs,
    const std::vector<sparql::SelectItem>& items) {
  RAPIDA_CHECK(!inputs.empty());
  rdf::Dictionary* dict = &dataset_->dict();

  // Load every input locally (they are small aggregated tables) and join
  // them with the well-tested BindingTable logic.
  std::vector<analytics::BindingTable> tables;
  for (const TableRef& in : inputs) {
    RAPIDA_ASSIGN_OR_RETURN(analytics::BindingTable t, ReadTable(in));
    tables.push_back(std::move(t));
  }
  ProjectedResult projected = JoinAndProject(std::move(tables), items, dict);
  std::vector<std::string> result_rows = std::move(projected.rows);

  // Model the work as one map-only broadcast-join cycle: the job scans all
  // inputs (honest byte accounting) and one mapper emits the result.
  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = std::move(projected.columns);

  mr::JobConfig job;
  job.name = name_hint + " (map-only)";
  for (const TableRef& t : inputs) job.inputs.push_back(t.file);
  job.output = out.file;
  auto rows = std::make_shared<std::vector<std::string>>(
      std::move(result_rows));
  // Exactly one of the (possibly concurrent) mappers emits the rows.
  auto emitted = std::make_shared<std::atomic<bool>>(false);
  job.map = [](const mr::Record&, int, mr::MapContext*) {};
  job.map_finish = [rows, emitted](mr::MapContext* ctx) {
    if (emitted->exchange(true)) return;
    for (const std::string& r : *rows) ctx->Emit("", r);
  };
  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;
  return out;
}

StatusOr<analytics::BindingTable> RelationalOps::ReadTable(
    const TableRef& table) {
  RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                          dataset_->dfs().Open(table.file));
  analytics::BindingTable out(table.columns);
  if (table.factorized()) {
    GroupView view;
    std::vector<rdf::TermId> row;
    for (const mr::Record& r : f->records) {
      if (!ParseGroup(r.value(), table.factor->factors.size(), &view)) continue;
      ForEachFlatRow(*table.factor, view, &row,
                     [&out, &table](const std::vector<rdf::TermId>& fr) {
                       std::vector<rdf::TermId> flat = fr;
                       flat.resize(table.columns.size(), rdf::kInvalidTermId);
                       out.AddRow(std::move(flat));
                     });
    }
    return out;
  }
  for (const mr::Record& r : f->records) {
    std::vector<rdf::TermId> row = DecodeRow(r.value());
    row.resize(table.columns.size(), rdf::kInvalidTermId);
    out.AddRow(std::move(row));
  }
  return out;
}

StatusOr<uint64_t> RelationalOps::FlatStoredBytes(const TableRef& table) const {
  if (!table.factorized()) return dataset_->VpFileBytes(table.file);
  // Join intermediates are written with default (uncompressed) FileOptions,
  // so the flat equivalent's stored bytes are its raw record bytes.
  RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                          dataset_->dfs().Open(table.file));
  uint64_t bytes = 0;
  GroupView view;
  for (const mr::Record& r : f->records) {
    if (!ParseGroup(r.value(), table.factor->factors.size(), &view)) continue;
    bytes += FlatRecordBytes(*table.factor, view);
  }
  return bytes;
}

}  // namespace rapida::engine
