#include "engines/relational_ops.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <set>

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
                             uint64_t map_join_threshold_bytes,
                             std::string tmp_prefix)
    : cluster_(cluster),
      dataset_(dataset),
      map_join_threshold_bytes_(map_join_threshold_bytes),
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

/// A flat table's layout as a d-representation: every column in the base
/// and no factors. A flat EncodeRow record is, byte for byte, a group of
/// this layout, so flat and factorized tables share one reader.
FactorizationPtr FlatLayout(size_t width) {
  auto spec = std::make_shared<Factorization>();
  spec->width = static_cast<int>(width);
  for (size_t c = 0; c < width; ++c) {
    spec->base_cols.push_back(static_cast<int>(c));
  }
  return spec;
}

/// How an input's records hold its rows: VP pairs (key = subject id,
/// value = object id; a one-column type table reads the subject only), or
/// group records of `groups` (FlatLayout for a flat table).
struct RowSource {
  bool is_vp = false;
  FactorizationPtr groups;
};

RowSource SourceOf(const TableRef& t) {
  return RowSource{false, t.factor ? t.factor : FlatLayout(t.columns.size())};
}

RowSource SourceOf(const JoinInput& in) {
  return RowSource{in.is_vp,
                   in.factor ? in.factor : FlatLayout(in.columns.size())};
}

/// The output layout of several inputs (Join, UnionAll): the first input's
/// columns, then each later input's unseen ones. `out_pos[i][c]` is the
/// output position of input i's column c.
template <typename Input>
std::vector<std::string> UnifiedLayout(const std::vector<Input>& inputs,
                                       std::vector<std::vector<int>>* out_pos) {
  std::vector<std::string> out = inputs[0].columns;
  out_pos->assign(inputs.size(), {});
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (const std::string& name : inputs[i].columns) {
      auto it = std::find(out.begin(), out.end(), name);
      (*out_pos)[i].push_back(static_cast<int>(it - out.begin()));
      if (it == out.end()) out.push_back(name);
    }
  }
  return out;
}

/// The row reader: turns a record into the flat rows it stands for, in
/// canonical order (factor 0 outermost), reusing its buffers across
/// records. It is the only code that knows the three record layouts: a VP
/// pair, a flat row (the zero-factor group) and a group record. A row is
/// width-sized and valid only during the callback.
class RowReader {
 public:
  template <typename Fn>
  void ForEachRow(const RowSource& src, const mr::Record& r, Fn&& fn) {
    if (!src.is_vp) {
      ForEachRow(*src.groups, r.value(), fn);
      return;
    }
    int64_t s = 0;
    ParseDigits(r.key(), &s);
    std::vector<rdf::TermId>& row = flat_.row;
    row.assign(1, static_cast<rdf::TermId>(s));
    if (src.groups->width > 1) {
      int64_t o = 0;
      ParseDigits(r.value(), &o);
      row.push_back(static_cast<rdf::TermId>(o));
    }
    fn(row);
  }

  /// The flat rows of one encoded group of `layout` (a record value or a
  /// shuffled payload).
  template <typename Fn>
  void ForEachRow(const Factorization& layout, std::string_view value,
                  Fn&& fn) {
    if (ParseGroup(value, layout.factors.size(), &view_)) {
      ForEachFlatRow(layout, view_, &flat_, fn);
    }
  }

  /// `value` parsed as one group of `layout`, for the paths that keep
  /// groups whole; null when malformed. Valid until the next call.
  const GroupView* Group(const Factorization& layout, std::string_view value) {
    return ParseGroup(value, layout.factors.size(), &view_) ? &view_ : nullptr;
  }

 private:
  GroupView view_;
  FlatScratch flat_;
};

/// Appends `row`'s cells at `idx`, comma-joined (an EncodeRow of them).
void AppendCells(std::string* out, const std::vector<rdf::TermId>& row,
                 const std::vector<int>& idx) {
  for (size_t k = 0; k < idx.size(); ++k) {
    if (k > 0) *out += ',';
    mr::kernels::AppendDecimal(out, row[static_cast<size_t>(idx[k])]);
  }
}

/// A row's cells inside a flat cell pool.
struct CellRange {
  const rdf::TermId* begin;
  const rdf::TermId* end;
};

/// Rows in one flat cell pool with CSR bounds, in arrival order.
struct RowPool {
  std::vector<rdf::TermId> cells;
  std::vector<uint32_t> end;  // row r's cells: cells[Begin(r) .. end[r])

  size_t size() const { return end.size(); }
  void Clear() {
    cells.clear();
    end.clear();
  }
  void Add(const std::vector<rdf::TermId>& row) {
    cells.insert(cells.end(), row.begin(), row.end());
    end.push_back(static_cast<uint32_t>(cells.size()));
  }
  CellRange Row(size_t r) const {
    const uint32_t b = r == 0 ? 0 : end[r - 1];
    return CellRange{cells.data() + b, cells.data() + end[r]};
  }
};

/// Broadcast side table of a map-join: the side's rows in a RowPool, grouped
/// by join key through a CSR layer over row indices (file order within a
/// group) and probed through a HashIndex on the mixed key id.
struct BroadcastTable {
  util::HashIndex index;
  std::vector<rdf::TermId> keys;    // distinct join key per dense id
  std::vector<uint32_t> group_end;  // CSR: rows of key id g are
                                    //   row_of[group_end[g-1]..group_end[g])
  std::vector<uint32_t> row_of;     // row indices grouped by key id
  RowPool rows;

  uint32_t GroupBegin(uint32_t id) const {
    return id == 0 ? 0 : group_end[id - 1];
  }
  uint32_t Find(rdf::TermId key) const {
    return index.Find(util::MixId(key),
                      [&](uint32_t cand) { return keys[cand] == key; });
  }
  size_t GroupSize(uint32_t id) const { return group_end[id] - GroupBegin(id); }
  /// The k-th row (file order) of key id `id`.
  CellRange Row(uint32_t id, size_t k) const {
    return rows.Row(row_of[GroupBegin(id) + k]);
  }
};

void BuildBroadcast(const JoinInput& input, const mr::Dfs::File& file,
                    int key_col, BroadcastTable* t) {
  const RowSource source = SourceOf(input);
  RowReader reader;
  std::vector<uint32_t> key_id_of_row;
  std::vector<uint32_t> counts;
  t->index.Reserve(file.size());
  file.ForEach([&](const mr::Record& r) {
    reader.ForEachRow(source, r, [&](const std::vector<rdf::TermId>& row) {
      if (input.predicate && !input.predicate(row)) return;
      rdf::TermId k = row[static_cast<size_t>(key_col)];
      auto [id, inserted] = t->index.FindOrInsert(
          util::MixId(k), static_cast<uint32_t>(t->keys.size()),
          [&](uint32_t cand) { return t->keys[cand] == k; });
      if (inserted) {
        t->keys.push_back(k);
        counts.push_back(0);
      }
      ++counts[id];
      key_id_of_row.push_back(id);
      t->rows.Add(row);
    });
  });
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

/// The flat fold's buffers: the current and next width-strided cross
/// products, the post-predicate row and the emit buffer.
struct FoldBuffers {
  std::vector<rdf::TermId> cur, next, pred_row;
  std::string val_buf;
};

/// One step of the flat fold: crosses every width-strided row of `f->cur`
/// with `n` side rows (`row(k)` gives the k-th one's cells), writing each
/// side row's cells over a copy of the current row at their output
/// positions `pos`.
template <typename SideRow>
void CrossSide(FoldBuffers* f, size_t width, size_t n,
               const std::vector<int>& pos, SideRow&& row) {
  f->next.clear();
  for (size_t p = 0; p < f->cur.size() / width; ++p) {
    for (size_t k = 0; k < n; ++k) {
      const size_t base = f->next.size();
      f->next.insert(f->next.end(), f->cur.begin() + p * width,
                     f->cur.begin() + (p + 1) * width);
      const CellRange cells = row(k);
      for (const rdf::TermId* c = cells.begin; c != cells.end; ++c) {
        f->next[base + static_cast<size_t>(pos[c - cells.begin])] = *c;
      }
    }
  }
  f->cur.swap(f->next);
}

/// Emits the fold's joined rows that pass `post`.
template <typename Ctx>
void EmitJoined(FoldBuffers* f, size_t width, const RowPredicate& post,
                Ctx* ctx) {
  for (size_t p = 0; p < f->cur.size() / width; ++p) {
    if (post) {
      f->pred_row.assign(f->cur.begin() + p * width,
                         f->cur.begin() + (p + 1) * width);
      if (!post(f->pred_row)) continue;
    }
    f->val_buf.clear();
    AppendRow(&f->val_buf, f->cur.data() + p * width, width);
    ctx->Emit("", f->val_buf);
  }
}

/// Per-map-task scratch (MapContext::TaskState) of the relational maps:
/// the row reader, the fold buffers, the group encoder with its cell rows,
/// and the key buffer, reused across the task's records.
struct MapScratch : FoldBuffers {
  RowReader reader;
  GroupEncoder enc;
  std::vector<rdf::TermId> cells, factor_row;
  std::string key_buf;
};

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

// ---------------------------------------------------------------------------
// Join sides and factorized join outputs — see engines/factorized.h and
// DESIGN.md §16. Every input streams flat rows through the RowReader except
// a *grouped* one (factorized, no map-side predicate), whose groups cross
// the shuffle or pass through the map-join whole.
// ---------------------------------------------------------------------------

/// How Join reads and ships one input.
struct JoinSide {
  RowSource source;       // the input's records
  FactorizationPtr flat;  // its rows as shipped flat: FlatLayout(columns)
  /// Grouped sides only: the partial groups the side ships, in the input's
  /// coordinates. Equal to the input's layout when the join column sits in
  /// the base; the base extended by the join factor otherwise.
  FactorizationPtr partial;
  int join_factor = -1;  // >= 0: the factor holding the join column
  int join_slot = -1;    // slot in base_cols / factors[join_factor]; -1 in
                         //   the base = uncovered (every row joins NULL)
  /// An outer miss's partial group: one all-NULL row per partial factor.
  std::vector<std::string> null_segments;

  bool grouped() const { return partial != nullptr; }
};

std::vector<JoinSide> PlanSides(const std::vector<JoinInput>& inputs,
                                const std::vector<int>& join_idx) {
  std::vector<JoinSide> sides(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    JoinSide& side = sides[i];
    side.source = SourceOf(inputs[i]);
    side.flat = FlatLayout(inputs[i].columns.size());
    // Predicates see flat rows, so a factorized input with one streams.
    if (inputs[i].factor == nullptr || inputs[i].predicate != nullptr) {
      continue;
    }
    const Factorization& spec = *inputs[i].factor;
    const CellLoc jl = LocateCells(spec)[static_cast<size_t>(join_idx[i])];
    if (jl.kind == CellLoc::kFactor) {
      side.join_factor = jl.factor;
      side.join_slot = jl.slot;
      auto partial = std::make_shared<Factorization>();
      partial->width = spec.width;
      partial->base_cols = spec.base_cols;
      const auto& jcols = spec.factors[static_cast<size_t>(jl.factor)];
      partial->base_cols.insert(partial->base_cols.end(), jcols.begin(),
                                jcols.end());
      for (size_t f = 0; f < spec.factors.size(); ++f) {
        if (static_cast<int>(f) != jl.factor) {
          partial->factors.push_back(spec.factors[f]);
        }
      }
      side.partial = std::move(partial);
    } else {
      side.join_slot = jl.kind == CellLoc::kBase ? jl.slot : -1;
      side.partial = inputs[i].factor;
    }
    for (const auto& cols : side.partial->factors) {
      std::string seg;
      for (size_t c = 0; c < cols.size(); ++c) seg += c > 0 ? ",0" : "0";
      side.null_segments.push_back(std::move(seg));
    }
  }
  return sides;
}

/// Encodes the partial groups a grouped side's record ships into `enc`,
/// calling emit(join key) after each: the whole group when the join column
/// sits in the base, else one group per row of the join factor, that row
/// moved into the base and every other factor kept as it is.
template <typename Fn>
void ForEachPartialGroup(const JoinSide& side, const GroupView& view,
                         std::vector<rdf::TermId>* cells, GroupEncoder* enc,
                         Fn&& emit) {
  const Factorization& spec = *side.source.groups;
  if (side.join_factor < 0) {
    rdf::TermId key = rdf::kInvalidTermId;
    if (side.join_slot >= 0) {
      DecodeFactorRowInto(view.base, spec.base_cols.size(), cells);
      key = (*cells)[static_cast<size_t>(side.join_slot)];
    }
    enc->Start();
    enc->AddRawBase(view.base);
    for (size_t g = 0; g < spec.factors.size(); ++g) {
      enc->AddRawFactor(FactorSegment(view, g), view.FactorRows(g));
    }
    emit(key);
    return;
  }
  const size_t j = static_cast<size_t>(side.join_factor);
  for (size_t t = view.FactorBegin(j); t < view.factor_end[j]; ++t) {
    DecodeFactorRowInto(view.rows[t], spec.factors[j].size(), cells);
    const rdf::TermId key = (*cells)[static_cast<size_t>(side.join_slot)];
    enc->Start();
    enc->AddRawBase(view.base);
    for (rdf::TermId c : *cells) enc->AddBaseCell(c);
    for (size_t g = 0; g < spec.factors.size(); ++g) {
      if (g != j) enc->AddRawFactor(FactorSegment(view, g), view.FactorRows(g));
    }
    emit(key);
  }
}

/// A join's factorized output layout plus what each side contributes. A
/// null `spec` means the output stays flat: some output position would be
/// claimed twice, and the flat fold's overwrite semantics cannot be
/// represented.
struct FactOutput {
  FactorizationPtr spec;
  /// Repartition joins, grouped sides: partial-base slots appended to the
  /// output base.
  std::vector<std::vector<int>> base_keep;
  /// Sides contributing one factor of their flat rows (a map-join's
  /// broadcast sides, a repartition join's flat sides): the input columns
  /// each factor row carries.
  std::vector<std::vector<int>> factor_cols;
};

/// Map-join output: the streamed side in the base (a grouped one: its
/// partial base, then its partial factors), one factor per broadcast side.
FactOutput MapJoinOutput(const std::vector<JoinInput>& inputs,
                         const std::vector<JoinSide>& sides,
                         const std::vector<std::vector<int>>& out_pos,
                         const std::vector<int>& join_idx, size_t big,
                         size_t width) {
  FactOutput out;
  out.factor_cols.resize(inputs.size());
  auto spec = std::make_shared<Factorization>();
  spec->width = static_cast<int>(width);
  std::vector<bool> covered(width, false);
  bool ok = true;
  auto claim = [&covered, &ok](int pos) {
    if (covered[static_cast<size_t>(pos)]) ok = false;
    covered[static_cast<size_t>(pos)] = true;
    return pos;
  };
  const std::vector<int>& big_pos = out_pos[big];
  if (sides[big].grouped()) {
    for (int c : sides[big].partial->base_cols) {
      spec->base_cols.push_back(claim(big_pos[static_cast<size_t>(c)]));
    }
    for (const auto& cols : sides[big].partial->factors) {
      std::vector<int> f;
      for (int c : cols) f.push_back(claim(big_pos[static_cast<size_t>(c)]));
      spec->factors.push_back(std::move(f));
    }
  } else {
    for (int pos : big_pos) spec->base_cols.push_back(claim(pos));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i == big) continue;
    std::vector<int> f;
    for (size_t c = 0; c < inputs[i].columns.size(); ++c) {
      if (static_cast<int>(c) == join_idx[i]) continue;
      f.push_back(claim(out_pos[i][c]));
      out.factor_cols[i].push_back(static_cast<int>(c));
    }
    spec->factors.push_back(std::move(f));
  }
  if (ok) out.spec = std::move(spec);
  return out;
}

/// Repartition-join output: base = [join key] ++ each grouped side's kept
/// partial-base slots; factors = sides in order (a flat side: one factor
/// of its non-join columns; a grouped side: its partial factors).
FactOutput RepartitionOutput(const std::vector<JoinInput>& inputs,
                             const std::vector<JoinSide>& sides,
                             const std::vector<std::vector<int>>& out_pos,
                             const std::vector<int>& join_idx, size_t width) {
  FactOutput out;
  out.base_keep.resize(inputs.size());
  out.factor_cols.resize(inputs.size());
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
    if (!sides[i].grouped()) continue;
    const Factorization& partial = *sides[i].partial;
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
    if (sides[i].grouped()) {
      for (const auto& cols : sides[i].partial->factors) {
        std::vector<int> f;
        for (int in_col : cols) {
          const int pos = out_pos[i][static_cast<size_t>(in_col)];
          if (!claim(pos)) return out;
          f.push_back(pos);
        }
        spec->factors.push_back(std::move(f));
      }
      continue;
    }
    std::vector<int> f;
    for (size_t c = 0; c < inputs[i].columns.size(); ++c) {
      if (static_cast<int>(c) == join_idx[i]) continue;
      const int pos = out_pos[i][c];
      if (pos == join_out) continue;  // duplicate of the key column
      if (!claim(pos)) return out;
      f.push_back(pos);
      out.factor_cols[i].push_back(static_cast<int>(c));
    }
    spec->factors.push_back(std::move(f));
  }
  out.spec = std::move(spec);
  return out;
}

/// Splits a repartition join's shuffled value, `<tag>|<flat row>` or
/// `<tag>#<partial group>`; false when malformed.
bool SplitTagged(std::string_view v, size_t* tag, bool* group,
                 std::string_view* payload) {
  const size_t bar = v.find_first_of("|#");
  if (bar == std::string_view::npos) return false;
  int64_t t = 0;
  ParseInt64(v.substr(0, bar), &t);
  *tag = static_cast<size_t>(t);
  *group = v[bar] == '#';
  *payload = v.substr(bar + 1);
  return true;
}

/// One shuffled partial group on the group reduce's side: its decoded base
/// cells and its factor segments (views into the reduce's values, or into
/// the side's null segments).
struct GroupEntry {
  std::vector<rdf::TermId> base;
  std::vector<std::string_view> segments;
  std::vector<uint64_t> rows;
};

/// Per-reduce-task scratch of the repartition join: each side's flat rows
/// in a RowPool, the grouped sides' entries and the group encoder.
struct JoinReduceScratch : FoldBuffers {
  RowReader reader;
  std::vector<RowPool> pools;
  std::vector<std::vector<GroupEntry>> entries;
  std::vector<std::string> flat_segments;
  std::vector<size_t> idx;
  std::vector<rdf::TermId> null_row;
  GroupEncoder enc;
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
                                       JoinStrategy strategy,
                                       RowPredicate post_predicate,
                                       bool factorize_output) {
  RAPIDA_CHECK(!inputs.empty());
  std::vector<std::vector<int>> out_pos;
  const std::vector<std::string> out_columns = UnifiedLayout(inputs, &out_pos);
  // Per input: the index of its join column.
  std::vector<int> join_idx(inputs.size(), -1);
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t c = 0; c < inputs[i].columns.size(); ++c) {
      if (inputs[i].columns[c] == inputs[i].join_column) {
        join_idx[i] = static_cast<int>(c);
      }
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

  // The streamed input of a map-join (MapJoinStreamedInput): a `map` node
  // broadcasts every input but the largest, an `auto` node only those
  // within the threshold. Factorized inputs are sized by their FLAT
  // equivalent so the choice matches the flat path exactly (a factorized
  // file is smaller; deciding on its stored size could flip the join
  // strategy and with it the output row order).
  int big = -1;
  if (strategy != JoinStrategy::kRepartition) {
    std::vector<uint64_t> sizes;
    std::vector<bool> outer;
    for (const JoinInput& in : inputs) {
      sizes.push_back(in.flat_bytes != 0 ? in.flat_bytes
                                         : dataset_->VpFileBytes(in.file));
      outer.push_back(in.outer);
    }
    big = MapJoinStreamedInput(sizes, outer,
                               strategy == JoinStrategy::kMap
                                   ? std::numeric_limits<uint64_t>::max()
                                   : map_join_threshold_bytes_);
  }
  const bool map_join = big >= 0;

  auto ins = std::make_shared<const std::vector<JoinInput>>(inputs);
  auto sides =
      std::make_shared<const std::vector<JoinSide>>(PlanSides(inputs, join_idx));
  auto fact = std::make_shared<FactOutput>();
  if (factorize_output && post_predicate == nullptr && inputs.size() >= 2) {
    *fact = map_join ? MapJoinOutput(inputs, *sides, out_pos, join_idx,
                                     static_cast<size_t>(big), width)
                     : RepartitionOutput(inputs, *sides, out_pos, join_idx,
                                         width);
  }

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = out_columns;

  mr::JobConfig job;
  job.name = name_hint + (map_join ? " (map-join)" : "");
  for (const JoinInput& in : inputs) job.inputs.push_back(in.file);
  job.output = out.file;

  if (map_join) {
    // Every other input is broadcast; the streamed one folds each row
    // through the broadcast tables (flat output), or becomes one group per
    // row or partial group with one factor per broadcast side.
    auto tables =
        std::make_shared<std::vector<BroadcastTable>>(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (static_cast<int>(i) == big) continue;
      RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                              dataset_->dfs().Open(inputs[i].file));
      BuildBroadcast(inputs[i], *f, join_idx[i], &(*tables)[i]);
    }
    const size_t b = static_cast<size_t>(big);
    job.map = [ins, sides, fact, tables, b, out_pos, join_idx, width,
               post_predicate](const mr::Record& r, int tag,
                               mr::MapContext* ctx) {
      if (static_cast<size_t>(tag) != b) return;  // broadcast copies
      MapScratch* s = ctx->TaskState<MapScratch>();
      const JoinInput& input = (*ins)[b];
      const JoinSide& side = (*sides)[b];
      // Closes the group in s->enc with one factor per broadcast side: the
      // rows matching `key`, or one all-NULL row for an outer miss. An
      // inner miss emits nothing.
      auto emit_group = [&](rdf::TermId key) {
        for (size_t i = 0; i < ins->size(); ++i) {
          if (i == b) continue;
          const BroadcastTable& t = (*tables)[i];
          const std::vector<int>& cols = fact->factor_cols[i];
          const uint32_t id = t.Find(key);
          if (id == util::HashIndex::kNotFound && !(*ins)[i].outer) return;
          s->enc.StartFactor();
          if (id == util::HashIndex::kNotFound) {
            s->factor_row.assign(cols.size(), rdf::kInvalidTermId);
            s->enc.AddFactorRow(s->factor_row.data(), cols.size());
            continue;
          }
          for (size_t k = 0; k < t.GroupSize(id); ++k) {
            const CellRange row = t.Row(id, k);
            s->factor_row.clear();
            for (int c : cols) s->factor_row.push_back(row.begin[c]);
            s->enc.AddFactorRow(s->factor_row.data(), cols.size());
          }
        }
        ctx->Emit("", s->enc.Finish());
        ctx->NoteFactorizedGroup(s->enc.flat_rows());
      };
      if (fact->spec != nullptr && side.grouped()) {
        if (const GroupView* view =
                s->reader.Group(*side.source.groups, r.value())) {
          ForEachPartialGroup(side, *view, &s->cells, &s->enc, emit_group);
        }
        return;
      }
      s->reader.ForEachRow(
          side.source, r, [&](const std::vector<rdf::TermId>& row) {
            if (input.predicate && !input.predicate(row)) return;
            const rdf::TermId key = row[static_cast<size_t>(join_idx[b])];
            if (fact->spec != nullptr) {
              s->enc.Start();
              for (rdf::TermId c : row) s->enc.AddBaseCell(c);
              emit_group(key);
              return;
            }
            s->cur.assign(width, rdf::kInvalidTermId);
            for (size_t c = 0; c < row.size(); ++c) {
              s->cur[static_cast<size_t>(out_pos[b][c])] = row[c];
            }
            for (size_t i = 0; i < ins->size(); ++i) {
              if (i == b) continue;
              const BroadcastTable& t = (*tables)[i];
              const uint32_t id = t.Find(key);
              if (id == util::HashIndex::kNotFound) {
                if (!(*ins)[i].outer) return;  // inner miss: no output
                continue;                      // outer: leave columns NULL
              }
              CrossSide(s, width, t.GroupSize(id), out_pos[i],
                        [&](size_t k) { return t.Row(id, k); });
            }
            EmitJoined(s, width, post_predicate, ctx);
          });
    };
  } else {
    // Repartition join: the map tags each flat row `<tag>|` and each
    // grouped side's partial group `<tag>#`, keyed by the join value.
    job.map = [ins, sides, join_idx](const mr::Record& r, int tag,
                                     mr::MapContext* ctx) {
      MapScratch* s = ctx->TaskState<MapScratch>();
      const JoinSide& side = (*sides)[static_cast<size_t>(tag)];
      auto emit = [&](rdf::TermId key, char marker, auto&& append_payload) {
        s->key_buf.clear();
        mr::kernels::AppendDecimal(&s->key_buf, key);
        s->val_buf.clear();
        mr::kernels::AppendDecimal(&s->val_buf, static_cast<uint64_t>(tag));
        s->val_buf += marker;
        append_payload();
        ctx->Emit(s->key_buf, s->val_buf);
      };
      if (side.grouped()) {
        if (const GroupView* view =
                s->reader.Group(*side.source.groups, r.value())) {
          ForEachPartialGroup(side, *view, &s->cells, &s->enc,
                              [&](rdf::TermId key) {
                                emit(key, '#', [&] {
                                  s->val_buf += s->enc.Finish();
                                });
                              });
        }
        return;
      }
      const JoinInput& input = (*ins)[static_cast<size_t>(tag)];
      s->reader.ForEachRow(
          side.source, r, [&](const std::vector<rdf::TermId>& row) {
            if (input.predicate && !input.predicate(row)) return;
            emit(row[static_cast<size_t>(join_idx[static_cast<size_t>(tag)])],
                 '|', [&] { AppendRow(&s->val_buf, row); });
          });
    };
    if (fact->spec == nullptr) {
      // Flat output: every side's rows (groups decompressed) into its
      // pool, then the fold from one all-NULL row across the sides.
      job.reduce = [ins, sides, out_pos, width, post_predicate](
                       std::string_view /*key*/, const mr::ValueSpan& values,
                       mr::ReduceContext* ctx) {
        JoinReduceScratch* s = ctx->TaskState<JoinReduceScratch>();
        s->pools.resize(ins->size());
        for (RowPool& pool : s->pools) pool.Clear();
        for (std::string_view v : values) {
          size_t tag;
          bool group;
          std::string_view payload;
          if (!SplitTagged(v, &tag, &group, &payload)) continue;
          const JoinSide& side = (*sides)[tag];
          RowPool& pool = s->pools[tag];
          s->reader.ForEachRow(
              group ? *side.partial : *side.flat, payload,
              [&pool](const std::vector<rdf::TermId>& row) { pool.Add(row); });
        }
        s->cur.assign(width, rdf::kInvalidTermId);
        for (size_t i = 0; i < ins->size(); ++i) {
          const RowPool& pool = s->pools[i];
          if (pool.size() == 0) {
            if (!(*ins)[i].outer) return;  // inner miss (input 0 never outer)
            continue;
          }
          CrossSide(s, width, pool.size(), out_pos[i],
                    [&pool](size_t k) { return pool.Row(k); });
        }
        EmitJoined(s, width, post_predicate, ctx);
      };
    } else {
      // Factorized output: cross the grouped sides' partial groups per
      // key; each flat side contributes one factor shared by every group.
      std::vector<size_t> grouped;
      for (size_t i = 0; i < inputs.size(); ++i) {
        if ((*sides)[i].grouped()) grouped.push_back(i);
      }
      job.reduce = [ins, sides, fact, grouped](std::string_view key,
                                               const mr::ValueSpan& values,
                                               mr::ReduceContext* ctx) {
        JoinReduceScratch* s = ctx->TaskState<JoinReduceScratch>();
        const size_t n = ins->size();
        s->pools.resize(n);
        s->entries.resize(n);
        for (size_t i = 0; i < n; ++i) {
          s->pools[i].Clear();
          s->entries[i].clear();
        }
        for (std::string_view v : values) {
          size_t tag;
          bool group;
          std::string_view payload;
          if (!SplitTagged(v, &tag, &group, &payload)) continue;
          const JoinSide& side = (*sides)[tag];
          if (!group) {
            RowPool& pool = s->pools[tag];
            s->reader.ForEachRow(
                *side.flat, payload,
                [&pool](const std::vector<rdf::TermId>& row) { pool.Add(row); });
            continue;
          }
          const GroupView* gv = s->reader.Group(*side.partial, payload);
          if (gv == nullptr) continue;
          GroupEntry& e = s->entries[tag].emplace_back();
          DecodeFactorRowInto(gv->base, side.partial->base_cols.size(),
                              &e.base);
          for (size_t g = 0; g < side.partial->factors.size(); ++g) {
            e.segments.push_back(FactorSegment(*gv, g));
            e.rows.push_back(gv->FactorRows(g));
          }
        }
        for (size_t i = 0; i < n; ++i) {
          const JoinSide& side = (*sides)[i];
          if (side.grouped() ? !s->entries[i].empty()
                             : s->pools[i].size() > 0) {
            continue;
          }
          if (!(*ins)[i].outer) return;  // inner miss (input 0 never outer)
          if (side.grouped()) {
            GroupEntry& e = s->entries[i].emplace_back();
            e.base.assign(side.partial->base_cols.size(),
                          rdf::kInvalidTermId);
            e.segments.assign(side.null_segments.begin(),
                              side.null_segments.end());
            e.rows.assign(side.null_segments.size(), 1);
          } else {
            s->null_row.assign((*ins)[i].columns.size(), rdf::kInvalidTermId);
            s->pools[i].Add(s->null_row);
          }
        }
        int64_t kv = 0;
        ParseDigits(key, &kv);
        s->flat_segments.resize(n);
        for (size_t i = 0; i < n; ++i) {
          if ((*sides)[i].grouped()) continue;
          std::string& seg = s->flat_segments[i];
          seg.clear();
          for (size_t r = 0; r < s->pools[i].size(); ++r) {
            if (r > 0) seg += ';';
            const CellRange row = s->pools[i].Row(r);
            const std::vector<int>& cols = fact->factor_cols[i];
            for (size_t k = 0; k < cols.size(); ++k) {
              if (k > 0) seg += ',';
              mr::kernels::AppendDecimal(&seg, row.begin[cols[k]]);
            }
          }
        }
        s->idx.assign(grouped.size(), 0);
        GroupEncoder& enc = s->enc;
        for (;;) {
          enc.Start();
          enc.AddBaseCell(static_cast<rdf::TermId>(kv));
          for (size_t gi = 0; gi < grouped.size(); ++gi) {
            const size_t i = grouped[gi];
            const GroupEntry& e = s->entries[i][s->idx[gi]];
            for (int slot : fact->base_keep[i]) {
              enc.AddBaseCell(e.base[static_cast<size_t>(slot)]);
            }
          }
          for (size_t i = 0, gi = 0; i < n; ++i) {
            if (!(*sides)[i].grouped()) {
              enc.AddRawFactor(s->flat_segments[i], s->pools[i].size());
              continue;
            }
            const GroupEntry& e = s->entries[i][s->idx[gi++]];
            for (size_t g = 0; g < e.segments.size(); ++g) {
              enc.AddRawFactor(e.segments[g], e.rows[g]);
            }
          }
          ctx->Emit("", enc.Finish());
          ctx->NoteFactorizedGroup(enc.flat_rows());
          size_t g = grouped.size();
          for (;;) {
            if (g == 0) return;
            --g;
            if (++s->idx[g] < s->entries[grouped[g]].size()) break;
            s->idx[g] = 0;
          }
        }
      };
    }
    // Pure function of (key, values): reducers may run concurrently.
    job.reduce_parallel_safe = true;
  }

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats ignored, cluster_->Run(job));
  (void)ignored;
  if (fact->spec != nullptr) {
    out.factor = fact->spec;
    RAPIDA_ASSIGN_OR_RETURN(out.flat_bytes, FlatStoredBytes(out));
  }
  return out;
}

StatusOr<TableRef> RelationalOps::UnionAll(
    const std::string& name_hint, const std::vector<TableRef>& inputs) {
  RAPIDA_CHECK(!inputs.empty());
  std::vector<std::vector<int>> out_pos;
  const std::vector<std::string> out_columns = UnifiedLayout(inputs, &out_pos);
  const size_t width = out_columns.size();

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = out_columns;

  mr::JobConfig job;
  job.name = name_hint + " (map-only)";
  for (const TableRef& t : inputs) job.inputs.push_back(t.file);
  job.output = out.file;

  // Factorized branches decompress here: UNION output is flat (branch
  // layouts differ), and rows enumerate in exact flat order.
  auto sources = std::make_shared<std::vector<RowSource>>();
  for (const TableRef& t : inputs) sources->push_back(SourceOf(t));
  job.map = [sources, out_pos, width](const mr::Record& r, int tag,
                                      mr::MapContext* ctx) {
    MapScratch* s = ctx->TaskState<MapScratch>();
    const std::vector<int>& pos = out_pos[static_cast<size_t>(tag)];
    s->reader.ForEachRow(
        (*sources)[static_cast<size_t>(tag)], r,
        [&](const std::vector<rdf::TermId>& row) {
          s->cur.assign(width, rdf::kInvalidTermId);
          for (size_t c = 0; c < row.size() && c < pos.size(); ++c) {
            s->cur[static_cast<size_t>(pos[c])] = row[c];
          }
          s->val_buf.clear();
          AppendRow(&s->val_buf, s->cur);
          ctx->Emit("", s->val_buf);
        });
  };

  RAPIDA_ASSIGN_OR_RETURN(mr::JobStats stats, cluster_->Run(job));
  (void)stats;
  return out;
}

namespace {

std::vector<Aggregator> MakeAggregators(
    const std::vector<ntga::AggSpec>& aggs) {
  std::vector<Aggregator> out;
  for (const ntga::AggSpec& a : aggs) {
    out.emplace_back(a.func, /*distinct=*/false, a.separator);
  }
  return out;
}

}  // namespace

std::vector<Aggregator>& AggMap::Partials(
    std::string_view key, const std::vector<ntga::AggSpec>& aggs) {
  auto [id, inserted] = index_.FindOrInsert(
      mr::HashKey(key), static_cast<uint32_t>(keys_.size()),
      [&](uint32_t cand) { return keys_[cand] == key; });
  if (inserted) {
    keys_.emplace_back(key);
    rows_.push_back(MakeAggregators(aggs));
  }
  return rows_[id];
}

void AggMap::Add(std::string_view key, const rdf::TermId* row,
                 const std::vector<int>& args,
                 const std::vector<ntga::AggSpec>& aggs, bool map_side_agg,
                 const rdf::Dictionary& dict, mr::MapContext* ctx) {
  auto cell = [&](size_t a) {
    return aggs[a].count_star || args[a] < 0
               ? rdf::kInvalidTermId
               : row[static_cast<size_t>(args[a])];
  };
  if (map_side_agg) {
    std::vector<Aggregator>& partials = Partials(key, aggs);
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].count_star) {
        partials[a].AddRow();
      } else {
        partials[a].AddTerm(cell(a), dict);
      }
    }
    return;
  }
  val_buf_.assign("R|");
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (a > 0) val_buf_ += ',';
    mr::kernels::AppendDecimal(&val_buf_, cell(a));
  }
  ctx->Emit(key, val_buf_);
}

void AggMap::Flush(mr::MapContext* ctx) {
  for (size_t id = 0; id < keys_.size(); ++id) {
    val_buf_.assign("P");
    for (const Aggregator& a : rows_[id]) {
      val_buf_ += '|';
      val_buf_ += a.SerializePartial();
    }
    ctx->Emit(keys_[id], val_buf_);
  }
}

void FoldAggGroup(std::string_view key_cells,
                  const std::vector<ntga::AggSpec>& aggs,
                  const mr::ValueSpan& values, rdf::Dictionary* dict,
                  AggReduceScratch* s) {
  std::vector<Aggregator> folded = MakeAggregators(aggs);
  for (std::string_view v : values) {
    if (v.empty()) continue;
    if (v[0] == 'P') {
      FieldTokenizer parts(v, '|');
      std::string_view part;
      parts.Next(&part);  // the "P" marker
      for (size_t a = 0; a < folded.size() && parts.Next(&part); ++a) {
        auto partial = Aggregator::DeserializePartial(aggs[a].func, part,
                                                      aggs[a].separator);
        if (partial.ok()) folded[a].Merge(*partial, *dict);
      }
    } else if (v[0] == 'R') {
      DecodeRowInto(v.substr(2), &s->args);
      for (size_t a = 0; a < folded.size() && a < s->args.size(); ++a) {
        if (aggs[a].count_star) {
          folded[a].AddRow();
        } else {
          folded[a].AddTerm(s->args[a], *dict);
        }
      }
    }
  }
  DecodeRowInto(key_cells, &s->row);
  for (const Aggregator& a : folded) s->row.push_back(a.Finalize(dict));
  s->val_buf.clear();
  AppendRow(&s->val_buf, s->row);
}

std::vector<rdf::TermId> EmptyGroupRow(const std::vector<ntga::AggSpec>& aggs,
                                       rdf::Dictionary* dict) {
  std::vector<rdf::TermId> row;
  for (const Aggregator& a : MakeAggregators(aggs)) {
    row.push_back(a.Finalize(dict));
  }
  return row;
}

namespace {

/// Per-map-task state of GroupBy, shared by map and map_finish: the row
/// reader, the aggregation table, the key buffer and the weighted path's
/// decoded group (base cells, every factor's rows in one pool, the
/// odometer over key-bearing factors).
struct GroupByScratch {
  RowReader reader;
  AggMap agg;
  std::string key_buf;
  std::vector<rdf::TermId> base, factor_cells, cells;
  std::vector<size_t> factor_begin, idx;
};

}  // namespace

StatusOr<TableRef> RelationalOps::GroupBy(
    const std::string& name_hint, const TableRef& input,
    const std::vector<std::string>& key_columns,
    const std::vector<ntga::AggSpec>& aggs, bool map_side_agg,
    RowPredicate having) {
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
  for (const ntga::AggSpec& a : aggs) {
    if (a.count_star) {
      agg_idx.push_back(-1);
      continue;
    }
    int i = input.ColumnIndex(a.var);
    if (i < 0) {
      return Status::InvalidArgument("aggregate column '" + a.var +
                                     "' not in input");
    }
    agg_idx.push_back(i);
  }

  TableRef out;
  out.file = NextTmp(name_hint);
  out.columns = key_columns;
  for (const ntga::AggSpec& a : aggs) out.columns.push_back(a.output_name);

  rdf::Dictionary* dict = &dataset_->dict();
  auto agg_specs = std::make_shared<std::vector<ntga::AggSpec>>(aggs);

  mr::JobConfig job;
  job.name = name_hint;
  job.inputs = {input.file};
  job.output = out.file;

  bool weighted = input.factorized() && map_side_agg;
  for (const ntga::AggSpec& a : aggs) {
    // Float addition is grouping-sensitive: SUM/AVG pipelines must see the
    // same add order as the flat path, so they are never aggregated by
    // weight (the planner also keeps them flat upstream).
    if (a.func == sparql::AggFunc::kSum || a.func == sparql::AggFunc::kAvg) {
      weighted = false;
    }
  }

  if (weighted) {
    // Weighted direct path: aggregate group records WITHOUT enumerating
    // their flat rows — the multiplicity of every cell is a product of the
    // other factors' row counts. This is where the factorization factor
    // turns into saved work. Key-bearing factors are enumerated (their
    // rows split the group across keys) in factor order, last fastest;
    // the rest contribute multiplicity only.
    FactorizationPtr spec = input.factor;
    auto loc = std::make_shared<std::vector<CellLoc>>(LocateCells(*spec));
    auto odometer_slot =
        std::make_shared<std::vector<int>>(spec->factors.size(), -1);
    std::vector<size_t> key_factors;
    for (int k : key_idx) {
      const CellLoc& l = (*loc)[static_cast<size_t>(k)];
      if (l.kind == CellLoc::kFactor) {
        (*odometer_slot)[static_cast<size_t>(l.factor)] = 0;
      }
    }
    for (size_t f = 0; f < spec->factors.size(); ++f) {
      if ((*odometer_slot)[f] < 0) continue;
      (*odometer_slot)[f] = static_cast<int>(key_factors.size());
      key_factors.push_back(f);
    }
    job.map = [spec, loc, odometer_slot, key_factors, key_idx, agg_idx,
               agg_specs, dict](const mr::Record& r, int,
                                mr::MapContext* ctx) {
      GroupByScratch* s = ctx->TaskState<GroupByScratch>();
      const GroupView* view = s->reader.Group(*spec, r.value());
      if (view == nullptr) return;
      const size_t nf = spec->factors.size();
      s->base.assign(static_cast<size_t>(spec->width), rdf::kInvalidTermId);
      DecodeCellsInto(view->base, spec->base_cols, &s->base);
      s->factor_cells.clear();
      s->factor_begin.resize(nf);
      uint64_t mult = 1;
      for (size_t f = 0; f < nf; ++f) {
        const size_t rows = view->FactorRows(f);
        if (rows == 0) return;  // empty factor: zero flat rows
        s->factor_begin[f] = s->factor_cells.size();
        for (size_t t = 0; t < rows; ++t) {
          DecodeFactorRowInto(view->rows[view->FactorBegin(f) + t],
                              spec->factors[f].size(), &s->cells);
          s->factor_cells.insert(s->factor_cells.end(), s->cells.begin(),
                                 s->cells.end());
        }
        if ((*odometer_slot)[f] < 0) mult *= rows;
      }
      // Cell `slot` of row `t` of factor `f`.
      auto factor_cell = [&](size_t f, size_t t, int slot) {
        return s->factor_cells[s->factor_begin[f] +
                               t * spec->factors[f].size() +
                               static_cast<size_t>(slot)];
      };
      s->idx.assign(key_factors.size(), 0);
      auto cell_at = [&](int pos) -> rdf::TermId {
        const CellLoc& l = (*loc)[static_cast<size_t>(pos)];
        if (l.kind != CellLoc::kFactor) {
          return s->base[static_cast<size_t>(pos)];  // base cell or NULL
        }
        const size_t f = static_cast<size_t>(l.factor);
        return factor_cell(
            f, s->idx[static_cast<size_t>((*odometer_slot)[f])], l.slot);
      };
      for (;;) {
        s->key_buf.clear();
        for (size_t k = 0; k < key_idx.size(); ++k) {
          if (k > 0) s->key_buf += ',';
          mr::kernels::AppendDecimal(&s->key_buf, cell_at(key_idx[k]));
        }
        std::vector<Aggregator>& agg_list =
            s->agg.Partials(s->key_buf, *agg_specs);
        for (size_t a = 0; a < agg_idx.size(); ++a) {
          if (agg_idx[a] < 0) {
            agg_list[a].AddRowWeighted(mult);
            continue;
          }
          const CellLoc& l = (*loc)[static_cast<size_t>(agg_idx[a])];
          if (l.kind == CellLoc::kFactor &&
              (*odometer_slot)[static_cast<size_t>(l.factor)] < 0) {
            // Aggregated column varies within a multiplicity factor: each
            // of its rows appears in mult / rows-of-factor flat rows.
            const size_t f = static_cast<size_t>(l.factor);
            const size_t rows = view->FactorRows(f);
            for (size_t t = 0; t < rows; ++t) {
              agg_list[a].AddTermWeighted(factor_cell(f, t, l.slot), *dict,
                                          mult / rows);
            }
          } else {
            agg_list[a].AddTermWeighted(cell_at(agg_idx[a]), *dict, mult);
          }
        }
        size_t e = key_factors.size();
        for (;;) {
          if (e == 0) return;
          --e;
          if (++s->idx[e] < view->FactorRows(key_factors[e])) break;
          s->idx[e] = 0;
        }
      }
    };
  } else {
    // Every other GroupBy reads flat rows (factorized input decompresses
    // here) into the aggregation shuffle: pre-aggregated, or shipped raw.
    auto source = std::make_shared<RowSource>(SourceOf(input));
    job.map = [source, key_idx, agg_idx, agg_specs, dict, map_side_agg](
                  const mr::Record& r, int, mr::MapContext* ctx) {
      GroupByScratch* s = ctx->TaskState<GroupByScratch>();
      s->reader.ForEachRow(
          *source, r, [&](const std::vector<rdf::TermId>& row) {
            s->key_buf.clear();
            AppendCells(&s->key_buf, row, key_idx);
            s->agg.Add(s->key_buf, row.data(), agg_idx, *agg_specs,
                       map_side_agg, *dict, ctx);
          });
    };
  }
  if (map_side_agg) {
    job.map_finish = [](mr::MapContext* ctx) {
      ctx->TaskState<GroupByScratch>()->agg.Flush(ctx);
    };
  }

  job.reduce = [agg_specs, dict, having](std::string_view key,
                                         const mr::ValueSpan& values,
                                         mr::ReduceContext* ctx) {
    AggReduceScratch* s = ctx->TaskState<AggReduceScratch>();
    FoldAggGroup(key, *agg_specs, values, dict, s);
    if (having == nullptr || having(s->row)) ctx->Emit("", s->val_buf);
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
    if (f->empty() && in_f->empty()) {
      std::vector<rdf::TermId> row = EmptyGroupRow(aggs, dict);
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
  // Factorized input decompresses here; the reduce-side dedup makes the
  // enumeration order immaterial (DISTINCT is order-insensitive), which
  // is exactly why the planner may factorize up to this sink.
  auto source = std::make_shared<RowSource>(SourceOf(input));
  job.map = [source, idx, keep_predicate](const mr::Record& r, int,
                                          mr::MapContext* ctx) {
    MapScratch* s = ctx->TaskState<MapScratch>();
    s->reader.ForEachRow(*source, r, [&](const std::vector<rdf::TermId>& row) {
      if (keep_predicate && !keep_predicate(row)) return;
      s->key_buf.clear();
      AppendCells(&s->key_buf, row, idx);
      ctx->Emit(s->key_buf, "");
    });
  };
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

analytics::BindingTable JoinAndProject(
    std::vector<analytics::BindingTable> tables,
    const std::vector<sparql::SelectItem>& items, rdf::Dictionary* dict) {
  RAPIDA_CHECK(!tables.empty());
  analytics::BindingTable joined = std::move(tables[0]);
  for (size_t i = 1; i < tables.size(); ++i) joined = joined.Join(tables[i]);

  std::vector<std::string> columns;
  for (const sparql::SelectItem& item : items) columns.push_back(item.name);
  analytics::BindingTable out(std::move(columns));
  out.ReserveRows(joined.NumRows());
  std::vector<rdf::TermId> out_row;
  for (const std::span<const rdf::TermId> row : joined.rows()) {
    auto resolve = [&joined, &row](const std::string& v) {
      int i = joined.VarIndex(v);
      return i < 0 ? rdf::kInvalidTermId : row[i];
    };
    out_row.clear();
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
    out.AddRow(out_row);
  }
  return out;
}

StatusOr<analytics::BindingTable> RelationalOps::FinalJoinProject(
    const std::string& job_name, std::vector<analytics::BindingTable> tables,
    const std::vector<std::string>& input_files,
    const std::vector<sparql::SelectItem>& items) {
  analytics::BindingTable projected =
      JoinAndProject(std::move(tables), items, &dataset_->dict());

  // Model the work as one map-only broadcast-join cycle: the job scans
  // every input (honest byte accounting) and task 0 emits the result. The
  // job runs to completion inside Cluster::Run, so map_finish may borrow
  // the table.
  mr::JobConfig job;
  job.name = job_name;
  std::set<std::string> distinct_inputs(input_files.begin(),
                                        input_files.end());
  job.inputs.assign(distinct_inputs.begin(), distinct_inputs.end());
  job.output = NextTmp("result");
  job.map = [](const mr::Record&, int, mr::MapContext*) {};
  job.map_finish = [&projected](mr::MapContext* ctx) {
    if (ctx->task() != 0) return;
    std::string value;
    for (std::span<const rdf::TermId> row : projected.rows()) {
      value.clear();
      AppendRow(&value, row.data(), row.size());
      ctx->Emit("", value);
    }
  };
  RAPIDA_RETURN_IF_ERROR(cluster_->Run(job).status());
  return projected;
}

StatusOr<analytics::BindingTable> RelationalOps::ReadTable(
    const TableRef& table) {
  RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                          dataset_->dfs().Open(table.file));
  analytics::BindingTable out(table.columns);
  // A flat file holds one row per record; a factorized one more.
  out.ReserveRows(f->size());
  const RowSource source = SourceOf(table);
  RowReader reader;
  f->ForEach([&](const mr::Record& r) {
    reader.ForEachRow(source, r, [&out](const std::vector<rdf::TermId>& row) {
      out.AddRow(row);
    });
  });
  return out;
}

StatusOr<uint64_t> RelationalOps::FlatStoredBytes(const TableRef& table) const {
  if (!table.factorized()) return dataset_->VpFileBytes(table.file);
  // Join intermediates are written with default (uncompressed) FileOptions,
  // so the flat equivalent's stored bytes are its raw record bytes.
  RAPIDA_ASSIGN_OR_RETURN(const mr::Dfs::File* f,
                          dataset_->dfs().Open(table.file));
  uint64_t bytes = 0;
  RowReader reader;
  f->ForEach([&](const mr::Record& r) {
    if (const GroupView* g = reader.Group(*table.factor, r.value())) {
      bytes += FlatRecordBytes(*table.factor, *g);
    }
  });
  return bytes;
}

}  // namespace rapida::engine
