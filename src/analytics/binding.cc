#include "analytics/binding.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "analytics/value.h"
#include "sparql/expr_eval.h"
#include "util/logging.h"

namespace rapida::analytics {

namespace {

/// Hash for a vector of join-key term ids.
struct KeyHash {
  size_t operator()(const std::vector<rdf::TermId>& key) const {
    uint64_t h = 1469598103934665603ULL;
    for (rdf::TermId id : key) {
      h ^= id;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// The columns of a join of `left` and `right` on their shared names.
struct JoinColumns {
  std::vector<std::pair<int, int>> shared;  // (left idx, right idx)
  std::vector<int> right_only;              // appended after left's
  std::vector<std::string> out_vars;
};

JoinColumns ColumnsOf(const BindingTable& left, const BindingTable& right) {
  JoinColumns c;
  c.out_vars = left.vars();
  for (size_t j = 0; j < right.NumCols(); ++j) {
    int li = left.VarIndex(right.vars()[j]);
    if (li >= 0) {
      c.shared.emplace_back(li, static_cast<int>(j));
    } else {
      c.right_only.push_back(static_cast<int>(j));
      c.out_vars.push_back(right.vars()[j]);
    }
  }
  return c;
}

}  // namespace

BindingTable::Cells& BindingTable::Own() {
  if (cells_ == nullptr) {
    cells_ = std::make_shared<Cells>();
  } else if (cells_.use_count() > 1) {
    cells_ = std::make_shared<Cells>(*cells_);
  } else {
    // use_count() is a relaxed load. The fence orders the writes that
    // follow after the reads of any copy another thread has since
    // destroyed (its release of the count).
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *cells_;
}

int BindingTable::VarIndex(const std::string& var) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

void BindingTable::AddRow(std::span<const rdf::TermId> row) {
  RAPIDA_DCHECK(row.size() == NumCols());
  Cells& cells = Own();
  std::vector<rdf::TermId>& ids = cells.ids;
  // Grow by half, not double: a table built row by row then holds at most
  // 1.5x its cells.
  if (ids.capacity() - ids.size() < row.size()) {
    ids.reserve(std::max(ids.size() + row.size(), ids.capacity() * 3 / 2));
  }
  ids.insert(ids.end(), row.begin(), row.end());
  ++cells.rows;
}

std::span<rdf::TermId> BindingTable::MutableRow(size_t r) {
  RAPIDA_DCHECK(r < NumRows());
  return {Own().ids.data() + r * NumCols(), NumCols()};
}

void BindingTable::ReserveRows(size_t rows) {
  Own().ids.reserve(rows * NumCols());
}

void BindingTable::TruncateRows(size_t n) {
  if (n >= NumRows()) return;
  Cells& cells = Own();
  cells.ids.resize(n * NumCols());
  cells.rows = n;
}

void BindingTable::DropFrontRows(size_t n) {
  n = std::min(n, NumRows());
  if (n == 0) return;
  Cells& cells = Own();
  cells.ids.erase(cells.ids.begin(), cells.ids.begin() + n * NumCols());
  cells.rows -= n;
}

void BindingTable::RenameColumns(std::vector<std::string> names) {
  RAPIDA_CHECK(names.size() == vars_.size());
  vars_ = std::move(names);
}

BindingTable BindingTable::Join(const BindingTable& right) const {
  auto [shared, right_only, out_vars] = ColumnsOf(*this, right);
  BindingTable out(std::move(out_vars));

  // Hash the right side on the shared key.
  std::unordered_map<std::vector<rdf::TermId>, std::vector<size_t>, KeyHash>
      index;
  std::vector<rdf::TermId> key;
  for (size_t r = 0; r < right.NumRows(); ++r) {
    const std::span<const rdf::TermId> rrow = right.Row(r);
    key.clear();
    for (const auto& [li, rj] : shared) key.push_back(rrow[rj]);
    index[key].push_back(r);
  }

  std::vector<rdf::TermId> row;
  for (size_t l = 0; l < NumRows(); ++l) {
    const std::span<const rdf::TermId> lrow = Row(l);
    key.clear();
    for (const auto& [li, rj] : shared) key.push_back(lrow[li]);
    auto it = index.find(key);
    if (it == index.end()) continue;
    for (size_t r : it->second) {
      const std::span<const rdf::TermId> rrow = right.Row(r);
      row.assign(lrow.begin(), lrow.end());
      for (int j : right_only) row.push_back(rrow[j]);
      out.AddRow(row);
    }
  }
  return out;
}

BindingTable BindingTable::LeftJoin(const BindingTable& right) const {
  auto [shared, right_only, out_vars] = ColumnsOf(*this, right);
  BindingTable out(std::move(out_vars));

  std::vector<rdf::TermId> row;
  for (const std::span<const rdf::TermId> lrow : rows()) {
    bool matched = false;
    for (const std::span<const rdf::TermId> rrow : right.rows()) {
      bool compatible = true;
      for (const auto& [li, rj] : shared) {
        // SPARQL compatibility: unbound on either side is compatible.
        if (lrow[li] != rdf::kInvalidTermId &&
            rrow[rj] != rdf::kInvalidTermId && lrow[li] != rrow[rj]) {
          compatible = false;
          break;
        }
      }
      if (!compatible) continue;
      matched = true;
      row.assign(lrow.begin(), lrow.end());
      // Fill any unbound shared cells from the right side.
      for (const auto& [li, rj] : shared) {
        if (row[li] == rdf::kInvalidTermId) row[li] = rrow[rj];
      }
      for (int j : right_only) row.push_back(rrow[j]);
      out.AddRow(row);
    }
    if (!matched) {
      row.assign(lrow.begin(), lrow.end());
      row.resize(row.size() + right_only.size(), rdf::kInvalidTermId);
      out.AddRow(row);
    }
  }
  return out;
}

void BindingTable::UnionAll(const BindingTable& other) {
  const size_t old_width = NumCols();
  for (const std::string& v : other.vars_) {
    if (VarIndex(v) < 0) vars_.push_back(v);
  }
  const size_t width = NumCols();
  if (width != old_width && NumRows() > 0) {
    // Re-lay the existing rows at the new stride; new columns read unbound.
    auto widened = std::make_shared<Cells>();
    widened->ids.assign(NumRows() * width, rdf::kInvalidTermId);
    widened->rows = NumRows();
    for (size_t r = 0; r < NumRows(); ++r) {
      std::copy_n(cells_->ids.data() + r * old_width, old_width,
                  widened->ids.data() + r * width);
    }
    cells_ = std::move(widened);
  }
  std::vector<int> src(width, -1);  // our column -> other's column
  for (size_t i = 0; i < width; ++i) src[i] = other.VarIndex(vars_[i]);
  ReserveRows(NumRows() + other.NumRows());
  std::vector<rdf::TermId> row(width);
  for (const std::span<const rdf::TermId> orow : other.rows()) {
    for (size_t i = 0; i < width; ++i) {
      row[i] = src[i] >= 0 ? orow[src[i]] : rdf::kInvalidTermId;
    }
    AddRow(row);
  }
}

StatusOr<BindingTable> BindingTable::Project(
    const std::vector<std::string>& vars) const {
  std::vector<int> idx;
  idx.reserve(vars.size());
  for (const std::string& v : vars) {
    int i = VarIndex(v);
    if (i < 0) {
      return Status::InvalidArgument("projection variable ?" + v +
                                     " not bound by pattern");
    }
    idx.push_back(i);
  }
  BindingTable out(vars);
  out.ReserveRows(NumRows());
  std::vector<rdf::TermId> prow(idx.size());
  for (const std::span<const rdf::TermId> row : rows()) {
    for (size_t k = 0; k < idx.size(); ++k) prow[k] = row[idx[k]];
    out.AddRow(prow);
  }
  return out;
}

void BindingTable::Distinct() {
  // Sort a row permutation, then keep the first row of each equal run.
  std::vector<size_t> order(NumRows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return std::ranges::lexicographical_compare(Row(a), Row(b));
  });
  BindingTable out(vars_);
  for (size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && std::ranges::equal(Row(order[k - 1]), Row(order[k]))) {
      continue;
    }
    out.AddRow(Row(order[k]));
  }
  *this = std::move(out);
}

std::vector<std::string> BindingTable::ToSortedStrings(
    const rdf::Dictionary& dict) const {
  // Canonical column order: sorted by variable name.
  std::vector<size_t> order(vars_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](size_t a, size_t b) { return vars_[a] < vars_[b]; });

  std::vector<std::string> out;
  out.reserve(NumRows());
  for (const std::span<const rdf::TermId> row : rows()) {
    std::string line;
    for (size_t k = 0; k < order.size(); ++k) {
      if (k > 0) line += " | ";
      size_t i = order[k];
      line += vars_[i];
      line += '=';
      if (row[i] == rdf::kInvalidTermId) {
        line += "<unbound>";
      } else {
        const rdf::TermView t = dict.Get(row[i]);
        // Numeric literals render canonically so "5" and "5.0" agree.
        auto num = dict.AsNumber(row[i]);
        if (t.is_literal() && num.has_value()) {
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%.10g", *num);
          line += buf;
        } else {
          line += t.ToNTriples();
        }
      }
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string BindingTable::ToString(const rdf::Dictionary& dict,
                                   size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (i > 0) os << "\t";
    os << "?" << vars_[i];
  }
  os << "\n";
  size_t n = std::min(max_rows, NumRows());
  for (size_t r = 0; r < n; ++r) {
    const std::span<const rdf::TermId> row = Row(r);
    for (size_t i = 0; i < vars_.size(); ++i) {
      if (i > 0) os << "\t";
      os << DisplayTerm(dict, row[i]);
    }
    os << "\n";
  }
  if (NumRows() > n) {
    os << "... (" << NumRows() << " rows total)\n";
  }
  return os.str();
}


void FilterRowsByExpr(BindingTable* table, const sparql::Expr& condition,
                      const rdf::Dictionary& dict) {
  BindingTable filtered(table->vars());
  for (const std::span<const rdf::TermId> row : table->rows()) {
    auto resolve = [table, &row](const std::string& v) {
      int i = table->VarIndex(v);
      return i < 0 ? rdf::kInvalidTermId : row[i];
    };
    if (sparql::EffectiveBool(
            sparql::EvaluateExpr(condition, resolve, dict))) {
      filtered.AddRow(row);
    }
  }
  *table = std::move(filtered);
}

void ApplyOrderLimit(BindingTable* table,
                     const std::vector<sparql::OrderKey>& order_by,
                     int64_t limit, int64_t offset,
                     const rdf::Dictionary& dict) {
  if (!order_by.empty()) {
    std::vector<int> cols;
    cols.reserve(order_by.size());
    for (const sparql::OrderKey& k : order_by) {
      cols.push_back(table->VarIndex(k.var));
    }
    // Stable-sort a row permutation, then gather the rows in its order.
    std::vector<size_t> order(table->NumRows());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t ra, size_t rb) {
      const std::span<const rdf::TermId> a = table->Row(ra);
      const std::span<const rdf::TermId> b = table->Row(rb);
      for (size_t i = 0; i < order_by.size(); ++i) {
        rdf::TermId va = cols[i] < 0 ? rdf::kInvalidTermId : a[cols[i]];
        rdf::TermId vb = cols[i] < 0 ? rdf::kInvalidTermId : b[cols[i]];
        int c = CompareTerms(dict, va, vb);
        if (c != 0) return order_by[i].descending ? c > 0 : c < 0;
      }
      return false;
    });
    BindingTable sorted(table->vars());
    sorted.ReserveRows(order.size());
    for (size_t r : order) sorted.AddRow(table->Row(r));
    *table = std::move(sorted);
  }
  if (offset > 0) table->DropFrontRows(static_cast<size_t>(offset));
  if (limit >= 0) table->TruncateRows(static_cast<size_t>(limit));
}

}  // namespace rapida::analytics
