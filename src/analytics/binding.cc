#include "analytics/binding.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

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

}  // namespace

int BindingTable::VarIndex(const std::string& var) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

void BindingTable::AddRow(std::vector<rdf::TermId> row) {
  RAPIDA_DCHECK(row.size() == vars_.size());
  rows_.push_back(std::move(row));
}

BindingTable BindingTable::Join(const BindingTable& right) const {
  // Shared variables and the right-only columns to append.
  std::vector<std::pair<int, int>> shared;  // (left idx, right idx)
  std::vector<int> right_only;
  for (size_t j = 0; j < right.vars_.size(); ++j) {
    int li = VarIndex(right.vars_[j]);
    if (li >= 0) {
      shared.emplace_back(li, static_cast<int>(j));
    } else {
      right_only.push_back(static_cast<int>(j));
    }
  }

  std::vector<std::string> out_vars = vars_;
  for (int j : right_only) out_vars.push_back(right.vars_[j]);
  BindingTable out(std::move(out_vars));

  // Hash the right side on the shared key.
  std::unordered_map<std::vector<rdf::TermId>, std::vector<size_t>, KeyHash>
      index;
  for (size_t r = 0; r < right.rows_.size(); ++r) {
    std::vector<rdf::TermId> key;
    key.reserve(shared.size());
    for (const auto& [li, rj] : shared) key.push_back(right.rows_[r][rj]);
    index[std::move(key)].push_back(r);
  }

  for (const auto& lrow : rows_) {
    std::vector<rdf::TermId> key;
    key.reserve(shared.size());
    for (const auto& [li, rj] : shared) key.push_back(lrow[li]);
    auto it = index.find(key);
    if (it == index.end()) continue;
    for (size_t r : it->second) {
      std::vector<rdf::TermId> row = lrow;
      for (int j : right_only) row.push_back(right.rows_[r][j]);
      out.rows_.push_back(std::move(row));
    }
  }
  return out;
}

BindingTable BindingTable::LeftJoin(const BindingTable& right) const {
  std::vector<std::pair<int, int>> shared;
  std::vector<int> right_only;
  for (size_t j = 0; j < right.vars_.size(); ++j) {
    int li = VarIndex(right.vars_[j]);
    if (li >= 0) {
      shared.emplace_back(li, static_cast<int>(j));
    } else {
      right_only.push_back(static_cast<int>(j));
    }
  }

  std::vector<std::string> out_vars = vars_;
  for (int j : right_only) out_vars.push_back(right.vars_[j]);
  BindingTable out(std::move(out_vars));

  for (const auto& lrow : rows_) {
    bool matched = false;
    for (const auto& rrow : right.rows_) {
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
      std::vector<rdf::TermId> row = lrow;
      // Fill any unbound shared cells from the right side.
      for (const auto& [li, rj] : shared) {
        if (row[li] == rdf::kInvalidTermId) row[li] = rrow[rj];
      }
      for (int j : right_only) row.push_back(rrow[j]);
      out.rows_.push_back(std::move(row));
    }
    if (!matched) {
      std::vector<rdf::TermId> row = lrow;
      row.resize(row.size() + right_only.size(), rdf::kInvalidTermId);
      out.rows_.push_back(std::move(row));
    }
  }
  return out;
}

void BindingTable::UnionAll(const BindingTable& other) {
  for (const std::string& v : other.vars_) {
    if (VarIndex(v) < 0) {
      vars_.push_back(v);
      for (auto& row : rows_) row.push_back(rdf::kInvalidTermId);
    }
  }
  std::vector<int> src(vars_.size(), -1);  // our column -> other's column
  for (size_t i = 0; i < vars_.size(); ++i) {
    src[i] = other.VarIndex(vars_[i]);
  }
  for (const auto& orow : other.rows_) {
    std::vector<rdf::TermId> row(vars_.size(), rdf::kInvalidTermId);
    for (size_t i = 0; i < vars_.size(); ++i) {
      if (src[i] >= 0) row[i] = orow[src[i]];
    }
    rows_.push_back(std::move(row));
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
  out.rows_.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<rdf::TermId> prow;
    prow.reserve(idx.size());
    for (int i : idx) prow.push_back(row[i]);
    out.rows_.push_back(std::move(prow));
  }
  return out;
}

void BindingTable::Distinct() {
  std::sort(rows_.begin(), rows_.end());
  rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
}

std::vector<std::string> BindingTable::ToSortedStrings(
    const rdf::Dictionary& dict) const {
  // Canonical column order: sorted by variable name.
  std::vector<size_t> order(vars_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](size_t a, size_t b) { return vars_[a] < vars_[b]; });

  std::vector<std::string> out;
  out.reserve(rows_.size());
  for (const auto& row : rows_) {
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
  size_t n = std::min(max_rows, rows_.size());
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < vars_.size(); ++i) {
      if (i > 0) os << "\t";
      os << DisplayTerm(dict, rows_[r][i]);
    }
    os << "\n";
  }
  if (rows_.size() > n) {
    os << "... (" << rows_.size() << " rows total)\n";
  }
  return os.str();
}


void FilterRowsByExpr(BindingTable* table, const sparql::Expr& condition,
                      const rdf::Dictionary& dict) {
  BindingTable filtered(table->vars());
  for (const auto& row : table->rows()) {
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
    auto& rows = table->mutable_rows();
    std::stable_sort(
        rows.begin(), rows.end(),
        [&](const std::vector<rdf::TermId>& a,
            const std::vector<rdf::TermId>& b) {
          for (size_t i = 0; i < order_by.size(); ++i) {
            rdf::TermId va = cols[i] < 0 ? rdf::kInvalidTermId : a[cols[i]];
            rdf::TermId vb = cols[i] < 0 ? rdf::kInvalidTermId : b[cols[i]];
            int c = CompareTerms(dict, va, vb);
            if (c != 0) return order_by[i].descending ? c > 0 : c < 0;
          }
          return false;
        });
  }
  auto& rows = table->mutable_rows();
  if (offset > 0) {
    if (static_cast<size_t>(offset) >= rows.size()) {
      rows.clear();
    } else {
      rows.erase(rows.begin(), rows.begin() + offset);
    }
  }
  if (limit >= 0 && rows.size() > static_cast<size_t>(limit)) {
    rows.resize(static_cast<size_t>(limit));
  }
}

}  // namespace rapida::analytics
