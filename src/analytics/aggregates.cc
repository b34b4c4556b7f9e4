#include "analytics/aggregates.h"

#include <algorithm>
#include <cstdio>

#include "analytics/value.h"
#include "util/string_util.h"

namespace rapida::analytics {

using sparql::AggFunc;

void Aggregator::AddTerm(rdf::TermId value, const rdf::Dictionary& dict) {
  if (value == rdf::kInvalidTermId) return;
  if (distinct_) {
    if (!seen_.insert(value).second) return;
  }
  ++count_;
  auto num = dict.AsNumber(value);
  if (num.has_value()) sum_ += *num;
  if (!has_minmax_) {
    has_minmax_ = true;
    min_term_ = value;
    max_term_ = value;
  } else {
    if (CompareTerms(dict, value, min_term_) < 0) min_term_ = value;
    if (CompareTerms(dict, value, max_term_) > 0) max_term_ = value;
  }
  if (sample_ == rdf::kInvalidTermId || value < sample_) sample_ = value;
  if (func_ == AggFunc::kGroupConcat) concat_values_.push_back(value);
}

void Aggregator::AddRow() { ++count_; }

void Aggregator::AddTermWeighted(rdf::TermId value,
                                 const rdf::Dictionary& dict, uint64_t w) {
  if (w == 0 || value == rdf::kInvalidTermId) return;
  if (distinct_) {
    // Duplicates beyond the first are ignored anyway.
    AddTerm(value, dict);
    return;
  }
  AddTerm(value, dict);  // min/max/sample/concat see the value once...
  count_ += w - 1;       // ...count and sum carry the multiplicity
  auto num = dict.AsNumber(value);
  if (num.has_value()) sum_ += *num * static_cast<double>(w - 1);
  if (func_ == AggFunc::kGroupConcat) {
    for (uint64_t i = 1; i < w; ++i) concat_values_.push_back(value);
  }
}

void Aggregator::Merge(const Aggregator& other, const rdf::Dictionary& dict) {
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.has_minmax_) {
    if (!has_minmax_) {
      has_minmax_ = true;
      min_term_ = other.min_term_;
      max_term_ = other.max_term_;
    } else {
      if (CompareTerms(dict, other.min_term_, min_term_) < 0) {
        min_term_ = other.min_term_;
      }
      if (CompareTerms(dict, other.max_term_, max_term_) > 0) {
        max_term_ = other.max_term_;
      }
    }
  }
  if (other.sample_ != rdf::kInvalidTermId &&
      (sample_ == rdf::kInvalidTermId || other.sample_ < sample_)) {
    sample_ = other.sample_;
  }
  concat_values_.insert(concat_values_.end(), other.concat_values_.begin(),
                        other.concat_values_.end());
}

rdf::TermId Aggregator::Finalize(rdf::Dictionary* dict) const {
  switch (func_) {
    case AggFunc::kCount:
      return InternNumber(dict, static_cast<double>(count_));
    case AggFunc::kSum:
      return InternNumber(dict, sum_);
    case AggFunc::kAvg:
      return InternNumber(dict,
                          count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_));
    case AggFunc::kMin:
      return min_term_;
    case AggFunc::kMax:
      return max_term_;
    case AggFunc::kSample:
      return sample_;
    case AggFunc::kGroupConcat: {
      // Canonical order: sort values lexically (implementation-defined in
      // SPARQL; this choice keeps partials mergeable in any order).
      std::vector<std::string> texts;
      texts.reserve(concat_values_.size());
      for (rdf::TermId id : concat_values_) {
        texts.emplace_back(dict->Get(id).text);
      }
      std::sort(texts.begin(), texts.end());
      return dict->InternLiteral(JoinStrings(texts, separator_));
    }
  }
  return rdf::kInvalidTermId;
}

std::string Aggregator::SerializePartial() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu,%.17g,%d,%u,%u,%u",
                static_cast<unsigned long long>(count_), sum_,
                has_minmax_ ? 1 : 0, min_term_, max_term_, sample_);
  std::string out = buf;
  out += ',';
  for (size_t i = 0; i < concat_values_.size(); ++i) {
    if (i > 0) out += ':';
    out += std::to_string(concat_values_[i]);
  }
  return out;
}

StatusOr<Aggregator> Aggregator::DeserializePartial(AggFunc func,
                                                    std::string_view data,
                                                    std::string separator) {
  std::string_view parts[7];
  FieldTokenizer fields(data, ',');
  size_t n = 0;
  std::string_view f;
  while (fields.Next(&f)) {
    if (n == 7) return Status::ParseError("bad partial aggregate: " +
                                          std::string(data));
    parts[n++] = f;
  }
  if (n != 7) {
    return Status::ParseError("bad partial aggregate: " + std::string(data));
  }
  Aggregator agg(func, /*distinct=*/false, std::move(separator));
  int64_t count = 0, has = 0, mn = 0, mx = 0, smp = 0;
  double sum = 0;
  if (!ParseInt64(parts[0], &count) || !ParseDouble(parts[1], &sum) ||
      !ParseInt64(parts[2], &has) || !ParseInt64(parts[3], &mn) ||
      !ParseInt64(parts[4], &mx) || !ParseInt64(parts[5], &smp)) {
    return Status::ParseError("bad partial aggregate: " + std::string(data));
  }
  agg.count_ = static_cast<uint64_t>(count);
  agg.sum_ = sum;
  agg.has_minmax_ = has != 0;
  agg.min_term_ = static_cast<rdf::TermId>(mn);
  agg.max_term_ = static_cast<rdf::TermId>(mx);
  agg.sample_ = static_cast<rdf::TermId>(smp);
  if (!parts[6].empty()) {
    FieldTokenizer ids(parts[6], ':');
    std::string_view id_text;
    while (ids.Next(&id_text)) {
      int64_t id = 0;
      if (!ParseInt64(id_text, &id)) {
        return Status::ParseError("bad partial aggregate: " +
                                  std::string(data));
      }
      agg.concat_values_.push_back(static_cast<rdf::TermId>(id));
    }
  }
  return agg;
}

}  // namespace rapida::analytics
