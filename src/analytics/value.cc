#include "analytics/value.h"

#include <cmath>
#include <cstdio>

namespace rapida::analytics {

rdf::TermId InternNumber(rdf::Dictionary* dict, double value) {
  if (std::floor(value) == value && std::fabs(value) < 9.0e15) {
    return dict->InternInt(static_cast<int64_t>(value));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return dict->InternLiteral(buf, rdf::kXsdDouble);
}

int CompareTerms(const rdf::Dictionary& dict, rdf::TermId a, rdf::TermId b) {
  if (a == b) return 0;
  if (a == rdf::kInvalidTermId) return -1;
  if (b == rdf::kInvalidTermId) return 1;
  auto na = dict.AsNumber(a);
  auto nb = dict.AsNumber(b);
  if (na.has_value() && nb.has_value()) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  const rdf::TermView ta = dict.Get(a);
  const rdf::TermView tb = dict.Get(b);
  if (ta.kind != tb.kind) {
    return static_cast<int>(ta.kind) < static_cast<int>(tb.kind) ? -1 : 1;
  }
  int c = ta.text.compare(tb.text);
  if (c != 0) return c;
  return ta.datatype.compare(tb.datatype);
}

std::string DisplayTerm(const rdf::Dictionary& dict, rdf::TermId id) {
  if (id == rdf::kInvalidTermId) return "∅";
  const rdf::TermView t = dict.Get(id);
  if (t.is_iri()) {
    size_t pos = t.text.find_last_of("/#");
    return std::string(pos == std::string::npos ? t.text
                                                : t.text.substr(pos + 1));
  }
  return std::string(t.text);
}

}  // namespace rapida::analytics
