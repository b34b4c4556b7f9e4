#include "rdf/graph.h"

#include <algorithm>

namespace rapida::rdf {

void Graph::Add(TermId s, TermId p, TermId o) {
  Triple t{s, p, o};
  if (triple_set_.insert(t).second) triples_.push_back(t);
}

void Graph::Add(const Term& s, const Term& p, const Term& o) {
  Add(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o));
}

void Graph::AddIri(std::string_view s, std::string_view p,
                   std::string_view o) {
  Add(dict_.InternIri(s), dict_.InternIri(p), dict_.InternIri(o));
}

void Graph::AddLit(std::string_view s, std::string_view p,
                   std::string_view o) {
  Add(dict_.InternIri(s), dict_.InternIri(p), dict_.InternLiteral(o));
}

void Graph::AddInt(std::string_view s, std::string_view p, int64_t value) {
  Add(dict_.InternIri(s), dict_.InternIri(p), dict_.InternInt(value));
}

TermId Graph::TypeId() { return dict_.InternIri(kRdfType); }

TermId Graph::TypeIdOrInvalid() const { return dict_.LookupIri(kRdfType); }

std::unordered_map<TermId, uint64_t> Graph::PropertyCounts() const {
  std::unordered_map<TermId, uint64_t> counts;
  for (const Triple& t : triples_) ++counts[t.p];
  return counts;
}

std::vector<Graph::SubjectGroup> Graph::SubjectGroups() const {
  std::vector<Triple> sorted = triples_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<SubjectGroup> groups;
  for (const Triple& t : sorted) {
    if (groups.empty() || groups.back().subject != t.s) {
      groups.push_back(SubjectGroup{t.s, {}});
    }
    groups.back().triples.push_back(t);
  }
  return groups;
}

uint64_t Graph::EstimateSerializedBytes() const {
  uint64_t total = 0;
  for (const Triple& t : triples_) {
    total += dict_.Get(t.s).text.size() + dict_.Get(t.p).text.size() +
             dict_.Get(t.o).text.size() + 8;  // separators + " .\n"
  }
  return total;
}

}  // namespace rapida::rdf
