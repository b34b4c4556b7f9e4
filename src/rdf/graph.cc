#include "rdf/graph.h"

#include <algorithm>

namespace rapida::rdf {

void Graph::Add(TermId s, TermId p, TermId o) {
  const Triple t{s, p, o};
  auto [pos, inserted] = triple_index_.FindOrInsert(
      util::MixId(TripleHash()(t)), static_cast<uint32_t>(triples_.size()),
      [&](uint32_t cand) { return triples_[cand] == t; });
  if (!inserted) return;
  triples_.push_back(t);
  serialized_bytes_ += dict_.Get(s).text.size() + dict_.Get(p).text.size() +
                       dict_.Get(o).text.size() + 8;  // separators + " .\n"
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

TermId Graph::TypeIdOrInvalid() const { return dict_.LookupIri(kRdfType); }

std::unordered_map<TermId, uint64_t> Graph::PropertyCounts() const {
  std::unordered_map<TermId, uint64_t> counts;
  for (const Triple& t : triples_) ++counts[t.p];
  return counts;
}

}  // namespace rapida::rdf
