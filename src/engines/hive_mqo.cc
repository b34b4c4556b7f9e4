#include "engines/hive_mqo.h"

#include <set>

namespace rapida::engine {

// Secondary constant-object triples are rewritten to fresh marker
// variables: compiled as-is, the equality would fold into the VP scan and
// a value mismatch would look exactly like the property being absent —
// unobservable by the extraction step, which would then over-match (found
// by differential fuzzing).
ntga::StarGraph CompositeToStarGraph(
    const ntga::CompositePattern& comp,
    std::vector<std::vector<sparql::ExprPtr>>* sec_const_filters) {
  ntga::StarGraph out;
  int marker = 0;
  for (size_t s = 0; s < comp.stars.size(); ++s) {
    const ntga::CompositeStar& cs = comp.stars[s];
    ntga::StarPattern sp;
    sp.subject_var = cs.subject_var;
    for (ntga::StarTriple t : cs.triples) {
      if (cs.secondary.count(t.prop) > 0 && !t.prop.is_type() &&
          !t.object.is_var) {
        std::string var = "_sec" + std::to_string(marker++);
        for (size_t p = 0; p < comp.pattern_secondary.size(); ++p) {
          auto it = comp.pattern_secondary[p].find(static_cast<int>(s));
          if (it != comp.pattern_secondary[p].end() &&
              it->second.count(t.prop) > 0) {
            (*sec_const_filters)[p].push_back(sparql::Expr::MakeCompare(
                "=", sparql::Expr::MakeVar(var),
                sparql::Expr::MakeLiteral(t.object.term)));
          }
        }
        t.object = sparql::TermOrVar::Var(var);
      }
      sp.triples.push_back(std::move(t));
    }
    out.stars.push_back(std::move(sp));
  }
  out.joins = comp.joins;
  return out;
}

std::set<std::string> SecondaryVars(const ntga::CompositePattern& comp,
                                    const ntga::StarGraph& graph,
                                    size_t pattern_index) {
  std::set<std::string> out;
  for (size_t s = 0; s < graph.stars.size(); ++s) {
    auto it = comp.pattern_secondary[pattern_index].find(static_cast<int>(s));
    if (it == comp.pattern_secondary[pattern_index].end()) continue;
    for (const ntga::StarTriple& t : graph.stars[s].triples) {
      if (it->second.count(t.prop) == 0) continue;
      std::string v = t.ObjectVar();
      if (!v.empty()) out.insert(v);
    }
  }
  return out;
}

}  // namespace rapida::engine
