#include "engines/rapid_plus.h"

#include "engines/var_translate.h"

namespace rapida::engine {

void SplitNtgaFilters(
    const std::vector<sparql::ExprPtr>& filters,
    const std::map<std::string, std::string>& var_map,
    const std::vector<std::string>& pattern_vars,
    const rdf::Dictionary* dict,
    std::vector<sparql::ExprPtr>* owned, PushedFilters* pushed,
    RowPredicate* mapping_predicate) {
  std::vector<const sparql::Expr*> residual;
  for (const auto& f : filters) {
    sparql::ExprPtr translated = MapExprVars(*f, var_map);
    std::vector<std::string> vars;
    translated->CollectVars(&vars);
    sparql::Expr* raw = translated.get();
    owned->push_back(std::move(translated));
    if (vars.size() == 1) {
      (*pushed)[vars[0]].push_back(raw);
    } else {
      residual.push_back(raw);
    }
  }
  *mapping_predicate =
      residual.empty() ? nullptr
                       : CompilePredicate(residual, pattern_vars, dict);
}

}  // namespace rapida::engine
