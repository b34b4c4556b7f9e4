#ifndef RAPIDA_ENGINES_NTGA_EXEC_H_
#define RAPIDA_ENGINES_NTGA_EXEC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytics/binding.h"
#include "engines/dataset.h"
#include "engines/relational_ops.h"
#include "mapreduce/cluster.h"
#include "ntga/operators.h"
#include "ntga/resolved_pattern.h"
#include "util/statusor.h"

namespace rapida::engine {

/// Map of composite variable name -> single-variable filters pushed into
/// star matching (evaluated per candidate triple).
using PushedFilters = std::map<std::string, std::vector<const sparql::Expr*>>;

/// Per-grouping work item for the TG Agg-Join cycle.
struct NtgaGrouping {
  ntga::AggJoinSpec spec;                  // θ / l / α (composite namespace)
  std::vector<std::string> pattern_vars;   // expansion variable set
  std::vector<std::string> output_columns; // original-namespace names:
                                           // group_by names then agg names
  /// Residual (multi-variable) filters evaluated per solution mapping,
  /// over pattern_vars order. May be null.
  RowPredicate mapping_predicate;
  /// HAVING condition over output_columns (applied to the aggregated
  /// table, after the GROUP-BY-ALL default-row rule). Not owned.
  const sparql::Expr* having = nullptr;
  /// The `gid#` prefix of its Agg-Join keys: the grouping's index among
  /// its plan's Agg-Joins (0 for a RAPID+ grouping).
  int id = 0;
};

/// Matches of a pattern: either a DFS file of serialized
/// NestedTripleGroups (multi-star patterns), or — for one-star patterns —
/// the raw triplegroup files plus the star to filter in the Agg-Join map
/// (pattern matching folds into the aggregation cycle, giving the 2-cycle
/// plans of Table 3).
struct PatternMatches {
  std::string nested_file;
  std::vector<std::string> star_files;
};

/// The physical NTGA operators shared by RAPID+ and RAPIDAnalytics: the
/// MR renditions of TG_OptGrpFilter, TG_AlphaJoin (Alg. 2) and TG_AgJ
/// (Alg. 3). The Agg-Join owns what is NTGA-specific — its `gid#` keys,
/// the α filter, the binding expansion and HAVING after the job — and
/// aggregates through RelationalOps' aggregation shuffle (AggMap,
/// FoldAggGroup), the one GROUP BY copy; the final join is
/// RelationalOps::FinalJoinProject, as for the relational engines. Each
/// method runs exactly one job. The plan nodes' execs make every choice —
/// the chain order, the filter split, map-side aggregation, which
/// groupings share an Agg-Join — from the plan, so no EngineOptions
/// reaches this class.
class NtgaExec {
 public:
  NtgaExec(mr::Cluster* cluster, Dataset* dataset, std::string tmp_prefix);

  /// One TG_AlphaJoin cycle of `pattern`'s chain, numbered `cycle`: joins
  /// on `pattern.joins[edge]` the raw triplegroups of `star` with the
  /// accumulated nested groups `acc` — or, in the first cycle (`acc`
  /// empty), with the raw triplegroups of the edge's other star.
  /// `star_files` holds each star's covering triplegroup files;
  /// `pushed_filters` are applied at triple level during star matching.
  /// `alphas` (a disjunction; empty keeps every group) filters the joined
  /// groups. Returns the nested output file.
  StatusOr<std::string> AlphaJoinCycle(
      const ntga::ResolvedPattern& pattern,
      const PushedFilters& pushed_filters,
      const std::vector<std::vector<std::string>>& star_files, size_t edge,
      int star, const std::string& acc,
      const std::vector<ntga::AlphaCondition>& alphas,
      const std::string& label, size_t cycle);

  /// One TG Agg-Join cycle named `name` over `groupings`: one grouping
  /// (Fig. 6a / RAPID+) or a parallel region's members (Fig. 6b).
  /// `map_side_agg` pre-aggregates in the map (Alg. 3's multiAggMap, the
  /// aggregation shuffle's AggMap).
  /// Returns one table per grouping (rows are EncodeRow'd group keys +
  /// aggregate values), all backed by `*out_file`, named from `out_hint`.
  StatusOr<std::vector<analytics::BindingTable>> RunAggJoins(
      const ntga::ResolvedPattern& pattern, const PatternMatches& matches,
      const PushedFilters& pushed_filters,
      const std::vector<const NtgaGrouping*>& groupings, bool map_side_agg,
      const std::string& name, const std::string& out_hint,
      std::string* out_file);

  /// One map-only cycle turning pattern matches into a relational table
  /// over `columns` (pattern variables): parses each nested group (or raw
  /// triplegroup for one-star matches — star filtering folds into the
  /// map), expands the solution mappings (unbound slots stay NULL),
  /// applies the residual `mapping_predicate`, and writes EncodeRow'd
  /// rows. The bridge from NTGA pattern matching to the relational
  /// left-join/union/group-by tail of OPTIONAL/UNION groupings.
  StatusOr<TableRef> ExpandToTable(const ntga::ResolvedPattern& pattern,
                                   const PatternMatches& matches,
                                   const PushedFilters& pushed_filters,
                                   const std::vector<std::string>& columns,
                                   RowPredicate mapping_predicate,
                                   const std::string& label);

  void Cleanup();

 private:
  std::string NextTmp(const std::string& hint);

  mr::Cluster* cluster_;
  Dataset* dataset_;
  std::string tmp_prefix_;
  int counter_ = 0;
  std::vector<std::string> temp_files_;
};

}  // namespace rapida::engine

#endif  // RAPIDA_ENGINES_NTGA_EXEC_H_
