#ifndef RAPIDA_TESTING_DIFFERENTIAL_H_
#define RAPIDA_TESTING_DIFFERENTIAL_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "engines/engine.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "sparql/ast.h"
#include "testing/query_gen.h"

namespace rapida::difftest {

/// One decoded triple. Fuzz datasets are carried in this form (not as
/// rdf::Graph) because a Graph is move-only and the shrinker needs to
/// rebuild bisected subsets of the data cheaply.
using TripleSpec = std::array<rdf::Term, 3>;

std::vector<TripleSpec> DecodeGraph(const rdf::Graph& graph);
rdf::Graph BuildGraph(const std::vector<TripleSpec>& triples);

/// A reproducible fuzz case: everything below is a pure function of the
/// seed (dataset choice, generated data, and generated query come from
/// independent Random::Split streams, so the shrinker can vary one without
/// disturbing the other).
struct FuzzCase {
  uint64_t seed = 0;
  std::string dataset;
  std::unique_ptr<sparql::SelectQuery> query;
  std::vector<TripleSpec> triples;
};

FuzzCase MakeFuzzCase(uint64_t seed);

/// As above with explicit generator knobs (e.g. the OPTIONAL/UNION-biased
/// grammar of `rapida_fuzz --grammar=opt-union`). The same (seed, opts)
/// pair always yields the same case; the data stream is independent of the
/// grammar, so a seed's dataset is identical under every grammar.
FuzzCase MakeFuzzCase(uint64_t seed, const GenOptions& gen);

/// Artificial engine bugs for exercising the harness itself (the shrinker
/// acceptance test, and `rapida_fuzz --inject`).
enum class FaultKind {
  kNone,
  kDropRow,            // silently drop the last result row
  kPerturbAggregate,   // add 1 to the first numeric cell of the first row
};

struct DiffOptions {
  std::vector<int> thread_counts = {1, 8};
  /// Cap on exec split size, so even tiny fuzz datasets are divided across
  /// several in-process mappers (otherwise exec_threads never matters).
  uint64_t exec_split_bytes = 4 * 1024;
  FaultKind fault = FaultKind::kNone;
  std::string fault_engine;  // engine name() to sabotage, e.g. "RAPIDAnalytics"
  /// Also assert the paper's cost-model invariants (RAPIDAnalytics never
  /// takes more MR cycles than RAPID+; cycle counts independent of
  /// exec_threads).
  bool check_cost_invariants = true;
  /// Optimizer pass toggles for the engines under test (the reference
  /// evaluator ignores them). Used to force e.g. the factorize pass off
  /// across a whole corpus run.
  engine::EngineOptions engine_options;
  /// Shard counts to additionally run every engine under (both placement
  /// schemes each), cross-checking each sharded run against the reference
  /// AND against the unsharded baseline's cycle count and total shuffled
  /// bytes — sharding may never change the workflow, only its placement.
  /// Entries <= 1 are ignored (that is the baseline). Empty = unsharded
  /// only.
  std::vector<int> shard_counts;
};

/// The first divergence found, or failed == false if all engines agree
/// with the reference evaluator everywhere.
struct DiffFailure {
  bool failed = false;
  std::string kind;    // analyze | reference | engine-error | mismatch |
                       // cost-invariant
  std::string engine;  // offending engine name ("" for analyze/reference)
  int threads = 0;
  std::string detail;

  std::string ToString() const;
};

/// Runs `c.query` over `c.triples` on all four engines at every requested
/// thread count and cross-checks each normalized result multiset against
/// the in-memory reference evaluator.
DiffFailure RunDifferential(const FuzzCase& c, const DiffOptions& opts = {});

/// Service mode: submits the generated query through a QueryService with
/// caching and shared-scan batching enabled — as a concurrent burst of
/// duplicates from several sessions (exercising admission, dedup and
/// batching), then again hot (result cache) — and cross-checks every
/// returned table against the reference evaluator. Caching and batching
/// must never change results.
DiffFailure RunServiceDifferential(const FuzzCase& c);

}  // namespace rapida::difftest

#endif  // RAPIDA_TESTING_DIFFERENTIAL_H_
