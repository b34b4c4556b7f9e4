#include "plan/passes.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engines/relational_ops.h"
#include "storage/ivm.h"

namespace rapida::plan {

namespace {

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream is(s);
  while (std::getline(is, cur, ',')) {
    if (!cur.empty()) out.push_back(cur);
  }
  return out;
}

std::string JoinCsv(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out;
}

}  // namespace

void PassManager::Run(PhysicalPlan* plan) const {
  for (const Pass& pass : passes_) {
    pass.run(plan, pass.enabled);
    plan->passes.push_back(pass.name + (pass.enabled ? "" : " (off)"));
  }
}

PassManager PassManager::Default(const engine::EngineOptions& options,
                                 const analytics::AnalyticalQuery* query) {
  PassManager pm;

  const uint64_t threshold = options.map_join_threshold_bytes;
  pm.Add(Pass{
      "map-join-selection", options.enable_map_joins,
      [threshold](PhysicalPlan* plan, bool enabled) {
        for (PlanNode& n : plan->nodes) {
          if (n.kind == OpKind::kReduceJoin) {
            n.Attr("join", enabled ? "auto" : "repartition");
            continue;
          }
          const bool left = n.kind == OpKind::kLeftReduceJoin;
          if (n.kind != OpKind::kStarJoin && !left) continue;
          if (!enabled) {
            n.Attr("join", "repartition");
            continue;
          }
          std::vector<uint64_t> sizes;
          std::vector<bool> outer;
          for (int i = 0;; ++i) {
            const std::string* b =
                FindEntry(n.info, "in" + std::to_string(i) + "_bytes");
            if (b == nullptr) break;
            sizes.push_back(std::stoull(*b));
            outer.push_back(FindEntry(n.info, "in" + std::to_string(i) +
                                                  "_outer") != nullptr);
          }
          if (sizes.size() < 2) {
            // Dataset-free plan (or degenerate star): runtime decides.
            // Left joins over intermediates have no static sizes either —
            // same conservative display as kReduceJoin, the runtime may
            // still broadcast.
            n.Attr("join", "auto");
            continue;
          }
          if (engine::MapJoinStreamedInput(sizes, outer, threshold) >= 0) {
            n.kind = left ? OpKind::kLeftMapJoin : OpKind::kMapJoin;
            n.map_only = true;
            n.Attr("join", "map");
          } else {
            n.Attr("join", "repartition");
          }
        }
      }});

  pm.Add(Pass{
      "greedy-join-order", options.greedy_join_order,
      [](PhysicalPlan* plan, bool enabled) {
        for (PlanNode& n : plan->nodes) {
          if (n.kind != OpKind::kReduceJoin &&
              n.kind != OpKind::kNSplitAlphaJoin) {
            continue;
          }
          if (enabled) {
            // The statically simulated (textual-order) edge choice no
            // longer holds: the runtime picks edges by stored sizes.
            n.attrs.erase(
                std::remove_if(n.attrs.begin(), n.attrs.end(),
                               [](const std::pair<std::string, std::string>&
                                      kv) { return kv.first == "edge"; }),
                n.attrs.end());
            n.Attr("order", "greedy");
            n.Attr("edge", "runtime");
          } else {
            n.Attr("order", "textual");
          }
        }
      }});

  pm.Add(Pass{
      "partial-aggregation", options.partial_aggregation,
      [](PhysicalPlan* plan, bool enabled) {
        for (PlanNode& n : plan->nodes) {
          if (n.kind == OpKind::kGroupAggregate ||
              n.kind == OpKind::kAggJoin) {
            n.Attr("map_side_agg", enabled ? "partial" : "off");
          }
        }
      }});

  pm.Add(Pass{
      "factorize", options.factorized_intermediates,
      [](PhysicalPlan* plan, bool enabled) {
        // Factorized (d-representation) intermediate results. Two halves:
        //
        // NTGA plans are *natively* factorized — a triplegroup is exactly
        // the grouped form, and kExpandBindings is the engine's built-in
        // decompress boundary. Those nodes get display-only annotations
        // (info) whether or not the pass is on, because the
        // representation is the engine's own, not a choice.
        for (PlanNode& n : plan->nodes) {
          switch (n.kind) {
            case OpKind::kTripleGroupLoad:
            case OpKind::kNSplitAlphaJoin:
              n.Info("factorized", "ntg-bindings");
              break;
            case OpKind::kExpandBindings:
              n.Info("decompress", "expand-bindings");
              break;
            default:
              break;
          }
        }
        if (!enabled) return;
        // Relational plans: walk up from every sink that can consume
        // d-representation groups directly — kDistinctExtract always
        // (dedup decompresses), kGroupAggregate when every aggregate is
        // weighted-safe (no SUM/AVG: Aggregator::AddTermWeighted) — and
        // mark the join pipeline above it `factorize=d-rep`. Joins that
        // carry a residual post-filter emit flat (predicates see flat
        // rows): `off:post-filter`, but their *inputs* may still be
        // factorized (Join's row reader decompresses them). UNION arms
        // stay flat (the union cycle concatenates flat rows), so the walk
        // stops there — exactly the grouping-level rule the exec closures
        // apply. These are identity attrs (they change what the cycles
        // emit), so they are fingerprinted, unlike the NTGA info above.
        auto is_join = [](OpKind k) {
          return k == OpKind::kStarJoin || k == OpKind::kMapJoin ||
                 k == OpKind::kReduceJoin || k == OpKind::kLeftMapJoin ||
                 k == OpKind::kLeftReduceJoin;
        };
        std::set<int> visited;
        std::function<void(int)> mark_up = [&](int id) {
          if (!visited.insert(id).second) return;
          PlanNode* n = plan->FindById(id);
          if (n == nullptr || !is_join(n->kind)) return;  // union/scan: stop
          if (FindEntry(n->attrs, "factorize") == nullptr) {
            if (FindEntry(n->attrs, "residual_filter") != nullptr) {
              n->Attr("factorize", "off:post-filter");
            } else if (n->inputs.size() >= 2) {
              n->Attr("factorize", "d-rep");
            }
          }
          for (int in : n->inputs) mark_up(in);
        };
        for (PlanNode& n : plan->nodes) {
          const bool sink = n.kind == OpKind::kGroupAggregate ||
                            n.kind == OpKind::kDistinctExtract;
          if (!sink) continue;
          bool safe = true;
          if (n.kind == OpKind::kGroupAggregate) {
            for (const auto& [k, v] : n.attrs) {
              if (k.rfind("agg", 0) == 0 &&
                  (v.rfind("SUM(", 0) == 0 || v.rfind("AVG(", 0) == 0)) {
                safe = false;
              }
            }
          }
          bool joins_above = false;
          for (int in : n.inputs) {
            const PlanNode* p = plan->FindById(in);
            if (p != nullptr && is_join(p->kind)) joins_above = true;
          }
          if (!safe) {
            if (joins_above) n.Attr("factorize", "off:sum-avg");
            continue;
          }
          for (int in : n.inputs) mark_up(in);
          bool factorized_input = false;
          for (int in : n.inputs) {
            const PlanNode* p = plan->FindById(in);
            const std::string* f =
                p == nullptr ? nullptr : FindEntry(p->attrs, "factorize");
            if (f != nullptr && *f == "d-rep") factorized_input = true;
          }
          if (factorized_input) n.Attr("factorize", "fused-decompress");
        }
        // Flat-tuple boundaries: a consumer that genuinely needs flat
        // rows (final join, driver-side materialize, union concatenation,
        // SUM/AVG aggregation) over a d-rep producer gets an explicit
        // cost-0 Decompress node — the enumeration folds into the
        // consumer's reader, like VP scans fold into their join. Today's
        // planners never factorize past such a boundary, so this is a
        // structural guarantee, not a hot path.
        std::map<size_t, std::vector<int>> wanted;  // consumer pos -> inputs
        for (size_t i = 0; i < plan->nodes.size(); ++i) {
          PlanNode& n = plan->nodes[i];
          const std::string* own = FindEntry(n.attrs, "factorize");
          const bool handles_groups =
              is_join(n.kind) || n.kind == OpKind::kDistinctExtract ||
              (n.kind == OpKind::kGroupAggregate && own != nullptr &&
               *own == "fused-decompress") ||
              n.kind == OpKind::kDecompress;
          if (handles_groups) continue;
          for (int in : n.inputs) {
            const PlanNode* p = plan->FindById(in);
            const std::string* f =
                p == nullptr ? nullptr : FindEntry(p->attrs, "factorize");
            if (f != nullptr && *f == "d-rep") wanted[i].push_back(in);
          }
        }
        // Back to front so stored positions stay valid while inserting.
        for (auto it = wanted.rbegin(); it != wanted.rend(); ++it) {
          size_t pos = it->first;  // shifts right as nodes land before it
          for (int producer_id : it->second) {
            const std::string clabel = plan->nodes[pos].label;
            const std::string ckind = OpKindName(plan->nodes[pos].kind);
            PlanNode& dec = plan->AddNode(
                OpKind::kDecompress, clabel,
                clabel + ": decompress d-representation groups to flat "
                         "tuples (folded into the reader)",
                0);
            dec.map_only = true;
            dec.inputs = {producer_id};
            dec.Attr("boundary", ckind);
            const int dec_id = dec.id;
            PlanNode& c = plan->nodes[pos];
            for (int& in : c.inputs) {
              if (in == producer_id) in = dec_id;
            }
            // AddNode appended; rotate the new node to just before its
            // consumer to keep the stored order topological (the consumer
            // and later nodes shift one slot right).
            std::rotate(plan->nodes.begin() + static_cast<long>(pos),
                        plan->nodes.end() - 1, plan->nodes.end());
            ++pos;
          }
        }
      }});

  pm.Add(Pass{
      "parallel-agg-join", options.parallel_agg_join,
      [](PhysicalPlan* plan, bool enabled) {
        // Only shared-scan (RAPIDAnalytics) plans label their sibling
        // Agg-Joins "agg"; RAPID+ always runs its per-grouping Agg-Joins
        // sequentially, exactly as before.
        std::vector<size_t> agg_idx;
        for (size_t i = 0; i < plan->nodes.size(); ++i) {
          if (plan->nodes[i].kind == OpKind::kAggJoin &&
              plan->nodes[i].label == "agg") {
            agg_idx.push_back(i);
          }
        }
        if (agg_idx.empty() || !enabled) return;
        bool folded =
            FindEntry(plan->nodes[agg_idx[0]].attrs, "fold") != nullptr;
        std::vector<int> input_ids;
        for (size_t i : agg_idx) {
          PlanNode& n = plan->nodes[i];
          n.est_cycles = 0;  // evaluated inside the parallel region
          input_ids.push_back(n.id);
        }
        size_t last = agg_idx.back();
        PlanNode& region = plan->AddNode(
            OpKind::kParallelRegion, "agg",
            "agg: parallel TG Agg-Join (" + std::to_string(agg_idx.size()) +
                " grouping-aggregations in one cycle)" +
                (folded ? " with star matching folded into map" : ""),
            1);
        region.inputs = input_ids;
        // AddNode appended the region; move it to just after the last
        // Agg-Join so the stored order stays topological.
        std::rotate(plan->nodes.begin() + static_cast<long>(last) + 1,
                    plan->nodes.end() - 1, plan->nodes.end());
      }});

  pm.Add(Pass{
      "union-distribution", true,
      [](PhysicalPlan* plan, bool) {
        // Join distribution over UNION — (T ⋈ (A ∪ B)) = (T ⋈ A) ∪ (T ⋈ B)
        // — already happened when the analyzer built one distributed branch
        // per arm; this pass stamps the resulting Union nodes so the
        // rewrite is visible (and fingerprinted) in the plan. OPTIONAL
        // tails ride along: left-join distributes over its left input, so
        // per-branch left joins are equivalent to one post-union left join.
        for (PlanNode& n : plan->nodes) {
          if (n.kind != OpKind::kUnion) continue;
          n.Attr("distribution", "join-pushed-into-arms");
          n.Attr("arms", std::to_string(n.inputs.size()));
        }
      }});

  pm.Add(Pass{
      "dead-column-prune", true,
      [](PhysicalPlan* plan, bool) {
        // Backward liveness: a column a node materializes is dead if no
        // later node consumes it. Advisory only — physically dropping the
        // column would change the byte counters the engines must keep
        // identical to their pre-IR selves.
        std::set<std::string> live;
        for (auto it = plan->nodes.rbegin(); it != plan->nodes.rend(); ++it) {
          PlanNode& n = *it;
          const std::string* binds = FindEntry(n.attrs, "binds");
          if (binds != nullptr) {
            std::vector<std::string> dead;
            for (const std::string& c : SplitCsv(*binds)) {
              if (live.count(c) == 0) dead.push_back(c);
            }
            if (!dead.empty()) n.Info("dead_cols", JoinCsv(dead));
          }
          const std::string* uses = FindEntry(n.attrs, "uses");
          if (uses != nullptr) {
            for (const std::string& c : SplitCsv(*uses)) live.insert(c);
          }
        }
      }});

  pm.Add(Pass{
      "common-subplan-dedup", true,
      [](PhysicalPlan* plan, bool) {
        // Structural hash per node (label excluded): kind + identity
        // attrs + input subtree hashes. Equal hashes mark work the
        // composite rewrites share (or could share).
        std::map<int, std::string> hash_of;
        std::map<std::string, int> first_with;
        for (PlanNode& n : plan->nodes) {
          std::string sig = OpKindName(n.kind);
          for (const auto& [k, v] : n.attrs) {
            sig += "|" + k + "=" + v;
          }
          for (int in : n.inputs) {
            auto it = hash_of.find(in);
            sig += "|<" + (it == hash_of.end() ? std::to_string(in)
                                               : it->second) + ">";
          }
          std::string h = Fnv1aHex(sig);
          hash_of[n.id] = h;
          auto [it, inserted] = first_with.emplace(h, n.id);
          if (!inserted && n.est_cycles > 0) {
            n.Info("shared_with", "#" + std::to_string(it->second));
          }
        }
      }});

  pm.Add(Pass{
      "ivm-classify", true,
      [query](PhysicalPlan* plan, bool) {
        // Advisory: records whether a materialized result of this plan
        // admits algebraic patching under insert-only deltas. Info-only
        // so fingerprints stay put — the same
        // classification keys the materialization store's patch-vs-
        // recompute decision at mutation time.
        if (plan->nodes.empty()) return;
        PlanNode& final_node = plan->nodes.back();
        if (query == nullptr) {
          final_node.Info("ivm", "none");
          final_node.Info("ivm_detail",
                          "shared-scan batch (members classified per "
                          "artifact)");
          return;
        }
        storage::IvmDecision d = storage::ClassifyMaintainability(*query);
        final_node.Info("ivm", storage::IvmClassName(d.cls));
        final_node.Info("ivm_detail", d.detail);
      }});

  const int num_shards = options.num_shards;
  pm.Add(Pass{
      "partial-evaluation", options.partial_evaluation,
      [num_shards](PhysicalPlan* plan, bool enabled) {
        // Splits the plan into a shard-local phase and a cross-shard
        // residual (partial evaluation over the sharded data plane).
        // `peval=local` nodes are fully evaluable shard-by-shard without
        // communication: map-only stages shuffle nothing, and star joins
        // over base VP/triplegroup inputs repartition on the subject key
        // the storage layer already keyed those tables by — under the
        // locality scheme every such record's home shard IS its reducer's
        // shard, so est_shuffle_bytes is exactly 0 and the executor
        // fails any run where a local node books a cross-shard byte.
        // Everything else (inter-star joins, alpha-join n-splits,
        // aggregations over intermediates) keys its shuffle by values no
        // placement can anticipate: `peval=residual`, est_shuffle_bytes
        // is a display-only upper bound from the node's known input
        // bytes. Annotations are `info` + est_shuffle_bytes only, so
        // fingerprints and cycle counts stay put.
        if (!enabled) return;
        for (PlanNode& n : plan->nodes) {
          bool local = n.map_only || n.kind == OpKind::kVpScan ||
                       n.kind == OpKind::kTripleGroupLoad;
          if (!local && n.kind == OpKind::kStarJoin && !n.inputs.empty()) {
            local = true;
            for (int in : n.inputs) {
              const PlanNode* p = plan->FindById(in);
              if (p == nullptr || (p->kind != OpKind::kVpScan &&
                                   p->kind != OpKind::kTripleGroupLoad)) {
                local = false;
                break;
              }
            }
          }
          n.Info("peval", local ? "local" : "residual");
          n.est_shuffle_bytes = local ? 0 : n.est_bytes;
          if (n.kind == OpKind::kParallelRegion) {
            // Shard placement of the region's sibling branches: round-
            // robin over the shards (each branch's jobs are dispatched
            // with the region's shared scan, so placement is advisory).
            if (num_shards > 1) {
              std::string csv;
              for (size_t i = 0; i < n.inputs.size(); ++i) {
                if (i > 0) csv += ",";
                csv += std::to_string(static_cast<int>(i) % num_shards);
              }
              n.Info("shard_placement", csv);
            } else {
              n.Info("shard_placement", "coordinator");
            }
          }
        }
      }});

  return pm;
}

}  // namespace rapida::plan
