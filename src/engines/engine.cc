#include "engines/engine.h"

#include "plan/executor.h"
#include "plan/planner.h"

namespace rapida::engine {

StatusOr<analytics::BindingTable> Engine::Execute(
    const analytics::AnalyticalQuery& query, Dataset* dataset,
    mr::Cluster* cluster, ExecStats* stats) {
  RAPIDA_ASSIGN_OR_RETURN(
      plan::PhysicalPlan physical,
      plan::PlanForEngine(name(), query, dataset, options_));
  return plan::RunPlanAsEngine(physical, dataset, cluster, options_, stats);
}

}  // namespace rapida::engine
