// Exact-MC synthesis on the legacy CDCL solver (oracles/legacy_solver.h):
// the production search (src/exact/exact_mc_search.h) instantiated for
// the oracle core.  Same encoding, same k ladder, same budgets — only the
// solver differs — so tests can demand identical AND counts, optimality
// certificates and statuses, and bench_micro_core can time the two cores
// on the solver's real workload.
#pragma once

#include "exact/exact_mc.h"

namespace mcx {

exact_mc_result legacy_exact_mc_synthesis(const truth_table& f,
                                          const exact_mc_params& params = {});

} // namespace mcx
