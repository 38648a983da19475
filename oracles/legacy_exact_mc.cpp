#include "oracles/legacy_exact_mc.h"

#include "exact/exact_mc_search.h"
#include "oracles/legacy_solver.h"

namespace mcx {

exact_mc_result legacy_exact_mc_synthesis(const truth_table& f,
                                          const exact_mc_params& params)
{
    return exact_mc_search(f, params, [] { return sat::legacy_solver{}; });
}

} // namespace mcx
