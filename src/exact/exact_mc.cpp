#include "exact/exact_mc.h"

#include "exact/exact_mc_search.h"
#include "sat/solver.h"

namespace mcx {

uint32_t mc_lower_bound(const truth_table& f)
{
    const auto d = degree(f);
    return d <= 1 ? 0 : d - 1;
}

exact_mc_result exact_mc_synthesis(const truth_table& f,
                                   const exact_mc_params& params)
{
    // One encoding, one solve per k: the bounded preprocessor is sound
    // here and shrinks the parity-chain CNF before search.
    return exact_mc_search(f, params, [] {
        return sat::solver{sat::sat_params{.preprocess = true}};
    });
}

} // namespace mcx
