// Reference NPN canonizer: the original exhaustive bit-at-a-time search
// behind src/npn/npn.h's word-parallel `npn_canonize`.  Same representative
// (the minimum truth table of the class), about two orders of magnitude
// slower.  Part of the mcx_oracles library: tests compare against it and
// bench_micro_core gates the word-parallel speedup on it.
#pragma once

#include "npn/npn.h"

namespace mcx {

/// Smallest truth table in the NPN class of `f` (at most 4 variables) plus
/// the transform back, by brute force.
npn_result npn_canonize_baseline(const truth_table& f);

} // namespace mcx
