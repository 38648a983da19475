// Small CNF gadget builders shared by the exact-synthesis encoders.  They
// are templates over the solver so the exact-MC search can run on the
// production solver and on the legacy oracle alike (src/exact/
// exact_mc_search.h); any type with add_variable() and
// add_clause(std::span<const literal>) works.
#pragma once

#include "sat/types.h"

#include <initializer_list>
#include <span>

namespace mcx::sat {

/// Add one clause given as a braced list of literals.
template <typename Solver>
void add_clause(Solver& s, std::initializer_list<literal> lits)
{
    s.add_clause(std::span<const literal>{lits.begin(), lits.size()});
}

/// y = a AND b (3 clauses).
template <typename Solver>
literal add_and_gate(Solver& s, literal a, literal b)
{
    const literal y{s.add_variable(), false};
    add_clause(s, {~y, a});
    add_clause(s, {~y, b});
    add_clause(s, {y, ~a, ~b});
    return y;
}

/// y = a XOR b (4 clauses).
template <typename Solver>
literal add_xor_gate(Solver& s, literal a, literal b)
{
    const literal y{s.add_variable(), false};
    add_clause(s, {~y, a, b});
    add_clause(s, {~y, ~a, ~b});
    add_clause(s, {y, ~a, b});
    add_clause(s, {y, a, ~b});
    return y;
}

/// y = parity of `terms` (false for an empty list), via a sequential ladder.
template <typename Solver>
literal add_xor_ladder(Solver& s, std::span<const literal> terms)
{
    if (terms.empty()) {
        const literal zero{s.add_variable(), false};
        add_clause(s, {~zero});
        return zero;
    }
    literal acc = terms[0];
    for (size_t i = 1; i < terms.size(); ++i)
        acc = add_xor_gate(s, acc, terms[i]);
    return acc;
}

/// Pin a literal to a constant.
template <typename Solver>
void force(Solver& s, literal l, bool value)
{
    add_clause(s, {value ? l : ~l});
}

} // namespace mcx::sat
