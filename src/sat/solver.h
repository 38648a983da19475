// The SAT solver facade: `sat::solver` wraps the arena-based CDCL core
// (src/sat/modern_solver.h): inline binary-clause watchers, LBD-tiered
// learnt retention, LBD-EMA restarts, optional bounded preprocessing.
//
// The facade owns the cross-cutting plumbing: the `fault_site::sat_budget`
// injection point and the `sat.solve` span + `sat.*` metrics mirrors.  The
// original solver survives outside the production library as a
// differential oracle (oracles/legacy_solver.h, see docs/sat.md).
//
// Substrate for exact multiplicative-complexity synthesis (src/exact) and
// formal equivalence checking of optimized networks (src/sat/equivalence.h).
#pragma once

#include "core/budget.h"
#include "sat/types.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace mcx::sat {

class modern_solver;

class solver {
public:
    solver(sat_params params = {});
    ~solver();
    solver(solver&&) noexcept;
    solver& operator=(solver&&) noexcept;

    uint32_t num_vars() const;

    /// A fresh variable; returns its index.
    uint32_t add_variable();

    /// Add a clause (disjunction of literals).  An empty clause makes the
    /// instance trivially unsatisfiable.  Returns false if the clause is
    /// already conflicting under top-level assignments.
    bool add_clause(std::span<const literal> lits);
    bool add_clause(std::initializer_list<literal> lits)
    {
        return add_clause(std::span<const literal>{lits.begin(), lits.size()});
    }

    /// Solve; `conflict_budget` = 0 means no budget (run to completion).
    /// A stopped `token` (deadline or cancellation) ends the search at the
    /// next conflict with `undecided` — the same honest "don't know" that
    /// budget exhaustion yields, never a fabricated UNSAT.
    solve_result solve(uint64_t conflict_budget = 0,
                       const cancellation_token& token = {})
    {
        return solve({}, conflict_budget, token);
    }

    /// Solve under `assumptions`: each literal is forced true for this call
    /// only, via pseudo-decision levels below every real decision.  Learnt
    /// clauses are retained across calls, so a sequence of related queries
    /// on one solver gets warmer with each solve.  `unsatisfiable` here
    /// means "UNSAT under these assumptions" — the solver stays usable and
    /// `failed_assumptions()` holds the subset of assumptions the final
    /// conflict depends on.  Only a conflict at decision level 0 (no
    /// assumptions involved) makes the instance permanently UNSAT.
    /// The solver always returns at decision level 0, so `add_clause` is
    /// legal immediately after any solve.
    solve_result solve(std::span<const literal> assumptions,
                       uint64_t conflict_budget = 0,
                       const cancellation_token& token = {});

    /// Model value of a variable after a satisfiable solve.  Reads the
    /// snapshot taken at SAT time; valid until the next solve call.
    bool model_value(uint32_t var) const;

    /// After `solve(assumptions)` returns `unsatisfiable` with a non-empty
    /// assumption set: the subset of assumptions sufficient for the
    /// conflict (MiniSat's analyzeFinal).  Empty when the instance is
    /// UNSAT independent of the assumptions.
    const std::vector<literal>& failed_assumptions() const;

    /// Live learnt clauses of at most `max_len` literals — migration feed
    /// for a rebuilt solver (variable GC in src/sat/equivalence.cpp).
    std::vector<std::vector<literal>> export_learnt(size_t max_len) const;

    const solver_stats& stats() const;

    /// Instrumentation: invoked with every learnt clause (testing/debugging).
    std::function<void(std::span<const literal>)> on_learnt;

private:
    std::unique_ptr<modern_solver> core_;
};

} // namespace mcx::sat
