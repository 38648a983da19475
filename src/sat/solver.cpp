#include "sat/solver.h"

#include "core/fault_inject.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sat/modern_solver.h"

namespace mcx::sat {

namespace {

/// Covers every exit of solve(): a "sat.solve" span (arg = conflicts this
/// call) and registry deltas of the per-solver stats.  Instance stats stay
/// the per-solver source of truth; the registry aggregates across solvers.
class solve_observer {
public:
    explicit solve_observer(const solver_stats& stats)
        : stats_{stats}, at_entry_{stats}, span_{"sat.solve"}
    {
    }

    ~solve_observer()
    {
        static const auto solves = obs::register_metric("sat.solves");
        static const auto conflicts = obs::register_metric("sat.conflicts");
        static const auto decisions = obs::register_metric("sat.decisions");
        static const auto propagations =
            obs::register_metric("sat.propagations");
        static const auto restarts = obs::register_metric("sat.restarts");
        solves.add();
        conflicts.add(stats_.conflicts - at_entry_.conflicts);
        decisions.add(stats_.decisions - at_entry_.decisions);
        propagations.add(stats_.propagations - at_entry_.propagations);
        restarts.add(stats_.restarts - at_entry_.restarts);
        span_.set_arg(stats_.conflicts - at_entry_.conflicts);
    }

private:
    const solver_stats& stats_;
    solver_stats at_entry_;
    obs::trace::trace_span span_;
};

} // namespace

solver::solver(sat_params params)
    : core_{std::make_unique<modern_solver>(params.preprocess,
                                            params.restarts)}
{
}

solver::~solver() = default;
solver::solver(solver&&) noexcept = default;
solver& solver::operator=(solver&&) noexcept = default;

uint32_t solver::num_vars() const { return core_->num_vars(); }

uint32_t solver::add_variable() { return core_->add_variable(); }

bool solver::add_clause(std::span<const literal> lits)
{
    return core_->add_clause(lits);
}

solve_result solver::solve(std::span<const literal> assumptions,
                           uint64_t conflict_budget,
                           const cancellation_token& token)
{
    // Injected budget exhaustion: converted to `undecided` right here, the
    // same value a genuinely exhausted budget produces, so callers'
    // unknown-vs-UNSAT handling is exercised on the real return path.
    try {
        fault_injection::fire(fault_site::sat_budget);
    } catch (const fault_injected_error&) {
        return solve_result::undecided;
    }

    const solve_observer observe{stats()};
    core_->on_learnt = on_learnt;
    return core_->solve(assumptions, conflict_budget, token);
}

bool solver::model_value(uint32_t var) const
{
    return core_->model_value(var);
}

const std::vector<literal>& solver::failed_assumptions() const
{
    return core_->failed_assumptions();
}

std::vector<std::vector<literal>> solver::export_learnt(size_t max_len) const
{
    return core_->export_learnt(max_len);
}

const solver_stats& solver::stats() const { return core_->stats(); }

} // namespace mcx::sat
