// The exact-MC search (src/exact/exact_mc.h) as a template over the SAT
// solver: the selector/parity-chain encoding, the model decoder and the
// upward k loop.  libmcx instantiates it for `sat::solver`; the oracle
// library instantiates it for the legacy solver (oracles/legacy_exact_mc.h)
// so tests and bench_micro_core can compare the two cores on the exact
// same search.  `make_solver()` returns a fresh solver for one k step.
#pragma once

#include "exact/encoding_util.h"
#include "exact/exact_mc.h"
#include "tt/operations.h"
#include "xag/simulate.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mcx {

namespace exact_mc_detail {

using sat::literal;

/// Selector variables of one affine operand: one per basis element
/// (inputs then previous gates) plus a constant bit.
struct operand_selectors {
    std::vector<uint32_t> basis; ///< selector var per basis element
    uint32_t constant = 0;       ///< selector var of the constant 1
};

struct encoding {
    std::vector<operand_selectors> lhs, rhs; ///< per AND gate
    operand_selectors output;
    /// T[g][m]: value of gate g at minterm m.
    std::vector<std::vector<literal>> gate_value;
};

template <typename Solver>
operand_selectors make_selectors(Solver& s, uint32_t basis_size)
{
    operand_selectors sel;
    sel.basis.reserve(basis_size);
    for (uint32_t i = 0; i < basis_size; ++i)
        sel.basis.push_back(s.add_variable());
    sel.constant = s.add_variable();
    return sel;
}

/// CNF literal for "affine combination selected by `sel` evaluated at
/// minterm m", given the values of previous gates at m.
template <typename Solver>
literal operand_value(Solver& s, const operand_selectors& sel, uint32_t n,
                      uint32_t num_prev, uint64_t m,
                      const std::vector<std::vector<literal>>& gate_value)
{
    std::vector<literal> terms;
    terms.push_back(literal{sel.constant, false});
    for (uint32_t i = 0; i < n; ++i)
        if ((m >> i) & 1)
            terms.push_back(literal{sel.basis[i], false});
    for (uint32_t g = 0; g < num_prev; ++g)
        terms.push_back(sat::add_and_gate(s, literal{sel.basis[n + g], false},
                                          gate_value[g][m]));
    return sat::add_xor_ladder(s, terms);
}

template <typename Solver>
encoding build_encoding(Solver& s, const truth_table& f, uint32_t k)
{
    const auto n = f.num_vars();
    encoding enc;
    for (uint32_t g = 0; g < k; ++g) {
        enc.lhs.push_back(make_selectors(s, n + g));
        enc.rhs.push_back(make_selectors(s, n + g));
    }
    enc.output = make_selectors(s, n + k);

    enc.gate_value.assign(k, {});
    for (uint32_t g = 0; g < k; ++g)
        enc.gate_value[g].assign(f.num_bits(), literal{});

    for (uint64_t m = 0; m < f.num_bits(); ++m) {
        for (uint32_t g = 0; g < k; ++g) {
            const auto p =
                operand_value(s, enc.lhs[g], n, g, m, enc.gate_value);
            const auto q =
                operand_value(s, enc.rhs[g], n, g, m, enc.gate_value);
            enc.gate_value[g][m] = sat::add_and_gate(s, p, q);
        }
        const auto out =
            operand_value(s, enc.output, n, k, m, enc.gate_value);
        sat::force(s, out, f.get_bit(m));
    }
    return enc;
}

/// Decode one affine operand from the model into a signal of `net`.
template <typename Solver>
signal decode_operand(const Solver& s, const operand_selectors& sel,
                      uint32_t n, xag& net,
                      const std::vector<signal>& inputs,
                      const std::vector<signal>& gates)
{
    auto acc = net.get_constant(s.model_value(sel.constant));
    for (uint32_t i = 0; i < sel.basis.size(); ++i)
        if (s.model_value(sel.basis[i]))
            acc = net.create_xor(acc, i < n ? inputs[i] : gates[i - n]);
    return acc;
}

template <typename Solver>
xag decode_circuit(const Solver& s, const encoding& enc,
                   const truth_table& f, uint32_t k)
{
    const auto n = f.num_vars();
    xag net;
    std::vector<signal> inputs;
    for (uint32_t i = 0; i < n; ++i)
        inputs.push_back(net.create_pi());
    std::vector<signal> gates;
    for (uint32_t g = 0; g < k; ++g) {
        const auto p = decode_operand(s, enc.lhs[g], n, net, inputs, gates);
        const auto q = decode_operand(s, enc.rhs[g], n, net, inputs, gates);
        gates.push_back(net.create_and(p, q));
    }
    net.create_po(decode_operand(s, enc.output, n, net, inputs, gates));
    return net;
}

/// Build the affine function (degree <= 1) directly as an XOR tree.
inline xag affine_circuit(const truth_table& f)
{
    const auto anf = to_anf(f);
    xag net;
    std::vector<signal> inputs;
    for (uint32_t i = 0; i < f.num_vars(); ++i)
        inputs.push_back(net.create_pi());
    auto acc = net.get_constant(anf.get_bit(0));
    for (uint32_t i = 0; i < f.num_vars(); ++i)
        if (anf.get_bit(uint64_t{1} << i))
            acc = net.create_xor(acc, inputs[i]);
    net.create_po(acc);
    return net;
}

} // namespace exact_mc_detail

/// exact_mc_synthesis over the solvers `make_solver()` returns, one per
/// k step (see exact_mc.h for the contract).
template <typename MakeSolver>
exact_mc_result exact_mc_search(const truth_table& f,
                                const exact_mc_params& params,
                                MakeSolver&& make_solver)
{
    using namespace exact_mc_detail;
    if (f.num_vars() > 6)
        throw std::invalid_argument{"exact_mc_synthesis: at most 6 variables"};

    exact_mc_result result;
    if (is_affine_function(f)) {
        result.success = true;
        result.optimal = true;
        result.num_ands = 0;
        result.circuit = affine_circuit(f);
        return result;
    }

    const auto lb = mc_lower_bound(f);
    bool all_refuted = true;
    bool budget_hit = false;
    for (uint32_t k = std::max(lb, 1u); k <= params.max_ands; ++k) {
        if (params.token.stop_requested()) {
            result.status = params.token.stop_reason();
            return result;
        }
        auto s = make_solver();
        const auto enc = build_encoding(s, f, k);
        switch (s.solve({}, params.conflict_budget, params.token)) {
        case sat::solve_result::satisfiable: {
            result.success = true;
            result.optimal = all_refuted;
            result.num_ands = k;
            result.circuit = decode_circuit(s, enc, f, k);
            if (simulate(result.circuit)[0] != f)
                throw std::logic_error{
                    "exact_mc_synthesis: decoded circuit mismatch"};
            if (result.circuit.num_ands() > k)
                throw std::logic_error{
                    "exact_mc_synthesis: AND budget exceeded"};
            return result;
        }
        case sat::solve_result::unsatisfiable:
            break; // try one more AND gate
        case sat::solve_result::undecided:
            all_refuted = false; // optimality can no longer be certified
            budget_hit = true;
            break;
        }
    }
    if (params.token.stop_requested())
        result.status = params.token.stop_reason();
    else if (budget_hit)
        result.status = outcome::resource_exhausted;
    return result;
}

} // namespace mcx
