#include "core/mffc.h"
#include "core/pass.h"
#include "sat/equivalence.h"
#include "xag/cleanup.h"
#include "xag/depth.h"
#include "xag/simulate.h"
#include "xag/verify.h"

#include <gtest/gtest.h>

#include <random>

namespace mcx {
namespace {

/// Rewrite to convergence through a fresh pass context.
pass_stats mc_optimize(xag& net, const rewrite_params& params = {})
{
    pass_context ctx;
    return mc_rewrite_pass{params}.run(net, ctx);
}

pass_stats size_optimize(xag& net)
{
    pass_context ctx;
    return size_rewrite_pass{}.run(net, ctx);
}

xag full_adder()
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto cin = net.create_pi();
    const auto axb = net.create_xor(a, b);
    net.create_po(net.create_xor(axb, cin)); // sum
    net.create_po(net.create_or(net.create_and(a, b),
                                net.create_and(axb, cin))); // cout
    return net;
}

xag ripple_adder(uint32_t bits, bool cheap_majority)
{
    xag net;
    std::vector<signal> x, y;
    for (uint32_t i = 0; i < bits; ++i)
        x.push_back(net.create_pi());
    for (uint32_t i = 0; i < bits; ++i)
        y.push_back(net.create_pi());
    auto carry = net.get_constant(false);
    for (uint32_t i = 0; i < bits; ++i) {
        net.create_po(net.create_xor(net.create_xor(x[i], y[i]), carry));
        carry = cheap_majority ? net.create_maj(x[i], y[i], carry)
                               : net.create_maj_naive(x[i], y[i], carry);
    }
    net.create_po(carry);
    return net;
}

xag random_network(uint64_t seed, uint32_t pis, uint32_t gates, uint32_t pos)
{
    std::mt19937_64 rng{seed};
    xag net;
    std::vector<signal> pool;
    for (uint32_t i = 0; i < pis; ++i)
        pool.push_back(net.create_pi());
    for (uint32_t i = 0; i < gates; ++i) {
        const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        pool.push_back((rng() % 3) ? net.create_and(a, b)
                                   : net.create_xor(a, b));
    }
    for (uint32_t i = 0; i < pos && i < pool.size(); ++i)
        net.create_po(pool[pool.size() - 1 - i]);
    return net;
}

TEST(mffc_measure, simple_chain)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto g1 = net.create_and(a, b);
    const auto g2 = net.create_and(g1, c);
    net.create_po(g2);
    const std::vector<uint32_t> leaves{a.node(), b.node(), c.node()};
    // g1 is referenced only by g2: both ANDs belong to the MFFC of g2.
    EXPECT_EQ(mffc_and_count(net, g2.node(), leaves), 2u);
    EXPECT_EQ(mffc_gate_count(net, g2.node(), leaves), 2u);
}

TEST(mffc_measure, shared_node_excluded)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto g1 = net.create_and(a, b);
    const auto g2 = net.create_and(g1, c);
    const auto g3 = net.create_xor(g1, c); // second fanout of g1
    net.create_po(g2);
    net.create_po(g3);
    const std::vector<uint32_t> leaves{a.node(), b.node(), c.node()};
    EXPECT_EQ(mffc_and_count(net, g2.node(), leaves), 1u); // g1 is shared
}

TEST(mc_rewrite_suite, full_adder_reaches_mc_one)
{
    // Paper Example 3.1 / Fig. 2: the full adder has multiplicative
    // complexity (at most) 1; the textbook structure starts with 3 ANDs.
    auto net = full_adder();
    const auto golden = simulate(net);
    ASSERT_EQ(net.num_ands(), 3u);

    const auto result = mc_optimize(net);
    EXPECT_EQ(net.num_ands(), 1u);
    EXPECT_EQ(simulate(net), golden);
    EXPECT_TRUE(result.converged);
    EXPECT_GE(result.rounds.front().replacements, 1u);
}

TEST(mc_rewrite_suite, ripple_adder_reaches_n_ands)
{
    // Paper Table 2: the n-bit adder optimum is n AND gates (ref [31]).
    for (const uint32_t bits : {4u, 8u}) {
        auto net = ripple_adder(bits, false);
        const auto golden = simulate(net);
        // 5 ANDs per naive majority, except stage 0 which folds against the
        // constant carry-in down to a single AND.
        EXPECT_EQ(net.num_ands(), 5 * bits - 4);
        mc_optimize(net);
        EXPECT_EQ(net.num_ands(), bits);
        EXPECT_EQ(simulate(net), golden);
    }
}

TEST(mc_rewrite_suite, already_optimal_adder_unchanged)
{
    auto net = ripple_adder(6, true); // 6 ANDs: the known optimum
    const auto before = net.num_ands();
    const auto result = mc_optimize(net);
    EXPECT_EQ(net.num_ands(), before);
    EXPECT_TRUE(result.converged);
}

TEST(mc_rewrite_suite, and_count_never_increases)
{
    for (const uint64_t seed : {7u, 8u, 9u}) {
        auto net = random_network(seed, 8, 80, 6);
        const auto before = net.num_ands();
        mc_optimize(net);
        EXPECT_LE(net.num_ands(), before);
        net.check_integrity();
    }
}

TEST(mc_rewrite_suite, function_preserved_on_random_networks)
{
    for (const uint64_t seed : {10u, 11u, 12u, 13u}) {
        auto net = random_network(seed, 10, 120, 8);
        const auto golden = cleanup(net);
        mc_optimize(net);
        EXPECT_TRUE(exhaustive_equal(net, golden)) << "seed " << seed;
    }
}

TEST(mc_rewrite_suite, formal_equivalence_after_rewrite)
{
    auto net = ripple_adder(8, false);
    const auto golden = cleanup(net);
    mc_optimize(net);
    const auto report = sat::check_equivalence(cleanup(net), golden);
    EXPECT_EQ(report.result, sat::equivalence_result::equivalent);
}

TEST(mc_rewrite_suite, one_round_vs_convergence)
{
    auto net1 = ripple_adder(12, false);
    pass_context ctx;
    const auto one = mc_rewrite_round(net1, ctx);
    EXPECT_LT(one.ands_after, one.ands_before);

    auto net2 = ripple_adder(12, false);
    const auto conv = mc_rewrite_pass{}.run(net2, ctx);
    EXPECT_LE(net2.num_ands(), net1.num_ands());
    EXPECT_GE(conv.rounds.size(), 1u);
    EXPECT_TRUE(conv.converged);
}

TEST(mc_rewrite_suite, cache_is_effective_across_rounds)
{
    auto net = ripple_adder(10, false);
    pass_context ctx;
    mc_rewrite_pass{}.run(net, ctx);
    const auto& cache = ctx.classification();
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.size(), 0u);
}

TEST(mc_rewrite_suite, respects_cut_size_parameter)
{
    // Both cut sizes must improve the naive adder; greedy commitment means
    // neither strictly dominates the other in general.
    const auto initial = ripple_adder(8, false).num_ands();
    rewrite_params small;
    small.cut_size = 3;
    auto net3 = ripple_adder(8, false);
    mc_optimize(net3, small);
    EXPECT_LT(net3.num_ands(), initial);

    rewrite_params large;
    large.cut_size = 6;
    auto net6 = ripple_adder(8, false);
    mc_optimize(net6, large);
    EXPECT_LT(net6.num_ands(), initial);
    EXPECT_EQ(net6.num_ands(), 8u);
}

TEST(size_rewrite_suite, reduces_naive_structures)
{
    // A chain of naive majorities has plenty of local redundancy for the
    // generic optimizer.
    auto net = ripple_adder(8, false);
    const auto golden = simulate(net);
    const auto gates_before = net.num_gates();
    size_optimize(net);
    EXPECT_LT(net.num_gates(), gates_before);
    EXPECT_EQ(simulate(net), golden);
    net.check_integrity();
}

TEST(size_rewrite_suite, function_preserved_on_random_networks)
{
    for (const uint64_t seed : {14u, 15u}) {
        auto net = random_network(seed, 8, 90, 6);
        const auto golden = cleanup(net);
        size_optimize(net);
        EXPECT_TRUE(exhaustive_equal(net, golden)) << "seed " << seed;
        net.check_integrity();
    }
}

TEST(size_rewrite_suite, does_not_optimize_ands_specifically)
{
    // The headline comparison of the paper: generic size optimization keeps
    // many more AND gates than MC-aware rewriting on arithmetic logic.
    auto generic = ripple_adder(12, false);
    size_optimize(generic);
    auto mc_aware = ripple_adder(12, false);
    mc_optimize(mc_aware);
    EXPECT_GT(generic.num_ands(), mc_aware.num_ands());
}

TEST(mc_rewrite_suite, zero_gain_disabled_by_default)
{
    auto net = ripple_adder(4, true);
    pass_context ctx;
    const auto stats = mc_rewrite_round(net, ctx);
    EXPECT_EQ(stats.ands_after, stats.ands_before);
}

} // namespace
} // namespace mcx
