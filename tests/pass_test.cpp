// Pass framework, flow engine, arena-backed cut storage, and batched cone
// simulation.
#include "core/flow.h"
#include "core/pass.h"
#include "cut/cut_enumeration.h"
#include "gen/arithmetic.h"
#include "spectral/classification.h"
#include "tt/operations.h"
#include "xag/cleanup.h"
#include "xag/cone_batch.h"
#include "xag/simulate.h"
#include "xag/verify.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <span>

namespace mcx {
namespace {

xag random_network(uint64_t seed, int pis = 8, int gates = 120, int pos = 4)
{
    std::mt19937_64 rng{seed};
    xag net;
    std::vector<signal> pool;
    for (int i = 0; i < pis; ++i)
        pool.push_back(net.create_pi());
    for (int i = 0; i < gates; ++i) {
        const auto a = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        const auto b = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
        pool.push_back((rng() & 1) ? net.create_and(a, b)
                                   : net.create_xor(a, b));
    }
    for (int i = 0; i < pos; ++i)
        net.create_po(pool[pool.size() - 1 - i]);
    return net;
}

// ------------------------------------------------------- cut arena storage

TEST(cut_arena, spans_match_per_node_sets)
{
    const auto net = random_network(11);
    const auto sets = enumerate_cuts(net);
    ASSERT_EQ(sets.size(), net.size());
    size_t total = 0;
    for (const auto n : net.topological_order()) {
        for (const auto& c : sets[n]) {
            EXPECT_GE(c.num_leaves, 1u);
            EXPECT_LE(c.num_leaves, max_cut_size);
        }
        total += sets[n].size();
    }
    EXPECT_EQ(sets.total_cuts(), total);
}

TEST(cut_arena, in_place_reuse_keeps_capacity_and_results)
{
    const auto net = random_network(12);
    cut_sets arena;
    enumerate_cuts(net, arena);
    const auto first_total = arena.total_cuts();
    const auto capacity = arena.capacity();
    ASSERT_GT(first_total, 0u);

    // Second enumeration into the same arena: identical results, no growth.
    enumerate_cuts(net, arena);
    EXPECT_EQ(arena.total_cuts(), first_total);
    EXPECT_EQ(arena.capacity(), capacity);
}

// --------------------------------------- stats are per call, never carried

TEST(cut_enumeration_stats, reset_between_calls)
{
    const auto net = random_network(13);
    cut_enumeration_stats stats;
    enumerate_cuts(net, {}, &stats);
    const auto first = stats;
    ASSERT_GT(first.total_cuts, 0u);
    ASSERT_GT(first.merged_pairs, 0u);

    // Reusing the same stats object must not accumulate.
    enumerate_cuts(net, {}, &stats);
    EXPECT_EQ(stats.total_cuts, first.total_cuts);
    EXPECT_EQ(stats.merged_pairs, first.merged_pairs);
    EXPECT_EQ(stats.duplicate_cuts, first.duplicate_cuts);
    EXPECT_EQ(stats.dominated_cuts, first.dominated_cuts);
    EXPECT_EQ(stats.evicted_cuts, first.evicted_cuts);
}

TEST(round_stats_audit, per_round_counters_are_independent)
{
    // Two rounds through one context: the second round's counters must
    // reflect only its own work (in particular cut_stats and the cache
    // deltas must not include round one's).
    auto net = gen_adder(24);
    pass_context ctx;
    // Full re-enumeration every round (the oracle path): with incremental
    // maintenance round 2 legitimately does *less* enumeration work, so
    // counter equality against a fresh measurement only holds here.
    rewrite_params params;
    params.incremental_cuts = false;
    const auto r1 = mc_rewrite_round(net, ctx, params);

    // Independent enumeration of the network exactly as round 2 will see
    // it: round 2's counters must equal this fresh measurement, which is
    // impossible if round 1's counters had been carried over.
    cut_enumeration_stats fresh;
    enumerate_cuts(net, {}, &fresh);

    const auto r2 = mc_rewrite_round(net, ctx, params);

    // Round 2 starts from round 1's result.
    EXPECT_EQ(r2.ands_before, r1.ands_after);
    EXPECT_EQ(r2.cut_stats.merged_pairs, fresh.merged_pairs);
    EXPECT_EQ(r2.cut_stats.total_cuts, fresh.total_cuts);
    EXPECT_EQ(r2.cut_stats.duplicate_cuts, fresh.duplicate_cuts);
    EXPECT_EQ(r2.cut_stats.dominated_cuts, fresh.dominated_cuts);
    // Cache traffic is a per-round delta: each evaluated cut classifies at
    // most once, so round 2's traffic is bounded by its own cut count —
    // impossible if round 1's traffic had been carried over.
    EXPECT_LE(r2.canon_cache_hits + r2.canon_cache_misses,
              r2.cuts_evaluated);
    EXPECT_LE(r1.canon_cache_hits + r1.canon_cache_misses,
              r1.cuts_evaluated);
}

// -------------------------------------------------- batched cone simulator

TEST(cone_simulator, matches_cone_function_on_enumerated_cuts)
{
    for (const uint64_t seed : {21u, 22u, 23u}) {
        const auto net = random_network(seed, 7, 90, 4);
        const auto sets = enumerate_cuts(net, {.cut_size = 6, .cut_limit = 8});
        cone_simulator sim;
        std::vector<cone_simulator::leaf_set> leaves;
        std::vector<uint64_t> words;
        for (const auto n : net.topological_order()) {
            if (!net.is_gate(n))
                continue;
            leaves.clear();
            for (const auto& c : sets[n])
                leaves.emplace_back(c.leaf_span().begin(),
                                    c.leaf_span().end());
            const auto valid = sim.simulate_cuts(net, n, leaves, words);
            for (size_t i = 0; i < leaves.size(); ++i) {
                ASSERT_TRUE((valid >> i) & 1)
                    << "enumerated cut must be simulable";
                const auto expected = cone_function(net, n, leaves[i]);
                ASSERT_EQ(words[i], expected.word())
                    << "node " << n << " cut " << i;
            }
        }
    }
}

TEST(cone_simulator, flags_cone_escape_and_forbidden_nodes)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto ab = net.create_and(a, b);
    const auto abc = net.create_xor(ab, c);
    net.create_po(abc);

    cone_simulator sim;
    // {a} is not a cut of abc: the cone escapes through b and c.
    EXPECT_FALSE(
        sim.cone_word(net, abc.node(), std::vector<uint32_t>{a.node()}));
    // {ab, c} is a cut.
    std::vector<uint32_t> good{std::min(ab.node(), c.node()),
                               std::max(ab.node(), c.node())};
    const auto w = sim.cone_word(net, abc.node(), good);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(*w, cone_function(net, abc.node(), good).word());
    // Forbidding an interior node fails the lane.
    EXPECT_FALSE(sim.cone_word(net, abc.node(),
                               std::vector<uint32_t>{a.node(), b.node(),
                                                     c.node()},
                               ab.node()));
}

/// Reference candidate check: DFS containment (the cone must stop at
/// `leaves` and must not contain `forbidden`) plus per-cut cone_function.
std::optional<uint64_t> reference_cone_word(const xag& net, uint32_t root,
                                            std::span<const uint32_t> leaves,
                                            uint32_t forbidden)
{
    std::vector<uint32_t> stack{root};
    std::set<uint32_t> visited(leaves.begin(), leaves.end());
    while (!stack.empty()) {
        const auto n = stack.back();
        stack.pop_back();
        if (!visited.insert(n).second)
            continue;
        if (n == forbidden)
            return std::nullopt;
        if (!net.is_gate(n))
            continue;
        stack.push_back(net.fanin0(n).node());
        stack.push_back(net.fanin1(n).node());
    }
    try {
        return cone_function(net, root, leaves).word();
    } catch (const std::invalid_argument&) {
        return std::nullopt;
    }
}

/// The mc rounds' splice: representative circuit behind the affine input
/// transform, output mask and complement (f = t.apply(representative)).
signal splice_affine(xag& net, const affine_transform& t,
                     std::span<const signal> leaves, const xag& repr)
{
    std::vector<signal> inputs(t.num_vars);
    for (uint32_t i = 0; i < t.num_vars; ++i) {
        auto acc = net.get_constant(((t.c >> i) & 1) != 0);
        for (uint32_t k = 0; k < t.num_vars; ++k)
            if ((t.mt_column(k) >> i) & 1)
                acc = net.create_xor(acc, leaves[k]);
        inputs[i] = acc;
    }
    auto out = insert_network(net, repr, inputs)[0];
    for (uint32_t k = 0; k < t.num_vars; ++k)
        if ((t.v >> k) & 1)
            out = net.create_xor(out, leaves[k]);
    return out ^ t.output_complement;
}

TEST(cone_simulator, candidate_check_matches_dfs_and_cone_function)
{
    // Every candidate an mc round could splice, on the network as it
    // stands before each round: the kernel's one-traversal check (with the
    // rewrite root forbidden) must agree with the per-cut reference on
    // acceptance and on the function word.
    uint64_t accepted = 0, rejected = 0;
    for (const uint64_t seed : {31u, 32u}) {
        auto net = cleanup(random_network(seed, 9, 150, 6));
        const auto golden = cleanup(net);
        pass_context ctx;
        cone_simulator sim;
        for (int round = 0; round < 4; ++round) {
            const auto cuts = enumerate_cuts(net);
            std::vector<uint32_t> gates;
            for (const auto n : net.topological_order())
                if (net.is_gate(n))
                    gates.push_back(n);
            for (const auto n : gates) {
                for (const auto& c : cuts[n]) {
                    if (c.num_leaves < 2)
                        continue;
                    const std::vector<uint32_t> cut_leaves(
                        c.leaf_span().begin(), c.leaf_span().end());
                    const auto view = shrink_to_support(
                        cone_function(net, n, cut_leaves));
                    if (view.support.size() < 2)
                        continue;
                    std::vector<uint32_t> support;
                    std::vector<signal> leaf_sigs;
                    for (const auto idx : view.support) {
                        support.push_back(cut_leaves[idx]);
                        leaf_sigs.push_back(signal{cut_leaves[idx], false});
                    }
                    const auto& cls = ctx.classification().classify(
                        view.function);
                    if (!cls.success)
                        continue;
                    const auto& entry =
                        ctx.mc_db().lookup_or_build(cls.representative);
                    const auto cand = splice_affine(net, cls.transform,
                                                    leaf_sigs, entry.circuit);
                    net.take_ref(cand);
                    const auto kernel =
                        sim.cone_word(net, cand.node(), support, n);
                    const auto reference =
                        reference_cone_word(net, cand.node(), support, n);
                    ASSERT_EQ(kernel.has_value(), reference.has_value())
                        << "seed " << seed << " node " << n;
                    if (kernel) {
                        EXPECT_EQ(*kernel, *reference)
                            << "seed " << seed << " node " << n;
                        ++accepted;
                    } else {
                        ++rejected;
                    }
                    net.release_ref(net.resolve(cand));
                }
            }
            if (mc_rewrite_round(net, ctx).replacements == 0)
                break;
        }
        EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------------- passes and flows

TEST(pass_framework, mc_pass_records_history_and_preserves_function)
{
    auto net = random_network(41);
    const auto golden = cleanup(net);
    const auto before = net.num_ands();

    pass_context ctx;
    mc_rewrite_pass p;
    const auto ps = p.run(net, ctx);

    EXPECT_EQ(ps.pass_name, "mc-rewrite");
    EXPECT_EQ(ps.before.num_ands, before);
    EXPECT_EQ(ps.after.num_ands, net.num_ands());
    EXPECT_LE(ps.after.num_ands, ps.before.num_ands);
    EXPECT_FALSE(ps.rounds.empty());
    ASSERT_EQ(ctx.history.size(), 1u);
    EXPECT_EQ(ctx.history[0].pass_name, "mc-rewrite");
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));
}

TEST(pass_framework, context_resources_are_shared_across_passes)
{
    auto net1 = gen_adder(16);
    auto net2 = gen_adder(16);
    pass_context ctx;
    mc_rewrite_pass p;
    p.run(net1, ctx);
    const auto db_size = ctx.mc_db().size();
    const auto misses_after_first = ctx.classification().misses();
    p.run(net2, ctx);
    // Second network hits the warmed database and cache.
    EXPECT_EQ(ctx.mc_db().size(), db_size);
    EXPECT_EQ(ctx.classification().misses(), misses_after_first);
    EXPECT_EQ(ctx.history.size(), 2u);
}

TEST(flow_engine, named_flows_build_and_unknown_names_throw)
{
    EXPECT_NO_THROW(make_flow("mc"));
    EXPECT_NO_THROW(make_flow("mc+xor"));
    EXPECT_NO_THROW(make_flow("size-baseline"));
    EXPECT_NO_THROW(make_flow("mc,xor,cleanup"));
    EXPECT_THROW(make_flow("frobnicate"), std::invalid_argument);
    EXPECT_THROW(make_flow(""), std::invalid_argument);
    EXPECT_EQ(make_flow("mc+xor+cleanup").passes.size(), 3u);
}

TEST(flow_engine, mc_xor_flow_preserves_function_and_reduces_ands)
{
    auto net = gen_adder(16);
    const auto golden = cleanup(net);
    const auto before = stats_of(net);

    pass_context ctx;
    const auto result = run_flow(net, make_flow("mc+xor+cleanup"), ctx);

    EXPECT_EQ(result.flow_name, "mc+xor+cleanup");
    EXPECT_EQ(result.before.num_ands, before.num_ands);
    EXPECT_LT(result.after.num_ands, before.num_ands);
    EXPECT_EQ(result.passes.size(), 3u);
    EXPECT_EQ(result.iterations, 1u);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), golden, 64));
}

TEST(flow_engine, iterate_until_convergence_stops)
{
    auto net = random_network(51, 8, 100, 4);
    const auto golden = cleanup(net);
    flow_params params;
    params.iterate_until_convergence = true;
    params.max_flow_iterations = 5;
    pass_context ctx;
    const auto result = run_flow(net, make_flow("mc+cleanup", params), ctx);
    EXPECT_GE(result.iterations, 1u);
    EXPECT_LE(result.iterations, 5u);
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));
}

TEST(pass_framework, size_pass_shrinks_naive_majority)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    net.create_po(net.create_maj_naive(a, b, c));
    const auto golden = cleanup(net);
    const auto gates_before = net.num_gates();
    pass_context ctx;
    size_rewrite_pass{}.run(net, ctx);
    EXPECT_LE(net.num_gates(), gates_before);
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));
}

} // namespace
} // namespace mcx
