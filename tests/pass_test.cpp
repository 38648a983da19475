// Pass framework, flow engine, arena-backed cut storage, and batched cone
// simulation.
#include "core/flow.h"
#include "core/mffc.h"
#include "core/pass.h"
#include "cut/cut_enumeration.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "spectral/classification.h"
#include "tt/operations.h"
#include "xag/cleanup.h"
#include "xag/cone_batch.h"
#include "xag/simulate.h"
#include "xag/verify.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>

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

TEST(round_stats_audit, cone_counters_are_per_round_deltas)
{
    // Cone work is a function of the network alone, so one round on two
    // copies of a network through one context must report equal counts —
    // per-round deltas, not the simulators' lifetime totals.  Both
    // engines; thread-count invariance is par_test's.
    pass_context ctx;
    for (const uint32_t threads : {0u, 1u}) {
        rewrite_params params;
        params.num_threads = threads;
        auto first = gen_adder(16);
        auto second = gen_adder(16);
        const auto r1 = mc_rewrite_round(first, ctx, params);
        const auto r2 = mc_rewrite_round(second, ctx, params);
        EXPECT_GE(r1.cone_traversals, r1.nodes_evaluated) << threads;
        EXPECT_GT(r1.cone_nodes_visited, r1.cone_traversals) << threads;
        EXPECT_EQ(r2.cone_traversals, r1.cone_traversals) << threads;
        EXPECT_EQ(r2.cone_nodes_visited, r1.cone_nodes_visited) << threads;
    }
}

// -------------------------------------------------- batched cone simulator

/// Reference candidate check: DFS containment (the cone must stop at
/// `leaves` and must not contain `forbidden`) plus per-cut cone_function.
std::optional<uint64_t> reference_cone_word(const xag& net, uint32_t root,
                                            std::span<const uint32_t> leaves,
                                            uint32_t forbidden = UINT32_MAX)
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

/// Nodes a per-cut DFS from `root` visits before it stops at `leaves` (or
/// at PIs and the constant), leaves included.
size_t reference_cone_size(const xag& net, uint32_t root,
                           std::span<const uint32_t> leaves)
{
    std::vector<uint32_t> stack{root};
    std::set<uint32_t> visited;
    while (!stack.empty()) {
        const auto n = stack.back();
        stack.pop_back();
        if (!visited.insert(n).second)
            continue;
        if (!net.is_gate(n) ||
            std::find(leaves.begin(), leaves.end(), n) != leaves.end())
            continue;
        stack.push_back(net.fanin0(n).node());
        stack.push_back(net.fanin1(n).node());
    }
    return visited.size();
}

/// Every enumerated cut of every live gate must simulate to its
/// cone_function word.
void expect_matches_cone_function(const xag& net, cone_simulator& sim)
{
    const auto sets = enumerate_cuts(net, {.cut_size = 6, .cut_limit = 8});
    std::vector<cone_simulator::leaf_set> leaves;
    std::vector<uint64_t> words;
    for (const auto n : net.topological_order()) {
        if (!net.is_gate(n))
            continue;
        leaves.clear();
        for (const auto& c : sets[n])
            leaves.emplace_back(c.leaf_span().begin(), c.leaf_span().end());
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

/// True when some live gate reads a fanin with a larger id — the shape
/// substitute() leaves behind, where an id-ordered sweep is not
/// topological.
bool has_non_topological_ids(const xag& net)
{
    for (const auto n : net.topological_order())
        if (net.is_gate(n) &&
            (net.fanin0(n).node() > n || net.fanin1(n).node() > n))
            return true;
    return false;
}

TEST(cone_simulator, matches_cone_function_on_enumerated_cuts)
{
    // One simulator across every network: stamps left by a larger or
    // differently-numbered network must never leak into the next.
    cone_simulator sim;
    for (const uint64_t seed : {21u, 22u, 23u})
        expect_matches_cone_function(random_network(seed, 7, 90, 4), sim);

    // Networks after 1-3 rewriting rounds: a replacement's new nodes sit at
    // higher ids than the fanouts they now feed.
    bool saw_non_topological = false;
    xag rewritten;
    pass_context ctx;
    for (auto net : {gen_adder(8), gen_voter(9)}) {
        for (int round = 0; round < 3; ++round) {
            if (mc_rewrite_round(net, ctx).replacements == 0)
                break;
            saw_non_topological |= has_non_topological_ids(net);
            expect_matches_cone_function(net, sim);
        }
        rewritten = net;
    }
    EXPECT_TRUE(saw_non_topological);

    // More than max_lanes lanes on one root: the request is chunked across
    // run_chunk calls.  Enumerated cuts are interleaved with a lane whose
    // cone escapes through the root's second fanin.
    const auto sets =
        enumerate_cuts(rewritten, {.cut_size = 6, .cut_limit = 8});
    uint32_t root = 0;
    for (const auto n : rewritten.topological_order())
        if (rewritten.is_gate(n) && sets[n].size() > sets[root].size())
            root = n;
    ASSERT_NE(root, 0u);
    std::vector<cone_simulator::leaf_set> leaves;
    for (size_t i = 0; i < 40; ++i) {
        if (i % 5 == 4) {
            leaves.push_back({rewritten.fanin0(root).node()});
        } else {
            const auto c = sets[root][i % sets[root].size()].leaf_span();
            leaves.emplace_back(c.begin(), c.end());
        }
    }
    ASSERT_GT(leaves.size(), size_t{cone_simulator::max_lanes});
    std::vector<uint64_t> words;
    const auto valid = sim.simulate_cuts(rewritten, root, leaves, words);
    size_t invalid = 0;
    for (size_t i = 0; i < leaves.size(); ++i) {
        const auto expected = reference_cone_word(rewritten, root, leaves[i]);
        ASSERT_EQ(((valid >> i) & 1) != 0, expected.has_value())
            << "lane " << i;
        if (expected)
            EXPECT_EQ(words[i], *expected) << "lane " << i;
        else
            ++invalid;
    }
    EXPECT_EQ(invalid, 8u);
}

TEST(cone_simulator, work_is_bounded_by_lane_cones_on_a_deep_chain)
{
    // A 1024-bit ripple-carry adder is thousands of levels deep.  A
    // traversal that walked the root's whole fan-in would cost O(depth)
    // per call; the lanes' own cones stay a handful of nodes each.  The
    // bound is a count, so it is independent of the host.
    const auto net = gen_adder(1024);
    const auto sets = enumerate_cuts(net);
    cone_simulator sim;
    std::vector<cone_simulator::leaf_set> leaves;
    std::vector<uint64_t> words;
    uint64_t checked = 0;
    for (const auto n : net.topological_order()) {
        if (!net.is_gate(n))
            continue;
        leaves.clear();
        size_t bound = 0;
        for (const auto& c : sets[n]) {
            leaves.emplace_back(c.leaf_span().begin(), c.leaf_span().end());
            bound += reference_cone_size(net, n, leaves.back());
        }
        const auto before = sim.nodes_evaluated();
        sim.simulate_cuts(net, n, leaves, words);
        ASSERT_LE(sim.nodes_evaluated() - before, bound) << "node " << n;
        ++checked;
    }
    EXPECT_GT(checked, 4096u);
}

TEST(cone_simulator, oversized_leaf_set_fails_only_its_own_lane)
{
    // root = (((((x0 & x1) ^ x2) & x3) ^ x4) & x5) ^ x6
    xag net;
    std::vector<uint32_t> x;
    std::vector<signal> pis;
    for (int i = 0; i < 7; ++i) {
        pis.push_back(net.create_pi());
        x.push_back(pis.back().node());
    }
    std::vector<uint32_t> chain;
    auto acc = pis[0];
    for (int i = 1; i < 7; ++i) {
        acc = (i % 2) != 0 ? net.create_and(acc, pis[i])
                           : net.create_xor(acc, pis[i]);
        chain.push_back(acc.node());
    }
    net.create_po(acc);
    const auto root = acc.node();
    const auto sorted = [](std::vector<uint32_t> v) {
        std::sort(v.begin(), v.end());
        return v;
    };

    const std::vector<cone_simulator::leaf_set> good{
        sorted({chain[4], x[6]}), sorted({chain[3], x[5], x[6]}),
        sorted({chain[1], x[3], x[4], x[5], x[6]}),
        sorted({chain[0], x[2], x[3], x[4], x[5], x[6]})};
    auto mixed = good;
    mixed.insert(mixed.begin() + 2, x); // all seven PIs: a real cut, k = 7

    cone_simulator sim;
    std::vector<uint64_t> good_words, mixed_words;
    const auto good_valid = sim.simulate_cuts(net, root, good, good_words);
    ASSERT_EQ(good_valid, 0b1111u);
    for (size_t i = 0; i < good.size(); ++i)
        EXPECT_EQ(good_words[i], cone_function(net, root, good[i]).word());

    const auto mixed_valid = sim.simulate_cuts(net, root, mixed, mixed_words);
    EXPECT_EQ(mixed_valid, 0b11011u);
    EXPECT_EQ(mixed_words[2], 0u);
    for (size_t i = 0; i < good.size(); ++i)
        EXPECT_EQ(mixed_words[i < 2 ? i : i + 1], good_words[i])
            << "cut " << i;
    EXPECT_FALSE(sim.cone_word(net, root, x));
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

// ------------------------------------------------------------ MFFC kernel

/// Per-call hash-map MFFC: the simulated-dereference definition the
/// epoch-stamped kernel must reproduce.
uint32_t reference_mffc(const xag& net, uint32_t root,
                        std::span<const uint32_t> leaves, bool count_xor)
{
    const std::unordered_set<uint32_t> leaf_set(leaves.begin(),
                                                leaves.end());
    std::unordered_map<uint32_t, uint32_t> remaining;
    uint32_t count = 0;
    std::vector<uint32_t> stack{root};
    while (!stack.empty()) {
        const auto n = stack.back();
        stack.pop_back();
        if (net.is_and(n) || count_xor)
            ++count;
        for (const auto fi : {net.fanin0(n), net.fanin1(n)}) {
            const auto child = fi.node();
            if (!net.is_gate(child) || leaf_set.count(child))
                continue;
            auto [it, inserted] =
                remaining.try_emplace(child, net.ref_count(child));
            if (--it->second == 0)
                stack.push_back(child);
        }
    }
    return count;
}

/// Substitute `count` random gates by fresh gates over nodes below them:
/// leaves dead nodes, forwarding chains and id gaps behind.
void random_substitutions(xag& net, std::mt19937_64& rng, int count)
{
    for (int i = 0; i < count; ++i) {
        const auto order = net.topological_order();
        std::vector<uint32_t> gates;
        for (const auto n : order)
            if (net.is_gate(n))
                gates.push_back(n);
        const auto g = gates[rng() % gates.size()];
        const auto pos = static_cast<size_t>(
            std::find(order.begin(), order.end(), g) - order.begin());
        if (pos < 2)
            continue;
        const auto a = signal{order[rng() % pos], (rng() & 1) != 0};
        const auto b = signal{order[rng() % pos], (rng() & 1) != 0};
        const auto r = (rng() & 1) ? net.create_and(a, b)
                                   : net.create_xor(a, b);
        net.take_ref(r);
        if (r.node() != g)
            net.substitute(g, r);
        net.release_ref(net.resolve(r));
    }
}

TEST(mffc_kernel, matches_hash_map_reference_after_substitute)
{
    // One workspace across every network: stale stamps from a larger or
    // earlier network must never leak into a later call.
    mffc_workspace ws;
    uint64_t checked = 0;
    for (const uint64_t seed : {51u, 52u, 53u, 54u, 55u, 56u}) {
        std::mt19937_64 rng{seed};
        auto net = random_network(seed, 8, 100 + 20 * (seed % 4), 6);
        random_substitutions(net, rng, 12);
        ASSERT_NO_THROW(net.check_integrity());
        const auto cuts = enumerate_cuts(net);
        for (const auto n : net.topological_order()) {
            if (!net.is_gate(n))
                continue;
            for (const auto& c : cuts[n]) {
                const auto leaves = c.leaf_span();
                ASSERT_EQ(mffc_and_count(net, n, leaves, ws),
                          reference_mffc(net, n, leaves, false))
                    << "seed " << seed << " node " << n;
                ASSERT_EQ(mffc_gate_count(net, n, leaves, ws),
                          reference_mffc(net, n, leaves, true))
                    << "seed " << seed << " node " << n;
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 1000u);
}

TEST(mffc_kernel, pinned_gain_never_exceeds_unpinned_mffc)
{
    // The invariant behind MFFC-bounded scoring: for every cut of a
    // rewritten network, the gain of the candidate the mc round would
    // build (MFFC while the candidate pins shared nodes, minus the ANDs it
    // created) is at most the MFFC measured before the build.
    uint64_t checked = 0, pinned_smaller = 0;
    mffc_workspace ws;
    for (auto net : {gen_multiplier(5), gen_sqrt(8)}) {
        pass_context ctx;
        for (int round = 0; round < 3; ++round) {
            if (mc_rewrite_round(net, ctx).replacements == 0 && round > 0)
                break;
            const auto cuts = enumerate_cuts(net);
            for (const auto n : net.topological_order()) {
                if (!net.is_gate(n))
                    continue;
                for (const auto& c : cuts[n]) {
                    if (c.num_leaves < 2)
                        continue;
                    const auto leaves = c.leaf_span();
                    const auto view = shrink_to_support(
                        cone_function(net, n, leaves));
                    if (view.support.size() < 2)
                        continue;
                    std::vector<signal> leaf_sigs;
                    for (const auto idx : view.support)
                        leaf_sigs.push_back(signal{leaves[idx], false});
                    const auto& cls =
                        ctx.classification().classify(view.function);
                    if (!cls.success)
                        continue;
                    const auto& entry =
                        ctx.mc_db().lookup_or_build(cls.representative);
                    const int64_t unpinned = mffc_and_count(net, n, leaves, ws);
                    const auto ands_before = net.num_ands();
                    const auto cand = splice_affine(net, cls.transform,
                                                    leaf_sigs, entry.circuit);
                    const int64_t created = net.num_ands() - ands_before;
                    net.take_ref(cand);
                    const int64_t pinned = mffc_and_count(net, n, leaves, ws);
                    EXPECT_LE(pinned - created, unpinned) << "node " << n;
                    EXPECT_LE(pinned, unpinned);
                    pinned_smaller += pinned < unpinned ? 1 : 0;
                    net.release_ref(net.resolve(cand));
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 400u);
    EXPECT_GT(pinned_smaller, 0u); // sharing does occur
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
