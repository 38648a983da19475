// Incremental evaluation (src/core/pass.cpp round_env / evaluate_cache):
// re-running evaluate_node only for nodes whose cut or MFFC context
// changed must be an invisible optimization — flow outputs byte-identical
// to the full-evaluate oracle for every engine and thread count, across
// generator families and randomized network surgery — and it must go
// fully quiescent (zero nodes evaluated) on the steady-state round after
// convergence.  The commit-time SAT verifier rides along: with exact
// cut functions it can never refute a candidate, so enabling it must not
// change a single byte of output either.
#include "core/flow.h"
#include "gen/aes.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "gen/hashes.h"
#include "gen/lightweight.h"
#include "io/bench.h"
#include "xag/cleanup.h"
#include "xag/verify.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <random>
#include <sstream>
#include <vector>

namespace mcx {
namespace {

std::string serialize(const xag& n)
{
    std::ostringstream os;
    write_bench(cleanup(n), os);
    return os.str();
}

/// Optimize through a flow and return (serialized network, replacements).
std::pair<std::string, uint64_t> optimize(xag net, uint32_t threads,
                                          bool incremental_eval,
                                          flow_params params = {},
                                          const char* spec = "mc")
{
    params.num_threads = threads;
    params.rewrite.incremental_evaluate = incremental_eval;
    params.size_rewrite.incremental_evaluate = incremental_eval;
    pass_context ctx{context_params(params)};
    const auto result = run_flow(net, make_flow(spec, params), ctx);
    uint64_t replacements = 0;
    for (const auto& p : result.passes)
        for (const auto& r : p.rounds)
            replacements += r.replacements;
    return {serialize(net), replacements};
}

/// Incremental evaluation must be invisible: identical networks and
/// replacement counts vs. the full-evaluate oracle, for the sequential
/// in-place engine (threads = 0) and the two-phase engine at 1/2/8
/// workers.
void expect_evaluate_invariant(const xag& source, const char* what,
                               flow_params params = {},
                               const char* spec = "mc")
{
    const auto golden = cleanup(source);
    const auto [full0, repl_full0] =
        optimize(cleanup(source), 0, false, params, spec);
    const auto [inc0, repl_inc0] =
        optimize(cleanup(source), 0, true, params, spec);
    EXPECT_EQ(inc0, full0) << what << ": sequential engine diverged";
    EXPECT_EQ(repl_inc0, repl_full0) << what;

    const auto [full1, repl_full1] =
        optimize(cleanup(source), 1, false, params, spec);
    for (const uint32_t threads : {1u, 2u, 8u}) {
        const auto [inc, repl] =
            optimize(cleanup(source), threads, true, params, spec);
        EXPECT_EQ(inc, full1)
            << what << ": " << threads << " threads diverged";
        EXPECT_EQ(repl, repl_full1) << what << ": " << threads << " threads";
    }

    // And the deterministic result is still the right function.
    std::istringstream is{full1};
    const auto reparsed = read_bench(is);
    if (golden.num_pis() <= 16)
        EXPECT_TRUE(exhaustive_equal(reparsed, golden)) << what;
    else
        EXPECT_TRUE(random_simulation_equal(reparsed, golden, 16)) << what;
}

// ----------------------------------- flow-level differential (families)

TEST(evaluate_differential, arithmetic_family)
{
    expect_evaluate_invariant(gen_adder(16), "adder16");
    expect_evaluate_invariant(gen_multiplier(4), "multiplier4");
}

TEST(evaluate_differential, control_family)
{
    expect_evaluate_invariant(gen_decoder(4), "decoder4");
    expect_evaluate_invariant(gen_voter(7), "voter7");
}

TEST(evaluate_differential, aes_family)
{
    xag net;
    std::array<signal, 8> in;
    for (auto& s : in)
        s = net.create_pi();
    for (const auto s : aes_sbox_circuit(net, in))
        net.create_po(s);
    expect_evaluate_invariant(net, "aes-sbox");
}

TEST(evaluate_differential, lightweight_family)
{
    expect_evaluate_invariant(gen_simon(16, 4), "simon16x4");
    expect_evaluate_invariant(gen_keccak_f(8), "keccak8");
}

TEST(evaluate_differential, size_baseline_engine)
{
    expect_evaluate_invariant(gen_adder(12), "size-adder12", {},
                              "size-baseline");
}

TEST(evaluate_differential, iterated_flow_across_passes)
{
    flow_params params;
    params.iterate_until_convergence = true;
    expect_evaluate_invariant(gen_adder(12), "iterated-adder12", params,
                              "mc+xor");
}

TEST(evaluate_differential, sat_verified_commits_change_nothing)
{
    // Evaluation scores candidates with exact cut truth tables, so the
    // commit-time SAT check can never refute one: turning it on must be
    // byte-invisible (it may only cost time).
    for (const uint32_t threads : {0u, 2u}) {
        flow_params plain;
        flow_params checked;
        checked.rewrite.sat_verify_commits = true;
        checked.size_rewrite.sat_verify_commits = true;
        const auto [off, repl_off] =
            optimize(gen_adder(16), threads, true, plain);
        const auto [on, repl_on] =
            optimize(gen_adder(16), threads, true, checked);
        EXPECT_EQ(on, off) << threads << " threads";
        EXPECT_EQ(repl_on, repl_off) << threads << " threads";
    }
}

// --------------------------------------------- randomized surgery fuzz

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
    for (int i = 0; i < pos && i < static_cast<int>(pool.size()); ++i)
        net.create_po(pool[pool.size() - 1 - i]);
    return net;
}

/// One structural surgery op addressed by *topological position*, not
/// node id.  The incremental and oracle runs consume node ids at
/// different rates (skipped evaluations build no transient candidates),
/// so ids diverge while the serialized structures stay identical;
/// positions in topological order are the id-independent coordinate
/// system the BENCH writer itself uses for naming.
struct surgery_op {
    uint32_t gate_pick;
    uint32_t a_pick, b_pick;
    bool a_compl, b_compl, is_and;
};

std::vector<surgery_op> surgery_plan(std::mt19937_64& rng, int operations)
{
    std::vector<surgery_op> plan;
    plan.reserve(operations);
    for (int i = 0; i < operations; ++i)
        plan.push_back({static_cast<uint32_t>(rng()),
                        static_cast<uint32_t>(rng()),
                        static_cast<uint32_t>(rng()), (rng() & 1) != 0,
                        (rng() & 1) != 0, (rng() & 1) != 0});
    return plan;
}

/// Substitute a positionally-chosen gate with a fresh gate over nodes
/// strictly below it (keeps the DAG acyclic; semantics-agnostic — the
/// evaluate cache tracks structure, and rewriting the mutated network is
/// function-preserving whatever that function now is).
void apply_surgery(xag& net, const std::vector<surgery_op>& plan)
{
    for (const auto& op : plan) {
        const auto order = net.topological_order();
        std::vector<uint32_t> gates;
        for (const auto n : order)
            if (net.is_gate(n))
                gates.push_back(n);
        if (gates.empty())
            return;
        const auto g = gates[op.gate_pick % gates.size()];
        std::vector<uint32_t> below;
        for (const auto n : order) {
            if (n == g)
                break;
            below.push_back(n);
        }
        if (below.size() < 2)
            continue;
        const auto a = signal{below[op.a_pick % below.size()], op.a_compl};
        const auto b = signal{below[op.b_pick % below.size()], op.b_compl};
        const auto r = op.is_and ? net.create_and(a, b) : net.create_xor(a, b);
        if (r.node() == g || net.is_dead(g))
            continue;
        net.substitute(g, r);
    }
}

TEST(evaluate_differential, randomized_surgery_fuzz)
{
    std::mt19937_64 rng{2026};
    for (const uint32_t threads : {0u, 1u, 2u, 8u}) {
        for (int trial = 0; trial < 4; ++trial) {
            rewrite_params p_inc;
            p_inc.num_threads = threads;
            rewrite_params p_full;
            p_full.num_threads = threads;
            p_full.incremental_evaluate = false;
            pass_context ctx_inc, ctx_full;
            auto net_inc =
                random_network(5000 + trial, 6 + trial % 5, 90, 5);
            auto net_full = net_inc;
            for (int round = 0; round < 4; ++round) {
                const auto plan =
                    surgery_plan(rng, 1 + static_cast<int>(rng() % 5));
                apply_surgery(net_inc, plan);
                apply_surgery(net_full, plan);
                ASSERT_EQ(serialize(net_inc), serialize(net_full))
                    << "surgery diverged: threads " << threads << " trial "
                    << trial << " round " << round;
                const auto si = mc_rewrite_round(net_inc, ctx_inc, p_inc);
                const auto sf = mc_rewrite_round(net_full, ctx_full, p_full);
                ASSERT_EQ(serialize(net_inc), serialize(net_full))
                    << "threads " << threads << " trial " << trial
                    << " round " << round;
                EXPECT_EQ(si.replacements, sf.replacements)
                    << "threads " << threads << " trial " << trial
                    << " round " << round;
                EXPECT_LE(si.nodes_evaluated, sf.nodes_evaluated)
                    << "threads " << threads << " trial " << trial
                    << " round " << round;
            }
        }
    }
}

// ------------------------------------------- per-node winner exactness

bool same_winner(const eval_winner& a, const eval_winner& b)
{
    // Every field but `worker` (a scheduling artefact).
    return a.node == b.node && a.function == b.function &&
           a.cut_leaves == b.cut_leaves && a.support == b.support &&
           a.num_cut_leaves == b.num_cut_leaves &&
           a.num_support == b.num_support && a.valid == b.valid;
}

/// Give random gates one more fanout each (a new gate over two of them,
/// driving a new PO).  Their reference counts — and with them the MFFCs
/// of the cones they sit in — change while their cut sets do not.
void add_fanouts(xag& net, std::mt19937_64& rng, int count)
{
    std::vector<uint32_t> gates;
    for (const auto n : net.topological_order())
        if (net.is_gate(n))
            gates.push_back(n);
    for (int i = 0; i < count && gates.size() >= 2; ++i) {
        const signal a{gates[rng() % gates.size()], false};
        const signal b{gates[rng() % gates.size()], (rng() & 1) != 0};
        net.create_po((rng() & 1) ? net.create_and(a, b)
                                  : net.create_xor(a, b));
    }
}

/// Replace random gates by one of their own fanins: the other fanin
/// loses a reference, so the MFFCs of the cones it sits in grow, and only
/// the replaced gate's fanouts change structure.
void drop_fanouts(xag& net, std::mt19937_64& rng, int count)
{
    for (int i = 0; i < count; ++i) {
        std::vector<uint32_t> gates;
        for (const auto n : net.topological_order())
            if (net.is_gate(n))
                gates.push_back(n);
        if (gates.empty())
            return;
        const auto h = gates[rng() % gates.size()];
        net.substitute(h, (rng() & 1) ? net.fanin0(h) : net.fanin1(h));
    }
}

/// Round by round, every node the maintainer calls clean must carry the
/// winner a fresh full-evaluate context computes on a copy of the network
/// as it stood when the round started.  `before_round(net, round)` may
/// edit the network between rounds.  Both contexts use `db`: entries are a
/// pure function of the class, and a cold database would re-run exact
/// synthesis for every call.  Returns the clean nodes checked and adds the
/// rounds' replacements to `replacements`.
uint64_t expect_clean_winners_exact(
    xag net, uint32_t threads, mc_database& db, const char* what,
    int rounds = 6, const std::function<void(xag&, int)>& before_round = {},
    uint64_t* replacements = nullptr)
{
    rewrite_params p;
    p.num_threads = threads;
    pass_context ctx;
    ctx.adopt(&db);
    uint64_t checked = 0;
    for (int round = 0; round < rounds; ++round) {
        if (before_round)
            before_round(net, round);
        const auto start = net;
        const auto stats = mc_rewrite_round(net, ctx, p);
        if (replacements != nullptr)
            *replacements += stats.replacements;
        const auto& maint = ctx.cut_maintenance();
        if (stats.nodes_clean == 0)
            continue; // a full round: nothing was served from the cache
        EXPECT_TRUE(maint.last_refresh_incremental()) << what;
        const auto dirty = maint.evaluate_dirty();
        const auto& cache = ctx.eval_cache();

        auto fresh_net = start;
        pass_context fresh;
        fresh.adopt(&db);
        mc_rewrite_round(fresh_net, fresh, p);
        const auto& oracle = fresh.eval_cache();
        uint64_t clean = 0;
        for (const auto n : start.topological_order()) {
            if (!start.is_gate(n) || dirty[n] != 0)
                continue;
            ++clean;
            if (n >= cache.has_entry.size() || cache.has_entry[n] == 0 ||
                n >= oracle.has_entry.size() || oracle.has_entry[n] == 0) {
                ADD_FAILURE() << what << ": node " << n << " has no winner";
                continue;
            }
            EXPECT_TRUE(same_winner(cache.winners[n], oracle.winners[n]))
                << what << ": round " << round << " node " << n
                << " cached valid " << cache.winners[n].valid
                << " oracle valid " << oracle.winners[n].valid;
        }
        EXPECT_EQ(clean, stats.nodes_clean) << what << " round " << round;
        checked += clean;
    }
    return checked;
}

TEST(evaluate_cache, clean_nodes_carry_the_full_evaluate_winner)
{
    // Winners are thread-count independent; two workers run the dirty
    // test on the pool, one runs it inline.
    mc_database db{mc_database_params{}};
    uint64_t checked = 0;
    for (const uint32_t threads : {1u, 2u}) {
        checked += expect_clean_winners_exact(gen_adder(32), threads, db,
                                              "adder32");
        // Between rounds: structural surgery, then fanouts added and
        // dropped (reference-count changes under unchanged cut sets).
        std::mt19937_64 rng{7};
        const auto surgery = [&rng](xag& net, int round) {
            if (round == 0)
                return;
            apply_surgery(net,
                          surgery_plan(rng, 1 + static_cast<int>(rng() % 3)));
            add_fanouts(net, rng, 3);
            drop_fanouts(net, rng, 3);
        };
        checked += expect_clean_winners_exact(
            random_network(7001, 7, 110, 5), threads, db, "surgery", 5,
            surgery);
        checked += expect_clean_winners_exact(gen_adder(32), threads, db,
                                              "adder32+fanouts", 5, surgery);
    }
    EXPECT_GT(checked, 1000u);
}

TEST(evaluate_cache, reference_count_change_alone_re_scores_the_cone)
{
    // The naive majority (5 ANDs, multiplicative complexity 1) cannot be
    // rewritten while each of its inner gates also feeds another output:
    // its MFFC is the root alone.  Dropping those extra fanouts leaves
    // every cut set as it was, yet grows the MFFC to all five ANDs — the
    // nodes above must be re-scored, and the next round rewrites.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto d = net.create_pi();
    const auto m = net.create_maj_naive(a, b, c);
    net.create_po(m);
    std::vector<uint32_t> extra;
    for (const auto n : net.topological_order())
        if (net.is_gate(n) && n != m.node()) {
            const auto e = net.create_xor(signal{n, false}, d);
            net.create_po(e);
            extra.push_back(e.node());
        }
    ASSERT_EQ(extra.size(), 4u);
    const auto drop = [&](xag& g, int round) {
        if (round == 1)
            for (const auto e : extra)
                g.substitute(e, d);
    };
    mc_database db{mc_database_params{}};
    for (const uint32_t threads : {1u, 2u}) {
        uint64_t replacements = 0;
        expect_clean_winners_exact(net, threads, db, "majority", 3, drop,
                                   &replacements);
        EXPECT_GT(replacements, 0u) << threads << " threads";
    }
}

// ------------------------------------------------ dirty-set work bound

/// Nodes on paths from n down to the leaves of c, root and leaves
/// included (the region a cached evaluation depends on).
size_t cut_cone_size(const xag& net, uint32_t n, const cut& c)
{
    std::vector<uint32_t> seen{n}, stack{n};
    const auto leaves = c.leaf_span();
    while (!stack.empty()) {
        const auto x = stack.back();
        stack.pop_back();
        if (!net.is_gate(x) ||
            std::find(leaves.begin(), leaves.end(), x) != leaves.end())
            continue;
        for (const auto fi : {net.fanin0(x), net.fanin1(x)})
            if (std::find(seen.begin(), seen.end(), fi.node()) ==
                seen.end()) {
                seen.push_back(fi.node());
                stack.push_back(fi.node());
            }
    }
    return seen.size();
}

TEST(evaluate_work_bound, md5_dirty_set_is_bounded_by_cut_reach)
{
    // md5 is ~1,600 AND levels deep.  Once a round makes only k
    // replacements, the next round must re-score only the nodes whose cut
    // sets changed plus the nodes whose cut cones reach a changed region.
    // A replacement seeds a handful of nodes (its new gates, its rewired
    // fanouts, the fanins it freed), and a seed dirties only the nodes
    // whose cut cones hold it: c * k * (largest cut cone) in all, not the
    // transitive fanout of every commit (~37,600 of ~37,750 nodes per
    // round here).  Measured: 585, 452 and 130 nodes for k = 5, 3, 1,
    // with a largest cone of 15.
    constexpr uint64_t c = 16;
    rewrite_params p;
    p.num_threads = 1;
    pass_context ctx;
    auto net = cleanup(gen_md5());
    uint64_t prev_replacements = 0;
    int bounded_rounds = 0;
    for (int round = 0; round < 6; ++round) {
        const bool check = round > 0 && prev_replacements <= 8;
        size_t largest_cone = 0;
        if (check) {
            const auto sets = enumerate_cuts(
                net, {.cut_size = p.cut_size, .cut_limit = p.cut_limit});
            for (const auto n : net.topological_order())
                if (net.is_gate(n))
                    for (const auto& cut : sets[n])
                        largest_cone = std::max(largest_cone,
                                                cut_cone_size(net, n, cut));
        }
        const auto stats = mc_rewrite_round(net, ctx, p);
        if (check) {
            const auto bound = stats.cut_stats.reenumerated_nodes +
                               c * std::max<uint64_t>(prev_replacements, 1) *
                                   largest_cone;
            EXPECT_LE(stats.nodes_evaluated, bound)
                << "round " << round << ": k = " << prev_replacements
                << ", re-enumerated " << stats.cut_stats.reenumerated_nodes
                << ", largest cut cone " << largest_cone;
            ++bounded_rounds;
        }
        prev_replacements = stats.replacements;
        if (stats.replacements == 0)
            break;
    }
    EXPECT_GE(bounded_rounds, 2);
}

// ------------------------------------------------ steady-state quiescence

TEST(evaluate_cache, steady_state_evaluates_nothing)
{
    for (const uint32_t threads : {0u, 2u}) {
        rewrite_params p;
        p.num_threads = threads;
        pass_context ctx;
        auto net = gen_adder(64);
        bool converged = false;
        bool measured = false;
        for (int r = 0; r < 8; ++r) {
            const auto stats = mc_rewrite_round(net, ctx, p);
            if (converged) {
                EXPECT_EQ(stats.nodes_evaluated, 0u)
                    << threads << " threads";
                EXPECT_GT(stats.nodes_clean, 0u) << threads << " threads";
                measured = true;
                break;
            }
            if (stats.replacements == 0)
                converged = true;
        }
        EXPECT_TRUE(measured)
            << threads << " threads: adder64 did not converge in 8 rounds";
    }
}

TEST(evaluate_cache, full_mode_reports_no_clean_nodes)
{
    rewrite_params p;
    p.incremental_evaluate = false;
    pass_context ctx;
    auto net = gen_adder(32);
    for (int r = 0; r < 3; ++r) {
        const auto stats = mc_rewrite_round(net, ctx, p);
        EXPECT_EQ(stats.nodes_clean, 0u) << "round " << r;
        EXPECT_GT(stats.nodes_evaluated, 0u) << "round " << r;
    }
}

} // namespace
} // namespace mcx
