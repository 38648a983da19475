#include "core/pass.h"
#include "core/xor_resynthesis.h"
#include "gen/arithmetic.h"
#include "gen/hashes.h"
#include "gen/lightweight.h"
#include "io/bench.h"
#include "par/thread_pool.h"
#include "xag/cleanup.h"
#include "xag/simulate.h"
#include "xag/verify.h"
#include "xag/xag.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

namespace mcx {
namespace {

TEST(xor_resynthesis_pass, extracts_common_pairs)
{
    // Three linear outputs sharing the pair (a ^ b):
    //   y0 = a^b^c, y1 = a^b^d, y2 = a^b^c^d
    // Naive chains cost 2+2+3 = 7 XORs; with the shared pair: 1+3 = 4.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto d = net.create_pi();
    // Build deliberately unshared chains (different association orders).
    net.create_po(net.create_xor(net.create_xor(a, b), c));
    net.create_po(net.create_xor(net.create_xor(b, d), a));
    net.create_po(net.create_xor(net.create_xor(c, a), net.create_xor(d, b)));
    const auto golden = simulate(net);
    const auto before = net.num_xors();

    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_EQ(simulate(net), golden);
    EXPECT_LT(net.num_xors(), before);
    EXPECT_GE(stats.pairs_extracted, 1u);
    EXPECT_EQ(stats.xors_after, net.num_xors());
}

TEST(xor_resynthesis_pass, cancels_duplicate_terms)
{
    // y = a ^ b ^ a = b: the expansion must cancel the doubled term and the
    // root must collapse to a wire.
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    const auto c = net.create_pi();
    const auto t = net.create_xor(a, b);
    const auto y = net.create_xor(t, a);
    net.create_po(net.create_and(y, c)); // consume via an AND: block root
    const auto golden = simulate(net);

    xor_resynthesis(net);
    net.check_integrity();
    EXPECT_EQ(simulate(net), golden);
    // y collapsed to b: no XOR gates remain.
    EXPECT_EQ(net.num_xors(), 0u);
}

TEST(xor_resynthesis_pass, preserves_and_count)
{
    std::mt19937_64 rng{81};
    for (int rep = 0; rep < 6; ++rep) {
        xag net;
        std::vector<signal> pool;
        for (int i = 0; i < 8; ++i)
            pool.push_back(net.create_pi());
        for (int i = 0; i < 120; ++i) {
            const auto x = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
            const auto y = pool[rng() % pool.size()] ^ ((rng() & 1) != 0);
            pool.push_back((rng() % 3) ? net.create_xor(x, y)
                                       : net.create_and(x, y));
        }
        for (int i = 0; i < 6; ++i)
            net.create_po(pool[pool.size() - 1 - i]);

        const auto golden = cleanup(net);
        const auto ands = net.num_ands();
        xor_resynthesis(net);
        net.check_integrity();
        // Rewiring can only help the AND count (roots collapsing to shared
        // wires let downstream AND gates fold), never hurt it.
        EXPECT_LE(net.num_ands(), ands) << "rep " << rep;
        EXPECT_TRUE(exhaustive_equal(cleanup(net), golden)) << "rep " << rep;
    }
}

TEST(xor_resynthesis_pass, after_mc_rewrite_on_adder)
{
    // The paper's pipeline leaves XOR-heavy affine interfaces behind; the
    // resynthesis pass must clean them up without touching the AND optimum.
    auto net = gen_adder(16);
    pass_context ctx;
    mc_rewrite_pass{}.run(net, ctx);
    const auto ands = net.num_ands();
    const auto golden = cleanup(net);

    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_EQ(net.num_ands(), ands);
    EXPECT_LE(stats.xors_after, stats.xors_before);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), golden, 32));
}

TEST(xor_resynthesis_pass, noop_on_and_only_network)
{
    xag net;
    const auto a = net.create_pi();
    const auto b = net.create_pi();
    net.create_po(net.create_and(a, b));
    const auto stats = xor_resynthesis(net);
    EXPECT_EQ(stats.blocks, 0u);
    EXPECT_EQ(stats.xors_before, stats.xors_after);
}

// ------------------------------------------------------ wide-row pairing

/// Rows of `width` terms sharing a long prefix, deliberately associated
/// differently so the naive trees share nothing.  Terms are AND gates so
/// the PI count stays at 8 (exhaustive verification) while rows grow past
/// the old 16-term pairing cap.
xag wide_row_network(uint32_t width, uint32_t num_rows)
{
    xag net;
    std::vector<signal> pis;
    for (int i = 0; i < 8; ++i)
        pis.push_back(net.create_pi());
    std::vector<signal> terms;
    for (uint32_t i = 0; terms.size() < width + num_rows; ++i)
        for (uint32_t j = i + 1; j < 8 && terms.size() < width + num_rows;
             ++j) {
            const auto t = net.create_and(pis[i] ^ (i & 1), pis[j]);
            if ((i + j) % 3 != 0)
                terms.push_back(t);
            else
                terms.push_back(net.create_and(t, pis[(i + j) % 8] ^ true));
        }
    std::mt19937_64 rng{7};
    for (uint32_t r = 0; r < num_rows; ++r) {
        // Shared prefix terms 0..width-1 plus one private term, built in a
        // per-row shuffled order so every row's tree is distinct.
        std::vector<signal> row(terms.begin(), terms.begin() + width);
        row.push_back(terms[width + r]);
        std::shuffle(row.begin(), row.end(), rng);
        auto acc = row[0];
        for (size_t i = 1; i < row.size(); ++i)
            acc = net.create_xor(acc, row[i]);
        net.create_po(net.create_and(acc, pis[r % 8]));
    }
    return net;
}

TEST(xor_resynthesis_pass, pairs_rows_beyond_the_old_16_term_cap)
{
    // 24-term rows: before PR 4 these skipped pairing entirely and kept
    // their unshared trees (0 pairs, no XOR reduction).
    auto net = wide_row_network(24, 4);
    const auto golden = cleanup(net);
    const auto before = net.num_xors();

    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_GT(stats.widest_row, 16u);
    EXPECT_GT(stats.widest_row_paired, 16u);
    EXPECT_EQ(stats.rows_paired, stats.blocks);
    EXPECT_GT(stats.pairs_extracted, 0u);
    EXPECT_LT(net.num_xors(), before);
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));
}

TEST(xor_resynthesis_pass, width_cap_and_budget_still_skip_rows)
{
    // The same network under the legacy cap pairs nothing (every row is
    // wider than 16) but must stay correct and non-increasing.
    auto net = wide_row_network(24, 4);
    const auto golden = cleanup(net);
    const auto before = net.num_xors();
    const auto stats = xor_resynthesis(net, {.max_pairing_width = 16});
    net.check_integrity();
    EXPECT_EQ(stats.rows_paired, 0u);
    EXPECT_EQ(stats.pairs_extracted, 0u);
    EXPECT_LE(net.num_xors(), before);
    EXPECT_TRUE(exhaustive_equal(cleanup(net), golden));

    // A starved work budget admits only the narrowest rows.
    auto net2 = wide_row_network(24, 4);
    const auto stats2 = xor_resynthesis(net2, {.pairing_work_budget = 1});
    EXPECT_EQ(stats2.rows_paired, 0u);
}

TEST(xor_resynthesis_pass, pool_seeding_is_deterministic)
{
    // Pair-count seeding fans out across workers, but with the admission
    // set pinned (unlimited budget ⇒ every row admitted at any worker
    // count) the extracted pairs — and therefore the rebuilt network —
    // must be byte-identical to the sequential pass.  Workloads are kept
    // small enough that unlimited admission stays cheap: wide rows past
    // the legacy cap, an adder's xor-heavy carry interface, and simon's
    // round structure.
    const auto serialize = [](const xag& n) {
        std::ostringstream os;
        write_bench(cleanup(n), os);
        return os.str();
    };
    const auto sources = {wide_row_network(24, 4), wide_row_network(20, 6),
                          gen_adder(16), gen_simon(16, 4)};
    for (const auto& source : sources) {
        auto seq = source;
        xor_resynthesis(seq, {.pairing_work_budget = 0});
        const auto oracle = serialize(seq);
        for (const uint32_t workers : {1u, 4u}) {
            thread_pool pool{workers};
            auto par = source;
            const auto stats = xor_resynthesis(
                par, {.pairing_work_budget = 0, .pool = &pool});
            par.check_integrity();
            EXPECT_EQ(serialize(par), oracle) << workers << " workers";
            EXPECT_EQ(stats.seed_workers, workers);
        }
    }
}

/// A few rows wide enough that one row's pair loop alone exceeds the
/// seeding chunk floor (~4096 pairs), so the pool must split single rows
/// across workers.  16 PIs give 120 distinct AND pairs; doubled variants
/// push the distinct-term pool past the requested width.
xag giant_row_network(uint32_t width, uint32_t num_rows)
{
    xag net;
    std::vector<signal> pis;
    for (int i = 0; i < 16; ++i)
        pis.push_back(net.create_pi());
    std::vector<signal> terms;
    for (uint32_t i = 0; i < 16 && terms.size() < width + num_rows; ++i)
        for (uint32_t j = i + 1; j < 16 && terms.size() < width + num_rows;
             ++j) {
            const auto t = net.create_and(pis[i] ^ (i & 1), pis[j]);
            terms.push_back(t);
            if (terms.size() < width + num_rows)
                terms.push_back(net.create_and(t, pis[(i + j) % 16] ^ true));
        }
    std::mt19937_64 rng{19};
    for (uint32_t r = 0; r < num_rows; ++r) {
        std::vector<signal> row(terms.begin(), terms.begin() + width);
        row.push_back(terms[width + r]);
        std::shuffle(row.begin(), row.end(), rng);
        auto acc = row[0];
        for (size_t i = 1; i < row.size(); ++i)
            acc = net.create_xor(acc, row[i]);
        net.create_po(net.create_and(acc, pis[r % 16]));
    }
    return net;
}

TEST(xor_resynthesis_pass, pool_splits_single_wide_rows_deterministically)
{
    // 150-term rows carry 150·149/2 ≈ 11k pairs each — several seeding
    // chunks — so a single row's quadratic loop is spread across workers
    // rather than serializing on one.  Per-pair sums are schedule-
    // independent, so the rebuilt network must stay byte-identical to the
    // sequential pass at any worker count.
    const auto serialize = [](const xag& n) {
        std::ostringstream os;
        write_bench(cleanup(n), os);
        return os.str();
    };
    const auto source = giant_row_network(150, 3);
    auto seq = source;
    const auto stats_seq = xor_resynthesis(seq, {.pairing_work_budget = 0});
    EXPECT_GE(stats_seq.widest_row_paired, 150u);
    const auto oracle = serialize(seq);
    for (const uint32_t workers : {1u, 4u}) {
        thread_pool pool{workers};
        auto par = source;
        const auto stats = xor_resynthesis(
            par, {.pairing_work_budget = 0, .pool = &pool});
        par.check_integrity();
        EXPECT_EQ(serialize(par), oracle) << workers << " workers";
        EXPECT_EQ(stats.seed_workers, workers);
        EXPECT_GE(stats.widest_row_paired, 150u) << workers << " workers";
    }
}

TEST(xor_resynthesis_pass, pool_scales_the_admission_budget)
{
    // The work budget is per worker: a W-worker pool admits rows until
    // W x budget is spent, so a budget that starves the sequential pass
    // can still pair rows under a pool — and says so in the stats.
    const uint64_t budget = 2400; // admits nothing sequentially (24² = 576
                                  // per row, 4 rows, cumulative cap)
    auto seq = wide_row_network(24, 4);
    const auto stats_seq = xor_resynthesis(seq, {.pairing_work_budget = budget});
    EXPECT_EQ(stats_seq.effective_pairing_budget, budget);

    thread_pool pool{4};
    auto par = wide_row_network(24, 4);
    const auto golden = cleanup(par);
    const auto stats_par = xor_resynthesis(
        par, {.pairing_work_budget = budget, .pool = &pool});
    par.check_integrity();
    EXPECT_EQ(stats_par.effective_pairing_budget, 4 * budget);
    EXPECT_GE(stats_par.rows_paired, stats_seq.rows_paired);
    EXPECT_TRUE(exhaustive_equal(cleanup(par), golden));
}

TEST(xor_resynthesis_pass, keccak_generator_produces_wide_rows)
{
    // A real generator whose linear blocks dwarf the old cap: keccak's
    // theta/chi structure yields rows of hundreds of terms.  Wide-row
    // pairing must hold the XOR count (never grow it) and preserve the
    // function.
    auto net = gen_keccak_f(8);
    const auto golden = cleanup(net);
    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_GT(stats.widest_row, 16u);
    EXPECT_GT(stats.widest_row_paired, 16u);
    EXPECT_GT(stats.rows_paired, 0u);
    EXPECT_LE(stats.xors_after, stats.xors_before);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), golden, 16));
}

} // namespace
} // namespace mcx
