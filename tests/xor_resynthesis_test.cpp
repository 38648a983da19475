#include "core/pass.h"
#include "core/xor_resynthesis.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "gen/hashes.h"
#include "gen/lightweight.h"
#include "xag/cleanup.h"
#include "xag/simulate.h"
#include "xag/verify.h"
#include "xag/xag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

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

TEST(xor_resynthesis_pass, budget_still_skips_rows)
{
    // MD5's accumulator rows run to thousands of terms: the fixed Σwidth²
    // admission budget pairs the narrow rows and leaves the widest ones
    // with their trees, and the result must stay equivalent.
    auto net = gen_md5();
    const auto golden = cleanup(net);
    const auto stats = xor_resynthesis(net);
    net.check_integrity();
    EXPECT_GT(stats.rows_paired, 0u);
    EXPECT_LT(stats.rows_paired, stats.blocks);
    EXPECT_LT(stats.widest_row_paired, stats.widest_row);
    EXPECT_LE(stats.xors_after, stats.xors_before);
    EXPECT_TRUE(random_simulation_equal(cleanup(net), golden, 16));
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

// ------------------------------------------------------ pair extraction

/// Reference Paar loop: recount every pair of every row each step and take
/// the argmax of (count, a, b) among pairs that occur in at least two rows.
std::vector<detail::extracted_pair>
reference_extraction(std::vector<std::vector<uint32_t>>& rows,
                     uint32_t num_terms)
{
    std::vector<detail::extracted_pair> plan;
    for (auto id = num_terms;; ++id) {
        std::map<std::pair<uint32_t, uint32_t>, uint32_t> count;
        for (const auto& row : rows)
            for (size_t i = 0; i < row.size(); ++i)
                for (size_t j = i + 1; j < row.size(); ++j)
                    ++count[{row[i], row[j]}];
        std::pair<uint32_t, std::pair<uint32_t, uint32_t>> best{0, {0, 0}};
        for (const auto& [pair, c] : count)
            best = std::max(best, {c, pair});
        if (best.first < 2)
            return plan;
        const auto [a, b] = best.second;
        plan.push_back({a, b, id});
        for (auto& row : rows)
            if (std::binary_search(row.begin(), row.end(), a) &&
                std::binary_search(row.begin(), row.end(), b)) {
                std::erase_if(row,
                              [&](uint32_t t) { return t == a || t == b; });
                row.push_back(id); // the largest id so far: stays sorted
            }
    }
}

TEST(xor_pair_extraction, matches_full_recount_reference_on_tied_systems)
{
    // Few terms and many overlapping rows, so most steps choose among
    // several pairs of equal count: the tie-break decides the sequence.
    std::mt19937_64 rng{2019};
    uint64_t steps = 0;
    for (int rep = 0; rep < 300; ++rep) {
        const auto num_terms = static_cast<uint32_t>(3 + rng() % 12);
        const auto num_rows = 2 + rng() % 24;
        std::vector<std::vector<uint32_t>> rows(num_rows);
        for (auto& row : rows) {
            for (uint32_t t = 0; t < num_terms; ++t)
                if (rng() % 3 != 0)
                    row.push_back(t);
            if (rep % 4 == 0 && !rows[0].empty())
                row = rows[0]; // identical rows: every pair ties
        }
        auto expected_rows = rows;
        const auto expected = reference_extraction(expected_rows, num_terms);
        const auto got = detail::extract_pairs(rows, num_terms);
        ASSERT_EQ(got.plan, expected) << "rep " << rep;
        EXPECT_EQ(rows, expected_rows) << "rep " << rep;
        EXPECT_EQ(got.status, outcome::ok);
        steps += expected.size();
    }
    EXPECT_GT(steps, 1000u); // the systems really do share pairs
}

TEST(xor_pair_extraction, queue_work_is_bounded_by_distinct_pairs)
{
    // Work bound: the extraction pops its pair queue at most twice per
    // distinct pair it ever counts.  A queue that takes an entry on every
    // count increment pops about 14 entries per distinct pair here.
    auto net = gen_voter(501);
    pass_context ctx;
    mc_rewrite_pass{}.run(net, ctx);
    const auto stats = xor_resynthesis(net);
    ASSERT_GT(stats.pairs_counted, 0u);
    EXPECT_GT(stats.pairs_extracted, 0u);
    EXPECT_LE(stats.pair_queue_pops, 2 * stats.pairs_counted)
        << stats.pairs_counted << " distinct pairs";
}

} // namespace
} // namespace mcx
