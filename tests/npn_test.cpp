#include "npn/npn.h"
#include "oracles/npn_baseline.h"
#include "tt/truth_table.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

namespace mcx {
namespace {

truth_table random_tt(uint32_t num_vars, std::mt19937_64& rng)
{
    truth_table t{num_vars};
    t.words()[0] = rng() & tt_mask(num_vars);
    return t;
}

TEST(npn_canonize_fn, transform_reconstructs_function)
{
    std::mt19937_64 rng{41};
    for (uint32_t n = 0; n <= 4; ++n) {
        for (int rep = 0; rep < 25; ++rep) {
            const auto f = random_tt(n, rng);
            const auto result = npn_canonize(f);
            EXPECT_EQ(result.transform.apply(result.representative), f)
                << "n=" << n << " f=" << f.to_hex();
        }
    }
}

TEST(npn_canonize_fn, canonical_within_class)
{
    std::mt19937_64 rng{42};
    for (int rep = 0; rep < 40; ++rep) {
        const auto f = random_tt(4, rng);
        // Random NPN transformation of f.
        npn_transform t;
        t.num_vars = 4;
        std::array<uint8_t, 4> p{0, 1, 2, 3};
        for (int i = 3; i > 0; --i)
            std::swap(p[i], p[rng() % (i + 1)]);
        t.perm = p;
        t.input_negation = static_cast<uint32_t>(rng() & 0xf);
        t.output_negation = (rng() & 1) != 0;
        const auto g = t.apply(f);
        EXPECT_EQ(npn_canonize(f).representative,
                  npn_canonize(g).representative);
    }
}

TEST(npn_canonize_fn, known_class_counts)
{
    // 2-variable functions fall into 4 NPN classes
    // (const, x, x&y, x^y).
    std::set<truth_table> reps2;
    for (uint64_t bits = 0; bits < 16; ++bits)
        reps2.insert(npn_canonize(truth_table{2, bits}).representative);
    EXPECT_EQ(reps2.size(), 4u);

    // 3-variable functions: 14 NPN classes (classic result).
    std::set<truth_table> reps3;
    for (uint64_t bits = 0; bits < 256; ++bits)
        reps3.insert(npn_canonize(truth_table{3, bits}).representative);
    EXPECT_EQ(reps3.size(), 14u);
}

TEST(npn_canonize_fn, four_var_class_count)
{
    // 4-variable functions: 222 NPN classes (classic result).
    std::set<truth_table> reps;
    for (uint64_t bits = 0; bits < 65536; ++bits)
        reps.insert(npn_canonize(truth_table{4, bits}).representative);
    EXPECT_EQ(reps.size(), 222u);
}

TEST(npn_canonize_fn, representative_is_minimal_and_idempotent)
{
    std::mt19937_64 rng{43};
    for (int rep = 0; rep < 20; ++rep) {
        const auto f = random_tt(3, rng);
        const auto r = npn_canonize(f);
        EXPECT_FALSE(f < r.representative); // representative <= all members
        EXPECT_EQ(npn_canonize(r.representative).representative,
                  r.representative);
    }
}

TEST(npn_canonize_fn, rejects_oversized)
{
    EXPECT_THROW(npn_canonize(truth_table{5}), std::invalid_argument);
    EXPECT_THROW(npn_canonize_baseline(truth_table{5}),
                 std::invalid_argument);
}

// --- word-parallel canonizer vs. the retained brute-force oracle ----------

TEST(npn_canonize_oracle, exhaustive_up_to_three_vars)
{
    for (uint32_t n = 0; n <= 3; ++n) {
        for (uint64_t bits = 0; bits < (uint64_t{1} << (1u << n)); ++bits) {
            const truth_table f{n, bits};
            const auto fast = npn_canonize(f);
            const auto oracle = npn_canonize_baseline(f);
            ASSERT_EQ(fast.representative, oracle.representative)
                << "n=" << n << " f=" << f.to_hex();
            // The chosen transform may differ on ties, but both must be
            // valid decompositions of f.
            ASSERT_EQ(fast.transform.apply(fast.representative), f)
                << "n=" << n << " f=" << f.to_hex();
            ASSERT_EQ(oracle.transform.apply(oracle.representative), f)
                << "n=" << n << " f=" << f.to_hex();
        }
    }
}

TEST(npn_canonize_oracle, randomized_four_vars)
{
    std::mt19937_64 rng{97};
    for (int rep = 0; rep < 300; ++rep) {
        const auto f = random_tt(4, rng);
        const auto fast = npn_canonize(f);
        const auto oracle = npn_canonize_baseline(f);
        ASSERT_EQ(fast.representative, oracle.representative)
            << "f=" << f.to_hex();
        ASSERT_EQ(fast.transform.apply(fast.representative), f)
            << "f=" << f.to_hex();
    }
}

TEST(npn_cache_suite, hit_returns_identical_result)
{
    std::mt19937_64 rng{98};
    npn_cache cache;
    for (int rep = 0; rep < 50; ++rep) {
        const auto f = random_tt(4, rng);
        const auto miss = cache.canonize(f); // copy before the next call
        const auto& hit = cache.canonize(f);
        EXPECT_EQ(miss.representative, hit.representative);
        EXPECT_EQ(miss.transform.perm, hit.transform.perm);
        EXPECT_EQ(miss.transform.input_negation, hit.transform.input_negation);
        EXPECT_EQ(miss.transform.output_negation,
                  hit.transform.output_negation);
        EXPECT_EQ(hit.representative, npn_canonize(f).representative);
    }
    EXPECT_EQ(cache.hits(), 50u);
    EXPECT_EQ(cache.misses(), 50u);
}

} // namespace
} // namespace mcx
