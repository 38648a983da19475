#include "npn/npn.h"

#include "tt/words.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace mcx {

truth_table npn_transform::apply(const truth_table& representative) const
{
    truth_table f{num_vars};
    for (uint64_t x = 0; x < f.num_bits(); ++x) {
        uint64_t y = 0;
        for (uint32_t i = 0; i < num_vars; ++i) {
            const bool bit =
                (((x >> perm[i]) & 1) != 0) ^ (((input_negation >> i) & 1) != 0);
            y |= uint64_t{bit} << i;
        }
        if (representative.get_bit(y) ^ output_negation)
            f.set_bit(x, true);
    }
    return f;
}

npn_result npn_canonize(const truth_table& f)
{
    const auto n = f.num_vars();
    if (n > 4)
        throw std::invalid_argument{"npn_canonize: at most 4 variables"};

    const uint64_t mask = tt_mask(n);
    const uint64_t w = f.word();

    uint64_t best_word = 0;
    std::array<uint8_t, 4> best_perm{0, 1, 2, 3};
    uint32_t best_neg = 0;
    bool best_out = false;
    bool first = true;

    std::array<uint8_t, 4> p{0, 1, 2, 3};
    do {
        // g(y) = f(x) with x[p[i]] = y[i]: move f-variable p[i] to slot i by
        // a selection sort of word swaps (at most n - 1 of them).
        uint64_t g = w;
        std::array<uint8_t, 4> slot{0, 1, 2, 3}; // slot[i]: f-var at position i
        for (uint32_t i = 0; i < n; ++i) {
            uint32_t t = i;
            while (slot[t] != p[i])
                ++t;
            if (t != i) {
                g = tt_swap_word(g, i, t);
                std::swap(slot[i], slot[t]);
            }
        }

        // Input negations in Gray-code order: one variable flip per step.
        // h(y) = g(y ^ gray); the candidate representative for
        // (p, gray, out) is out ^ h, compared as a raw word (operator< on
        // equal-arity truth tables is exactly word comparison).
        uint64_t h = g;
        uint32_t gray = 0;
        for (uint32_t code = 0;; ++code) {
            if (first || h < best_word) {
                first = false;
                best_word = h;
                best_perm = p;
                best_neg = gray;
                best_out = false;
            }
            if (const uint64_t hc = ~h & mask; hc < best_word) {
                best_word = hc;
                best_perm = p;
                best_neg = gray;
                best_out = true;
            }
            if (code + 1 == (1u << n))
                break;
            const auto bit = static_cast<uint32_t>(std::countr_zero(code + 1));
            h = tt_flip_word(h, bit);
            gray ^= 1u << bit;
        }
    } while (std::next_permutation(p.begin(), p.begin() + n));

    npn_result best;
    best.representative = truth_table{n, best_word};
    best.transform.num_vars = n;
    best.transform.perm = best_perm;
    best.transform.input_negation = best_neg;
    best.transform.output_negation = best_out;
    return best;
}

} // namespace mcx
