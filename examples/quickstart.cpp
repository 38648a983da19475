// Quickstart: build an XAG with the public API, minimize its AND count
// (the multiplicative complexity), and inspect the result.
//
//   $ ./examples/quickstart
#include "core/pass.h"
#include "xag/cleanup.h"
#include "xag/depth.h"
#include "xag/simulate.h"
#include "xag/xag.h"

#include <cstdio>

int main()
{
    using namespace mcx;

    // A 4-bit ripple-carry adder from textbook full adders.
    xag net;
    std::vector<signal> a, b;
    for (int i = 0; i < 4; ++i)
        a.push_back(net.create_pi());
    for (int i = 0; i < 4; ++i)
        b.push_back(net.create_pi());
    auto carry = net.get_constant(false);
    for (int i = 0; i < 4; ++i) {
        const auto axb = net.create_xor(a[i], b[i]);
        net.create_po(net.create_xor(axb, carry)); // sum bit
        carry = net.create_or(net.create_and(a[i], b[i]),
                              net.create_and(axb, carry));
    }
    net.create_po(carry);

    std::printf("before: %u AND, %u XOR, multiplicative depth %u\n",
                net.num_ands(), net.num_xors(), and_depth(net));

    // One pass minimizes the number of AND gates (paper Algorithm 1,
    // repeated until convergence).  The context holds the database and
    // caches; reuse it to keep them warm across networks.
    pass_context ctx;
    const auto result = mc_rewrite_pass{}.run(net, ctx);

    std::printf("after:  %u AND, %u XOR, multiplicative depth %u "
                "(%zu rounds, %.2fs)\n",
                net.num_ands(), net.num_xors(), and_depth(net),
                result.rounds.size(), result.seconds);
    std::printf("the 4-bit adder reaches the known optimum of 4 AND gates: "
                "%s\n",
                net.num_ands() == 4 ? "yes" : "no");

    // Verify the optimized network still adds.
    const auto tts = simulate(net);
    for (uint64_t x = 0; x < 16; ++x)
        for (uint64_t y = 0; y < 16; ++y) {
            uint64_t sum = 0;
            for (int bit = 0; bit < 5; ++bit)
                sum |= static_cast<uint64_t>(tts[bit].get_bit(x | (y << 4)))
                       << bit;
            if (sum != x + y) {
                std::printf("MISMATCH at %llu + %llu\n",
                            static_cast<unsigned long long>(x),
                            static_cast<unsigned long long>(y));
                return 1;
            }
        }
    std::printf("functional check: all 256 input pairs add correctly\n");
    return 0;
}
