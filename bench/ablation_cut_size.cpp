// Ablation for paper §4: cut size 6 maximizes the optimization scope (the
// database covers all functions up to 6 inputs).  Sweeps k in 2..6.
#include "common.h"

#include "gen/arithmetic.h"
#include "gen/hashes.h"

#include <cstdio>

using namespace mcx;
using namespace mcx::bench;

int main()
{
    std::printf("mcx — ablation: cut size k (paper uses 6-cuts)\n");
    std::printf("%-14s %4s | %10s %10s %10s\n", "circuit", "k", "AND_init",
                "AND_final", "time[s]");

    struct spec {
        const char* name;
        xag (*make)();
    };
    const spec specs[] = {
        {"adder64", [] { return gen_adder(64); }},
        {"multiplier16", [] { return gen_multiplier(16); }},
        {"sha1", [] { return gen_sha1(); }},
    };

    for (const auto& s : specs) {
        for (const uint32_t k : {2u, 3u, 4u, 5u, 6u}) {
            auto net = s.make();
            const auto initial = net.num_ands();
            pass_context ctx;
            rewrite_params params;
            params.cut_size = k;
            const auto conv = mc_rewrite_pass{params, 6}.run(net, ctx);
            std::printf("%-14s %4u | %10u %10u %10.2f\n", s.name, k, initial,
                        net.num_ands(), conv.seconds);
        }
        std::printf("\n");
    }
    return 0;
}
