// Extension experiment: the XOR-interconnect cleanup the paper delegates to
// related work ("we do not consider any XOR optimization", §5.1).  The MC
// rewriting deliberately spends XOR gates to save AND gates; this harness
// measures how much of that spend the Paar-style linear resynthesis
// recovers — at zero cost in AND count.
#include "common.h"

#include <chrono>

#include "core/xor_resynthesis.h"
#include "gen/arithmetic.h"

#include <cstdio>

using namespace mcx;
using namespace mcx::bench;

int main()
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::printf("mcx — extension: XOR resynthesis after MC rewriting\n");
    std::printf("(greedy Paar extraction: helps adder-style interconnect, can\n"
                " lose to pre-existing sharing on multiplier trees — reported\n"
                " as measured; AND count is never touched)\n");
    std::printf("%-16s | %8s %8s | %8s -> %8s | %8s %8s\n", "circuit",
                "AND_mc", "XOR_mc", "XOR", "XOR_opt", "pairs", "time[s]");

    struct spec {
        const char* name;
        xag circuit;
    };
    spec specs[] = {
        {"adder64", gen_adder(64)},
        {"adder128", gen_adder(128)},
        {"multiplier16", gen_multiplier(16)},
        {"comparator32", gen_comparator_lt_unsigned(32)},
    };

    pass_context ctx;
    for (auto& s : specs) {
        mc_rewrite_pass{{}, 6}.run(s.circuit, ctx);
        const auto ands = s.circuit.num_ands();
        const auto xors = s.circuit.num_xors();
        const auto start = std::chrono::steady_clock::now();
        const auto stats = xor_resynthesis(s.circuit);
        const auto seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        std::printf("%-16s | %8u %8u | %8u -> %8u | %8u %8.2f\n", s.name,
                    ands, xors, stats.xors_before, stats.xors_after,
                    stats.pairs_extracted, seconds);
        if (s.circuit.num_ands() > ands)
            std::printf("  WARNING: AND count increased — this must never "
                        "happen\n");
    }
    return 0;
}
