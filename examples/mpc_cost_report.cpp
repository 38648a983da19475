// MPC cost report: the paper's motivating scenario (§1).  Under Yao's
// garbled circuits with the free-XOR technique, XOR gates cost nothing and
// every AND gate costs two ciphertexts (half-gates garbling).  This example
// builds the comparison and hashing circuits of a private-auction sketch,
// minimizes their multiplicative complexity, and prices the result.
//
//   $ ./examples/mpc_cost_report
#include "core/pass.h"
#include "gen/arithmetic.h"
#include "gen/hashes.h"
#include "xag/depth.h"

#include <cstdio>

int main()
{
    using namespace mcx;

    struct workload {
        const char* name;
        xag circuit;
    };
    workload items[] = {
        {"32-bit bid comparator (<)", gen_comparator_lt_unsigned(32)},
        {"32-bit max of 4 bids", gen_max(32, 4)},
        {"64-bit settlement adder", gen_adder(64)},
        {"SHA-1 bid commitment", gen_sha1()},
    };

    constexpr double bytes_per_and = 2 * 16; // half-gates: 2 ciphertexts
    std::printf("%-28s | %9s %9s | %9s %9s | %8s | %9s\n", "circuit",
                "AND before", "after", "KiB before", "after", "saved",
                "AND depth");

    pass_context ctx; // one database and cache for every workload
    double total_before = 0, total_after = 0;
    for (auto& item : items) {
        const auto before = item.circuit.num_ands();
        mc_rewrite_pass{{}, 8}.run(item.circuit, ctx);
        const auto after = item.circuit.num_ands();
        const double kib_before = before * bytes_per_and / 1024.0;
        const double kib_after = after * bytes_per_and / 1024.0;
        total_before += kib_before;
        total_after += kib_after;
        std::printf("%-28s | %9u %9u | %9.1f %9.1f | %7.0f%% | %9u\n",
                    item.name, before, after, kib_before, kib_after,
                    100.0 * (before - after) / before,
                    and_depth(item.circuit));
    }
    std::printf("%-28s | %31s | %9.1f %9.1f | %7.0f%%\n", "total garbled data",
                "", total_before, total_after,
                100.0 * (total_before - total_after) / total_before);
    std::printf("\n(free-XOR garbling: XOR gates are free; each AND costs two "
                "128-bit ciphertexts.)\n");
    return 0;
}
