// Shared reporting helpers for the table-regeneration harnesses.
#pragma once

#include "core/pass.h"
#include "xag/cleanup.h"
#include "xag/verify.h"
#include "xag/xag.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace mcx::bench {

/// MCX_FULL=1 switches the harnesses to paper-scale circuit widths.
inline bool full_scale()
{
    const char* env = std::getenv("MCX_FULL");
    return env != nullptr && env[0] == '1';
}

struct row {
    std::string name;
    uint32_t inputs = 0;
    uint32_t outputs = 0;
    uint32_t initial_and = 0;
    uint32_t initial_xor = 0;
    uint32_t one_round_and = 0;
    uint32_t one_round_xor = 0;
    double one_round_seconds = 0;
    uint32_t final_and = 0;
    uint32_t final_xor = 0;
    double total_seconds = 0;
    uint32_t rounds = 0;
    bool verified = false;
    int paper_improvement_one = -1;  ///< % from the paper, -1 = n/a
    int paper_improvement_conv = -1;
};

inline int improvement(uint32_t before, uint32_t after)
{
    if (before == 0)
        return 0;
    return static_cast<int>(
        std::lround(100.0 * (before - after) / static_cast<double>(before)));
}

/// Run the paper's protocol on one circuit: one round, then continue to
/// convergence; verify the result functionally against the input.  `ctx`
/// carries the database and classification cache across circuits.
inline row run_protocol(std::string name, xag network, pass_context& ctx,
                        const rewrite_params& params = {},
                        uint32_t max_rounds = 20)
{
    row r;
    r.name = std::move(name);
    r.inputs = network.num_pis();
    r.outputs = network.num_pos();
    r.initial_and = network.num_ands();
    r.initial_xor = network.num_xors();

    const auto golden = cleanup(network);

    const auto one = mc_rewrite_round(network, ctx, params);
    r.one_round_and = one.ands_after;
    r.one_round_xor = one.xors_after;
    r.one_round_seconds = one.seconds;
    r.rounds = 1;

    const auto conv =
        mc_rewrite_pass{params, max_rounds - 1}.run(network, ctx);
    r.final_and = network.num_ands();
    r.final_xor = network.num_xors();
    r.total_seconds = one.seconds + conv.seconds;
    r.rounds += static_cast<uint32_t>(conv.rounds.size());

    r.verified = random_simulation_equal(cleanup(network), golden, 32);
    return r;
}

inline void print_header(const char* title)
{
    std::printf("\n%s\n", title);
    std::printf("%-26s %6s %5s | %8s %8s | %8s %8s %8s %6s | %8s %8s %8s %6s | %3s %8s\n",
                "Name", "In", "Out", "AND_0", "XOR_0", "AND_1", "XOR_1",
                "time[s]", "impr", "AND_c", "XOR_c", "time[s]", "impr",
                "ok", "paper");
}

inline void print_row(const row& r)
{
    char paper[32] = "-";
    if (r.paper_improvement_one >= 0)
        std::snprintf(paper, sizeof paper, "%d%%/%d%%",
                      r.paper_improvement_one, r.paper_improvement_conv);
    std::printf("%-26s %6u %5u | %8u %8u | %8u %8u %8.2f %5d%% | %8u %8u %8.2f %5d%% | %3s %8s\n",
                r.name.c_str(), r.inputs, r.outputs, r.initial_and,
                r.initial_xor, r.one_round_and, r.one_round_xor,
                r.one_round_seconds, improvement(r.initial_and, r.one_round_and),
                r.final_and, r.final_xor, r.total_seconds,
                improvement(r.initial_and, r.final_and),
                r.verified ? "yes" : "NO", paper);
}

inline double geomean_ratio(const std::vector<row>& rows)
{
    double acc = 0;
    int n = 0;
    for (const auto& r : rows) {
        if (r.initial_and == 0 || r.final_and == 0)
            continue;
        acc += std::log(static_cast<double>(r.final_and) / r.initial_and);
        ++n;
    }
    return n ? std::exp(acc / n) : 1.0;
}

} // namespace mcx::bench
