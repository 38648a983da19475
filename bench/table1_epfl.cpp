// Regenerates paper Table 1: EPFL combinational benchmarks, proposed
// AND-minimization vs. generic size optimization.
//
// Protocol (paper §5.1): the initial point is a generically size-optimized
// network under a unit cost model (our size_rewrite baseline — DESIGN.md
// substitution X2 — applied to generator-built circuits — substitution X3);
// then one round of the proposed method and repetition until convergence
// are reported.  Default widths are laptop-scale; MCX_FULL=1 selects
// paper-scale widths (see EXPERIMENTS.md for the mapping).
#include "common.h"

#include "gen/arithmetic.h"
#include "gen/control.h"

#include <cstdio>

using namespace mcx;
using namespace mcx::bench;

namespace {

xag baseline(xag net, pass_context& ctx)
{
    size_rewrite_pass{{}, 6}.run(net, ctx);
    return cleanup(net);
}

} // namespace

int main()
{
    const bool full = full_scale();
    std::printf("mcx — Table 1 (EPFL benchmarks), %s widths\n",
                full ? "paper-scale" : "reduced");
    std::printf("paper column: one-round%% / converged%% AND improvement "
                "reported in DAC'19 Table 1\n");

    pass_context ctx;
    const auto& db = ctx.mc_db();
    const auto& cache = ctx.classification();

    struct spec {
        const char* name;
        xag circuit;
        int paper_one;
        int paper_conv;
    };

    std::vector<spec> arith;
    arith.push_back({"Adder", gen_adder(full ? 128 : 64), 42, 77});
    arith.push_back(
        {"Barrel shifter", gen_barrel_shifter(full ? 128 : 32), 67, 69});
    arith.push_back({"Divisor", gen_divisor(full ? 64 : 16), 47, 50});
    arith.push_back({"Log2", gen_log2(full ? 32 : 16), 20, 22});
    arith.push_back({"Max", gen_max(full ? 128 : 32, 4), 45, 65});
    arith.push_back({"Multiplier", gen_multiplier(full ? 64 : 16), 24, 26});
    arith.push_back({"Sine", gen_sine(full ? 24 : 14), 15, 17});
    arith.push_back({"Square-root", gen_sqrt(full ? 64 : 16), 42, 49});
    arith.push_back({"Square", gen_square(full ? 32 : 16), 42, 44});

    std::vector<spec> control;
    control.push_back({"Round-robin arbiter",
                       gen_round_robin_arbiter(full ? 128 : 64), 0, 0});
    control.push_back({"Alu control unit", gen_alu_control(5, 26), 1, 1});
    control.push_back(
        {"Coding-cavlc*", gen_random_control(10, 620, 11, 0xca41c), 5, 8});
    control.push_back({"Decoder", gen_decoder(8), 0, 0});
    control.push_back(
        {"i2c controller*", gen_random_control(147, 900, 142, 0x12c), 20, 24});
    control.push_back({"int to float converter", gen_int2float(11, 4, 3),
                       16, 25});
    control.push_back({"Memory controller*",
                       gen_random_control(1204, full ? 7500 : 2500, 1231,
                                          0x3e3c),
                       27, 31});
    control.push_back({"Priority encoder", gen_priority_encoder(128), 11, 11});
    control.push_back({"Lookahead XY router", gen_xy_router(15), 0, 0});
    control.push_back({"Voter", gen_voter(full ? 1001 : 501), 17, 23});

    const auto run_section = [&](const char* title, std::vector<spec>& specs) {
        print_header(title);
        std::vector<row> rows;
        for (auto& s : specs) {
            auto initial = baseline(std::move(s.circuit), ctx);
            auto r = run_protocol(s.name, std::move(initial), ctx);
            r.paper_improvement_one = s.paper_one;
            r.paper_improvement_conv = s.paper_conv;
            print_row(r);
            rows.push_back(r);
        }
        std::printf("normalized geometric mean (AND, converged/initial): "
                    "%.2f   [paper: %s]\n",
                    geomean_ratio(rows),
                    title[0] == 'A' ? "0.49" : "0.87");
        return rows;
    };

    auto a = run_section("Arithmetic benchmarks", arith);
    auto c = run_section("Random-control benchmarks", control);

    std::vector<row> all(a);
    all.insert(all.end(), c.begin(), c.end());
    std::printf("\noverall geometric-mean AND ratio: %.2f (paper overall: "
                "~0.66, i.e. 34%% average reduction)\n",
                geomean_ratio(all));
    std::printf("classification cache: %zu entries, %llu hits / %llu misses; "
                "database: %zu entries (%llu exact, %llu heuristic)\n",
                cache.size(),
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(cache.misses()), db.size(),
                static_cast<unsigned long long>(db.exact_entries()),
                static_cast<unsigned long long>(db.heuristic_entries()));
    return 0;
}
