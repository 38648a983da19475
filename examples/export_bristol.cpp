// End-to-end compilation pipeline: generate a circuit, minimize its AND
// count, and export it in Bristol fashion for consumption by MPC frameworks
// (the interchange format of the paper's Table 2 benchmarks).
//
//   $ ./examples/export_bristol [output-directory]
#include "core/pass.h"
#include "gen/arithmetic.h"
#include "io/bristol.h"
#include "xag/cleanup.h"

#include <cstdio>
#include <sstream>
#include <string>

int main(int argc, char** argv)
{
    using namespace mcx;
    const std::string dir = argc > 1 ? argv[1] : ".";

    struct job {
        const char* file;
        xag circuit;
    };
    job jobs[] = {
        {"adder32_mc.bristol", gen_adder(32)},
        {"mult16_mc.bristol", gen_multiplier(16)},
        {"lt32_mc.bristol", gen_comparator_lt_unsigned(32)},
    };

    pass_context ctx; // one database and cache for every job
    for (auto& j : jobs) {
        const auto before = j.circuit.num_ands();
        mc_rewrite_pass{}.run(j.circuit, ctx);
        auto clean = cleanup(j.circuit);
        const auto path = dir + "/" + j.file;
        write_bristol_file(clean, path);

        // Round-trip check: the exported file parses back to a circuit of
        // identical AND cost.
        const auto back = read_bristol_file(path);
        std::printf("%-18s %4u -> %4u AND gates; wrote %s (reparsed: %u AND)\n",
                    j.file, before, clean.num_ands(), path.c_str(),
                    back.num_ands());
    }
    return 0;
}
