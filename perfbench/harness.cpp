// perfbench harness: the compiled half of the flow benchmark (run.py is
// the entry point).  It uses only the public mcx library API.
//
//   perfbench_harness gen <spec> <out.txt>
//       Generate one circuit and write it as Bristol text.  <spec> is
//       aes128, md5, <arith>:<bits> (adder, divisor, multiplier, sine,
//       sqrt), voter:<inputs> or random-control:<pis>:<gates>:<pos>.
//
//   perfbench_harness compile --threads <n> --seed <s> [--trace <file>]
//                             <in.txt> <out.txt> [<in.txt> <out.txt> ...]
//       Compile each input exactly as `mcx --flow mc+xor` does: Bristol
//       text in -> make_flow/run_flow on a fresh pass_context -> verify ->
//       Bristol text out.  --threads 0 keeps the library default engine;
//       --seed seeds the random-simulation check.  Untraced, set-up alone
//       (parse + make_flow + pass_context) is first timed setup_reps times
//       per circuit.  With --trace, each circuit is compiled untraced,
//       then replayed layer by layer, then compiled again with tracing on;
//       the merged harness + program spans go to <file> as Chrome
//       trace-event JSON.
//
// The result is one JSON object on stdout.
#include "core/flow.h"
#include "cut/cut_enumeration.h"
#include "db/mc_database.h"
#include "gen/aes.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "gen/hashes.h"
#include "io/bristol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spectral/classification.h"
#include "tt/operations.h"
#include "xag/cleanup.h"
#include "xag/cone_batch.h"
#include "xag/depth.h"
#include "xag/verify.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mcx;
using steady = std::chrono::steady_clock;
using obs::trace::trace_span;

constexpr const char* flow_spec = "mc+xor";

/// Generator seed of every random-control netlist.  Its compile time
/// swings from 1 to 19 s across generator seeds, more than any timing
/// bound, so the netlist is fixed rather than drawn per run.
constexpr uint64_t random_control_seed = 1;

/// Set-up samples per circuit in an untraced compile run.  A set-up takes
/// at most about 25 ms, so the samples cost about a second at most.
constexpr uint32_t setup_reps = 50;

double seconds_since(steady::time_point t0)
{
    return std::chrono::duration<double>(steady::now() - t0).count();
}

std::vector<std::string> split(const std::string& s, char sep)
{
    std::vector<std::string> parts;
    std::stringstream ss{s};
    for (std::string part; std::getline(ss, part, sep);)
        parts.push_back(part);
    return parts;
}

uint32_t to_u32(const std::string& s)
{
    size_t used = 0;
    const auto v = std::stoul(s, &used);
    if (used != s.size() || v > UINT32_MAX)
        throw std::invalid_argument{"not a number: " + s};
    return static_cast<uint32_t>(v);
}

xag make_circuit(const std::string& spec)
{
    const auto p = split(spec, ':');
    const auto arg = [&](size_t i) {
        if (i >= p.size())
            throw std::invalid_argument{"missing argument in " + spec};
        return to_u32(p[i]);
    };
    if (spec == "aes128")
        return gen_aes128();
    if (spec == "md5")
        return gen_md5();
    if (p[0] == "adder")
        return gen_adder(arg(1));
    if (p[0] == "divisor")
        return gen_divisor(arg(1));
    if (p[0] == "multiplier")
        return gen_multiplier(arg(1));
    if (p[0] == "sine")
        return gen_sine(arg(1));
    if (p[0] == "sqrt")
        return gen_sqrt(arg(1));
    if (p[0] == "voter")
        return gen_voter(arg(1));
    if (p[0] == "random-control")
        return gen_random_control(arg(1), arg(2), arg(3),
                                  random_control_seed);
    throw std::invalid_argument{"unknown circuit spec " + spec};
}

std::string read_text(const std::string& path)
{
    std::ifstream is{path, std::ios::binary};
    if (!is)
        throw std::runtime_error{"cannot read " + path};
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void write_text(const std::string& path, const std::string& text)
{
    std::ofstream os{path, std::ios::binary};
    if (!os || !(os << text))
        throw std::runtime_error{"cannot write " + path};
}

xag parse(const std::string& text)
{
    std::istringstream is{text};
    return read_bristol(is);
}

// ------------------------------------------------------------- compile

struct compile_options {
    uint32_t threads = 0;
    uint64_t seed = 1;
};

flow_params make_params(const compile_options& opt)
{
    flow_params params;
    params.num_threads = opt.threads;
    return params;
}

struct compile_record {
    double compile_s = 0;
    bool flow_ok = false;
    bool verified = false;
    std::string verify_method;
    uint32_t ands = 0, xors = 0, depth = 0;
    flow_result result;
    std::string output;
};

/// One compile, input text to verified output text, as tools/mcx.cpp
/// runs it.  Harness spans mark each public call for the traced run.
compile_record compile_once(const std::string& text,
                            const compile_options& opt)
{
    compile_record r;
    const trace_span whole{"bench.compile"};
    const auto t0 = steady::now();
    std::optional<xag> net;
    {
        const trace_span span{"bench.parse"};
        net = parse(text);
    }
    std::optional<pass_context> ctx;
    flow f;
    {
        const trace_span span{"bench.setup"};
        const auto params = make_params(opt);
        f = make_flow(flow_spec, params);
        ctx.emplace(context_params(params));
    }
    {
        const trace_span span{"bench.run_flow"};
        r.result = run_flow(*net, f, *ctx);
    }
    r.flow_ok = r.result.status == outcome::ok && !r.result.limit_hit;

    // tools/mcx.cpp takes the golden copy before the flow; taking it from
    // a second parse here keeps that copy out of the flow's memory peak
    // and charges it to verification, where it belongs.
    std::optional<xag> optimized;
    {
        const trace_span span{"bench.verify"};
        const auto golden = cleanup(parse(text));
        optimized = cleanup(*net);
        if (optimized->num_pis() <= 16) {
            r.verified = exhaustive_equal(*optimized, golden);
            r.verify_method = "exhaustive";
        } else {
            r.verified =
                random_simulation_equal(*optimized, golden, 64, opt.seed);
            r.verify_method = "random-simulation";
        }
    }
    {
        const trace_span span{"bench.write"};
        std::ostringstream os;
        write_bristol(*optimized, os);
        r.output = os.str();
    }
    r.compile_s = seconds_since(t0);

    r.ands = optimized->num_ands();
    r.xors = optimized->num_xors();
    r.depth = and_depth(*optimized);
    return r;
}

/// Set-up alone, as measured inside compile_once: parse + make_flow +
/// pass_context construction.
double setup_once(const std::string& text, const compile_options& opt)
{
    const auto t0 = steady::now();
    const auto net = parse(text);
    const auto params = make_params(opt);
    const auto f = make_flow(flow_spec, params);
    const pass_context ctx{context_params(params)};
    return seconds_since(t0);
}

// -------------------------------------------------------------- replay

/// Round 1's evaluation of every node, driven layer by layer through the
/// public APIs and timed from outside: enumerate_cuts ->
/// cone_simulator::simulate_cuts -> classification_cache::classify ->
/// mc_database::lookup_or_build.  Leaf resolution and the support filter
/// mirror the rewrite engine, so on an unmodified network the counts
/// equal round 1's round_stats.
struct replay_record {
    uint64_t cuts = 0;
    double enumerate_s = 0;
    uint64_t cuts_evaluated = 0;
    uint64_t traversals = 0, nodes_visited = 0;
    double simulate_s = 0;
    uint64_t classify_calls = 0, classify_hits = 0;
    double classify_s = 0;
    uint64_t lookups = 0;
    double lookup_s = 0; ///< lookups served without synthesis
};

replay_record replay(const std::string& text)
{
    const trace_span whole{"replay"};
    const auto rp = flow_params{}.rewrite;
    replay_record r;
    const auto net = parse(text);

    cut_sets cuts;
    {
        const trace_span span{"replay.enumerate_cuts"};
        cut_enumeration_stats stats;
        const auto t0 = steady::now();
        cuts = enumerate_cuts(
            net, {.cut_size = rp.cut_size, .cut_limit = rp.cut_limit}, &stats);
        r.enumerate_s = seconds_since(t0);
        r.cuts = stats.total_cuts;
    }

    std::vector<truth_table> functions;
    {
        const trace_span span{"replay.simulate_cuts"};
        cone_simulator sim;
        std::vector<cone_simulator::leaf_set> active;
        std::vector<uint64_t> words;
        for (const auto n : net.topological_order()) {
            if (!net.is_gate(n) || net.is_dead(n))
                continue;
            active.clear();
            for (const auto& c : cuts[n]) {
                if (c.num_leaves < 2 && c.leaves[0] == n)
                    continue; // trivial cut
                cone_simulator::leaf_set leaves;
                bool ok = true;
                for (const auto l : c.leaf_span()) {
                    const auto live = net.resolve(signal{l, false});
                    if (net.is_dead(live.node()) || live.node() == n) {
                        ok = false;
                        break;
                    }
                    if (live.node() != 0)
                        leaves.push_back(live.node());
                }
                if (!ok || leaves.empty())
                    continue;
                std::sort(leaves.begin(), leaves.end());
                leaves.erase(std::unique(leaves.begin(), leaves.end()),
                             leaves.end());
                active.push_back(std::move(leaves));
            }
            r.cuts_evaluated += active.size();
            for (size_t base = 0; base < active.size(); base += 64) {
                const auto chunk = std::min<size_t>(64, active.size() - base);
                const auto t0 = steady::now();
                const auto mask = sim.simulate_cuts(
                    net, n,
                    std::span<const cone_simulator::leaf_set>{
                        active.data() + base, chunk},
                    words);
                r.simulate_s += seconds_since(t0);
                for (size_t j = 0; j < chunk; ++j) {
                    if (((mask >> j) & 1) == 0)
                        continue;
                    const auto k =
                        static_cast<uint32_t>(active[base + j].size());
                    auto view = shrink_to_support(truth_table{k, words[j]});
                    if (view.support.size() >= 2)
                        functions.push_back(std::move(view.function));
                }
            }
        }
        r.traversals = sim.traversals();
        r.nodes_visited = sim.nodes_evaluated();
    }

    std::vector<truth_table> representatives;
    {
        const trace_span span{"replay.classify"};
        classification_cache cache{classification_params{
            .iteration_limit = rp.classification_iteration_limit,
            .word_parallel = rp.classification_word_parallel}};
        for (const auto& f : functions) {
            const auto t0 = steady::now();
            const auto& cls = cache.classify(f);
            r.classify_s += seconds_since(t0);
            if (cls.success)
                representatives.push_back(cls.representative);
        }
        r.classify_calls = functions.size();
        r.classify_hits = cache.hits();
    }

    {
        const trace_span span{"replay.lookup_or_build"};
        mc_database db{rp.db};
        for (const auto& rep : representatives) {
            const auto misses = db.misses();
            const auto t0 = steady::now();
            db.lookup_or_build(rep);
            const double dt = seconds_since(t0);
            if (db.misses() == misses)
                r.lookup_s += dt;
        }
        r.lookups = representatives.size();
    }
    return r;
}

// ---------------------------------------------------------------- JSON

void json_compile(FILE* f, const compile_record& r)
{
    std::fprintf(f,
                 "{\"compile_s\": %.9f, \"flow_ok\": %s, \"verified\": %s, "
                 "\"verify_method\": \"%s\", \"ands\": %u, \"xors\": %u, "
                 "\"and_depth\": %u, \"passes\": [",
                 r.compile_s, r.flow_ok ? "true" : "false",
                 r.verified ? "true" : "false", r.verify_method.c_str(),
                 r.ands, r.xors, r.depth);
    const auto& passes = r.result.passes;
    for (size_t i = 0; i < passes.size(); ++i) {
        const auto& p = passes[i];
        std::fprintf(
            f,
            "%s{\"name\": \"%s\", \"outcome\": \"%s\", "
            "\"xors_before\": %u, \"xors_after\": %u, \"db_exact\": %llu, "
            "\"db_heuristic\": %llu, \"xor_blocks\": %u, \"xor_pairs\": %u, "
            "\"rounds\": [",
            i == 0 ? "" : ", ", p.pass_name.c_str(), to_string(p.status),
            p.before.num_xors, p.after.num_xors,
            static_cast<unsigned long long>(p.db_exact),
            static_cast<unsigned long long>(p.db_heuristic), p.xor_blocks,
            p.xor_pairs_extracted);
        for (size_t j = 0; j < p.rounds.size(); ++j) {
            const auto& s = p.rounds[j];
            std::fprintf(
                f,
                "%s{\"cuts_evaluated\": %llu, \"candidates_built\": %llu, "
                "\"replacements\": %llu, \"nodes_evaluated\": %llu, "
                "\"nodes_clean\": %llu, \"nodes_reenumerated\": %llu, "
                "\"canon_hits\": %llu, \"canon_misses\": %llu, "
                "\"db_hits\": %llu, \"db_misses\": %llu}",
                j == 0 ? "" : ", ",
                static_cast<unsigned long long>(s.cuts_evaluated),
                static_cast<unsigned long long>(s.candidates_built),
                static_cast<unsigned long long>(s.replacements),
                static_cast<unsigned long long>(s.nodes_evaluated),
                static_cast<unsigned long long>(s.nodes_clean),
                static_cast<unsigned long long>(
                    s.cut_stats.reenumerated_nodes),
                static_cast<unsigned long long>(s.canon_cache_hits),
                static_cast<unsigned long long>(s.canon_cache_misses),
                static_cast<unsigned long long>(s.db_hits),
                static_cast<unsigned long long>(s.db_misses));
        }
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "]}");
}

void json_replay(FILE* f, const replay_record& r)
{
    std::fprintf(
        f,
        "{\"cuts\": %llu, \"enumerate_s\": %.9f, \"cuts_evaluated\": %llu, "
        "\"traversals\": %llu, \"nodes_visited\": %llu, \"simulate_s\": %.9f, "
        "\"classify_calls\": %llu, \"classify_hits\": %llu, "
        "\"classify_s\": %.9f, \"lookups\": %llu, \"lookup_s\": %.9f}",
        static_cast<unsigned long long>(r.cuts), r.enumerate_s,
        static_cast<unsigned long long>(r.cuts_evaluated),
        static_cast<unsigned long long>(r.traversals),
        static_cast<unsigned long long>(r.nodes_visited), r.simulate_s,
        static_cast<unsigned long long>(r.classify_calls),
        static_cast<unsigned long long>(r.classify_hits), r.classify_s,
        static_cast<unsigned long long>(r.lookups), r.lookup_s);
}

/// Registry counter deltas between two snapshots (counters only grow).
std::map<std::string, uint64_t>
counter_delta(const std::vector<obs::metric_value>& before,
              const std::vector<obs::metric_value>& after)
{
    std::map<std::string, uint64_t> delta;
    for (const auto& m : after)
        delta[m.name] = m.value;
    for (const auto& m : before)
        delta[m.name] -= m.value;
    return delta;
}

int run_gen(int argc, char** argv)
{
    if (argc != 4) {
        std::fprintf(stderr, "usage: %s gen <spec> <out.txt>\n", argv[0]);
        return 2;
    }
    const auto net = make_circuit(argv[2]);
    std::ostringstream os;
    write_bristol(net, os);
    write_text(argv[3], os.str());
    return 0;
}

int run_compile(int argc, char** argv)
{
    compile_options opt;
    std::string trace_path;
    std::vector<std::string> files;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument{arg + " needs a value"};
            return argv[++i];
        };
        if (arg == "--threads")
            opt.threads = to_u32(value());
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--trace")
            trace_path = value();
        else
            files.push_back(arg);
    }
    if (files.empty() || files.size() % 2 != 0)
        throw std::invalid_argument{"compile needs <in> <out> pairs"};

    std::vector<std::string> inputs;
    for (size_t i = 0; i < files.size(); i += 2)
        inputs.push_back(read_text(files[i]));

    std::printf("{\"host\": {\"hardware_concurrency\": %u, \"compiler\": "
                "\"%s\", \"build_type\": \"%s\"}, \"threads\": %u, "
                "\"circuits\": [",
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE, opt.threads);

    // Set-up samples all come before the first compile, so every sample
    // sees the same fresh heap.
    std::vector<std::vector<double>> setups(inputs.size());
    if (trace_path.empty())
        for (uint32_t k = 0; k < setup_reps; ++k)
            for (size_t c = 0; c < inputs.size(); ++c)
                setups[c].push_back(setup_once(inputs[c], opt));

    for (size_t c = 0; c < inputs.size(); ++c) {
        std::printf("%s{\"untraced\": ", c == 0 ? "" : ", ");
        const auto plain = compile_once(inputs[c], opt);
        write_text(files[2 * c + 1], plain.output);
        json_compile(stdout, plain);

        if (!trace_path.empty()) {
            obs::trace::enable(1u << 19);
            const auto rep = replay(inputs[c]);
            const auto before = obs::metrics_snapshot();
            const auto traced = compile_once(inputs[c], opt);
            const auto counters =
                counter_delta(before, obs::metrics_snapshot());
            obs::trace::disable();
            std::printf(", \"replay\": ");
            json_replay(stdout, rep);
            std::printf(", \"traced\": ");
            json_compile(stdout, traced);
            std::printf(", \"traced_output_identical\": %s, \"counters\": {",
                        traced.output == plain.output ? "true" : "false");
            bool first = true;
            for (const auto& [name, value] : counters) {
                std::printf("%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                            static_cast<unsigned long long>(value));
                first = false;
            }
            std::printf("}");
        }
        std::printf("}");
        std::fflush(stdout);
    }
    std::printf("], \"setup_samples\": [");
    for (size_t c = 0; c < setups.size(); ++c) {
        std::printf("%s[", c == 0 ? "" : ", ");
        for (size_t k = 0; k < setups[c].size(); ++k)
            std::printf("%s%.9f", k == 0 ? "" : ", ", setups[c][k]);
        std::printf("]");
    }
    std::printf("]");

    if (!trace_path.empty()) {
        std::ofstream os{trace_path};
        obs::trace::write_chrome_trace(os, obs::trace::collect());
        if (!os)
            throw std::runtime_error{"cannot write " + trace_path};
        std::printf(", \"trace_events_dropped\": %llu",
                    static_cast<unsigned long long>(obs::trace::dropped()));
    }
    std::printf(", \"peak_rss_bytes\": %llu}\n",
                static_cast<unsigned long long>(
                    obs::read_process_stats().peak_rss_bytes));
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        if (argc >= 2 && std::strcmp(argv[1], "gen") == 0)
            return run_gen(argc, argv);
        if (argc >= 2 && std::strcmp(argv[1], "compile") == 0)
            return run_compile(argc, argv);
        std::fprintf(stderr, "usage: %s gen|compile ...\n", argv[0]);
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
