#include "core/pass.h"

#include "core/mffc.h"
#include "core/xor_resynthesis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tt/operations.h"
#include "xag/cleanup.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <utility>

namespace mcx {

// ------------------------------------------------------- context accessors

mc_database& pass_context::mc_db()
{
    if (external_mc_db_)
        return *external_mc_db_;
    if (!mc_db_)
        mc_db_ = std::make_unique<mc_database>(params_.mc_db);
    return *mc_db_;
}

size_database& pass_context::size_db()
{
    if (external_size_db_)
        return *external_size_db_;
    if (!size_db_)
        size_db_ = std::make_unique<size_database>(params_.size_db);
    return *size_db_;
}

classification_cache& pass_context::classification()
{
    if (external_cls_)
        return *external_cls_;
    if (!cls_cache_)
        cls_cache_ = std::make_unique<classification_cache>(
            classification_params{
                .iteration_limit = params_.classification_iteration_limit,
                .word_parallel = params_.classification_word_parallel});
    return *cls_cache_;
}

npn_cache& pass_context::npn()
{
    if (external_npn_)
        return *external_npn_;
    if (!npn_cache_)
        npn_cache_ = std::make_unique<npn_cache>();
    return *npn_cache_;
}

thread_pool& pass_context::pool(uint32_t num_threads)
{
    if (num_threads == 0)
        num_threads = 1;
    if (!pool_ || pool_->num_workers() != num_threads)
        pool_ = std::make_unique<thread_pool>(num_threads);
    return *pool_;
}

pass_scratch& pass_context::scratch(uint32_t worker)
{
    while (scratch_.size() <= worker)
        scratch_.push_back(std::make_unique<pass_scratch>(
            classification_params{
                .iteration_limit = params_.classification_iteration_limit,
                .word_parallel = params_.classification_word_parallel}));
    return *scratch_[worker];
}

namespace {

/// Splice the representative circuit into `dst`, mirroring
/// affine_transform::apply: input i of the representative reads the parity
/// of the leaves selected by column i of M^T plus c_i; the output adds the
/// v-masked leaf parity and the optional complement.  Only XOR gates and
/// inverters are created around the representative — AND count is exactly
/// the database entry's (modulo structural hashing savings).
signal splice_affine(xag& dst, const affine_transform& t,
                     std::span<const signal> leaves, const xag& repr_circuit)
{
    std::vector<signal> repr_inputs(t.num_vars);
    for (uint32_t i = 0; i < t.num_vars; ++i) {
        auto acc = dst.get_constant(((t.c >> i) & 1) != 0);
        for (uint32_t k = 0; k < t.num_vars; ++k)
            if ((t.mt_column(k) >> i) & 1)
                acc = dst.create_xor(acc, leaves[k]);
        repr_inputs[i] = acc;
    }
    auto out = insert_network(dst, repr_circuit, repr_inputs)[0];
    for (uint32_t k = 0; k < t.num_vars; ++k)
        if ((t.v >> k) & 1)
            out = dst.create_xor(out, leaves[k]);
    return out ^ t.output_complement;
}

/// Splice for the NPN baseline: permutation, input and output complements
/// are all free on XAG edges.
signal splice_npn(xag& dst, const npn_transform& t,
                  std::span<const signal> leaves, const xag& repr_circuit)
{
    std::vector<signal> repr_inputs(t.num_vars);
    for (uint32_t i = 0; i < t.num_vars; ++i)
        repr_inputs[i] =
            leaves[t.perm[i]] ^ (((t.input_negation >> i) & 1) != 0);
    const auto out = insert_network(dst, repr_circuit, repr_inputs)[0];
    return out ^ t.output_negation;
}

/// Candidate verification: one epoch-stamped traversal computes the
/// candidate's function word and checks that the cone stays inside
/// `leaves` and does not contain `forbidden` (the rewrite root).
bool verify_candidate(const xag& net, cone_simulator& sim, signal candidate,
                      std::span<const uint32_t> leaves,
                      const truth_table& expected, uint32_t forbidden)
{
    const auto word =
        sim.cone_word(net, candidate.node(), leaves, forbidden);
    if (!word)
        return false;
    const auto k = static_cast<uint32_t>(leaves.size());
    const auto tt = truth_table{k, *word};
    return (candidate.complemented() ? ~tt : tt) == expected;
}

/// Direct replacements for cuts whose (support-shrunk) function collapsed
/// to a constant or a single leaf (no database needed).  `f` is the
/// shrunk function, `leaf_sigs` its support leaves.
std::optional<signal> trivial_replacement(xag& net, const truth_table& f,
                                          std::span<const signal> leaf_sigs)
{
    if (leaf_sigs.empty())
        return net.get_constant(f.get_bit(0));
    if (leaf_sigs.size() == 1) {
        const auto x = truth_table::projection(1, 0);
        return leaf_sigs[0] ^ (f == ~x);
    }
    return std::nullopt;
}

/// Phases 1-2 of a node visit, shared verbatim by both engines (the
/// determinism story depends on them scoring identical cuts): resolve the
/// node's enumerated cuts to live, sorted, deduplicated leaf sets, then
/// evaluate every cut function in batched union-cone traversals.  Returns
/// the number of active cuts; leaf sets are in pool[0..count), function
/// words in `words`, per-cut validity in `valid`.  `cuts_evaluated` is
/// bumped once per resolved cut.
size_t resolve_and_simulate(const xag& net, std::span<const cut> node_cuts,
                            uint32_t n, cone_simulator& sim,
                            std::vector<cone_simulator::leaf_set>& pool,
                            std::vector<uint64_t>& words,
                            std::vector<uint64_t>& chunk_words,
                            std::vector<uint8_t>& valid,
                            uint64_t& cuts_evaluated)
{
    // Leaves replaced earlier (by this round's commits in the sequential
    // engine, by earlier rounds otherwise) are followed to their live
    // equivalents; `pool` is an index-reused scratch: slots keep their
    // capacity across nodes.
    size_t count = 0;
    for (const auto& c : node_cuts) {
        if (c.num_leaves < 2 && c.leaves[0] == n)
            continue; // trivial cut
        if (pool.size() == count)
            pool.emplace_back();
        auto& cut_leaves = pool[count];
        cut_leaves.clear();
        bool leaves_ok = true;
        for (const auto l : c.leaf_span()) {
            const auto live = net.resolve(signal{l, false});
            if (net.is_dead(live.node()) || live.node() == n) {
                leaves_ok = false;
                break;
            }
            if (live.node() != 0)
                cut_leaves.push_back(live.node());
        }
        if (!leaves_ok || cut_leaves.empty())
            continue;
        std::sort(cut_leaves.begin(), cut_leaves.end());
        cut_leaves.erase(std::unique(cut_leaves.begin(), cut_leaves.end()),
                         cut_leaves.end());
        ++cuts_evaluated;
        ++count;
    }
    if (count == 0)
        return 0;
    const std::span<const cone_simulator::leaf_set> active{pool.data(),
                                                           count};

    words.assign(count, 0);
    valid.assign(count, 0);
    // Chunked so arbitrarily large per-node cut counts work (the simulator
    // evaluates up to 64 lanes per call).
    for (size_t base = 0; base < count; base += 64) {
        const auto chunk = std::min<size_t>(64, count - base);
        const auto mask = sim.simulate_cuts(
            net, n, active.subspan(base, chunk), chunk_words);
        for (size_t j = 0; j < chunk; ++j) {
            words[base + j] = chunk_words[j];
            valid[base + j] = static_cast<uint8_t>((mask >> j) & 1);
        }
    }
    return count;
}

/// A built, verified, scored candidate.  It holds one network reference —
/// the caller either substitutes it or releases it.
struct scored_candidate {
    signal sig{};
    int64_t gain = 0;
};

/// Commit-side kernel shared by both engines (the determinism story
/// depends on them applying the identical protocol): build the candidate
/// for a support-shrunk function — trivially, or through `make` — measure
/// the actual created cost, verify function and containment against the
/// current network, and score the DAG-aware gain (MFFC savings over the
/// full cut, computed while the candidate's references pin any shared
/// nodes, minus the created cost).  Returns nullopt with every temporary
/// reference released when the build fails or verification rejects.
template <typename Strategy, typename Make>
std::optional<scored_candidate> build_scored_candidate(
    xag& net, cone_simulator& sim, mffc_workspace& mffc, Strategy& strat,
    Make&& make, const truth_table& f, std::span<const signal> leaf_sigs,
    std::span<const uint32_t> support_nodes,
    std::span<const uint32_t> mffc_leaves, uint32_t n,
    uint64_t* candidates_built)
{
    const auto cost_before = strat.created_cost();
    std::optional<signal> candidate = trivial_replacement(net, f, leaf_sigs);
    if (!candidate) {
        candidate = make(f, leaf_sigs);
        if (!candidate)
            return std::nullopt;
    }
    const auto created = strat.created_cost() - cost_before;
    if (candidates_built)
        ++*candidates_built;
    net.take_ref(*candidate);
    if (!verify_candidate(net, sim, *candidate, support_nodes, f, n)) {
        net.release_ref(net.resolve(*candidate));
        return std::nullopt;
    }
    const int64_t saved = strat.mffc_cost(n, mffc_leaves, mffc);
    return scored_candidate{*candidate,
                            saved - static_cast<int64_t>(created)};
}

/// Incremental-evaluate and commit-verification wiring for one round,
/// derived by generic_round from the maintainer/cache coherence handshake.
/// `cache == nullptr` disables caching entirely; `cache_valid` says the
/// surviving entries may be consulted this round (`dirty` is then the
/// maintainer's cut-cone test against everything that changed since they
/// were written, src/cut/cut_incremental.h).  `verifier`, when set,
/// SAT-checks every replacement cone against its pre-image before the
/// substitute commits.
struct round_env {
    evaluate_cache* cache = nullptr;
    bool cache_valid = false;
    std::span<const uint8_t> dirty;
    sat::cone_verifier* verifier = nullptr;
};

/// The ONE rewrite loop shared by the proposed method and the size
/// baseline.  `Strategy` supplies the candidate builder and the cost model
/// (see mc_strategy / size_strategy below); everything else — leaf
/// resolution, batched cut-function evaluation, verification, MFFC-gated
/// commit — is common.
template <typename Strategy>
void run_rewrite_loop(xag& net, pass_context& ctx, round_stats& stats,
                      bool allow_zero_gain, Strategy& strat,
                      const round_env& env)
{
    const obs::trace::trace_span loop_span{"phase.rewrite-loop"};
    const auto& cuts = ctx.cuts();
    auto& sim = ctx.simulator();
    auto& mffc = ctx.mffc();

    std::vector<cone_simulator::leaf_set> resolved; // leaf sets, per cut
    std::vector<uint64_t> words;                    // cut function words
    std::vector<uint64_t> chunk_words;
    std::vector<uint8_t> valid;                     // per-cut validity
    std::vector<signal> leaf_sigs;
    std::vector<uint32_t> leaf_nodes;
    std::vector<uint32_t> best_leaves; // winning cut's full leaf set

    // The cacheable outcome of a sequential visit is one bit — "found no
    // improvement" — because improvements commit immediately and kill the
    // node (evaluate_cache::no_improvement).
    auto* cache = env.cache;
    if (cache != nullptr && cache->no_improvement.size() < net.size())
        cache->no_improvement.resize(net.size(), 0);

    // Within-round context overlay.  The maintainer's dirty set is frozen
    // at refresh time and cannot see this round's own commits, but this
    // engine evaluates against the live network — so a node is only
    // skipped when additionally nothing committed *this round* reaches
    // its cone.  After every visit the journal suffix is consumed under
    // the maintainer's seed rule (live journaled node plus fanins; stored
    // fanins of pre-existing nodes that died; nothing for nodes spliced
    // and released inside the round — net-zero on every neighbour) and
    // each seed's transitive fanout is marked through the explicit fanout
    // lists.  A disarmed or overflowed journal degrades the overlay to
    // all-dirty: skips stop, correctness keeps (docs/hot-path.md, "The
    // evaluate dirty-set contract").
    const uint32_t round_start_size = static_cast<uint32_t>(net.size());
    bool overlay_all =
        cache == nullptr || !net.changes().armed || net.changes().overflowed;
    std::vector<uint8_t> ctx_dirty;
    if (!overlay_all)
        ctx_dirty.assign(net.size(), 0);
    size_t journal_consumed = overlay_all ? 0 : net.changes().nodes.size();
    std::vector<uint32_t> tfo_stack;
    const auto seed_tfo = [&](uint32_t x) {
        if (x >= ctx_dirty.size() || ctx_dirty[x] != 0)
            return;
        ctx_dirty[x] = 1;
        tfo_stack.push_back(x);
        while (!tfo_stack.empty()) {
            const auto cur = tfo_stack.back();
            tfo_stack.pop_back();
            for (const auto parent : net.fanouts(cur))
                if (parent < ctx_dirty.size() && ctx_dirty[parent] == 0) {
                    ctx_dirty[parent] = 1;
                    tfo_stack.push_back(parent);
                }
        }
    };

    for (const auto n : net.topological_order()) {
        // Per-node visit = this engine's commit boundary: every earlier
        // substitute() is complete and function-preserving, so stopping
        // here leaves a consistent, equivalent network.
        if (ctx.token.stop_requested()) {
            stats.status = ctx.token.stop_reason();
            if (stats.status == outcome::ok)
                stats.status = outcome::cancelled;
            break;
        }
        if (!net.is_gate(n) || net.is_dead(n))
            continue;

        // ---- skip rule: the previous visit found no improvement, and
        // neither the refresh-level dirty set nor the within-round overlay
        // has reached n's cone since.  Skipped visits have no side effects
        // (candidate splicing is net-zero on refs, strash and fanouts), so
        // the resulting network is structurally identical to the oracle's.
        if (env.cache_valid && !overlay_all && n < env.dirty.size() &&
            env.dirty[n] == 0 && ctx_dirty[n] == 0 &&
            cache->no_improvement[n] != 0) {
            ++stats.nodes_clean;
            continue;
        }
        ++stats.nodes_evaluated;

        // ---- phases 1-2: resolve leaves, evaluate all cut functions -----
        // No candidate has been spliced yet for this node, so every
        // existing cone node keeps its value throughout phase 3: computing
        // the functions up front is exactly equivalent to the per-cut
        // re-simulation it replaces.
        const auto num_resolved = resolve_and_simulate(
            net, cuts[n], n, sim, resolved, words, chunk_words, valid,
            stats.cuts_evaluated);
        if (num_resolved == 0) {
            if (cache != nullptr)
                cache->no_improvement[n] = 1;
            continue;
        }
        const std::span<const cone_simulator::leaf_set> active{
            resolved.data(), num_resolved};

        // ---- phase 3: candidate construction and MFFC-gated commit ------
        signal best{};
        int64_t best_gain = allow_zero_gain ? -1 : 0;
        bool have_best = false;

        for (size_t i = 0; i < active.size(); ++i) {
            if (!valid[i])
                continue;
            const auto& cut_leaves = active[i];
            const auto k = static_cast<uint32_t>(cut_leaves.size());
            const truth_table tt{k, words[i]};
            const auto view = shrink_to_support(tt);

            // Every non-trivial cut is classified and looked up, pruned or
            // not: round 1's classification and database counts are what
            // perfbench's replay reproduces layer by layer (ROADMAP item
            // 1 moves the bound ahead of the lookup together with the
            // replay).  The two-phase engine prunes first.
            std::optional<typename Strategy::match> match;
            if (view.support.size() >= 2 &&
                !(match = strat.lookup(view.function)))
                continue;

            // MFFC bound: a candidate's gain is its pinned MFFC (never
            // larger than this one) minus a created cost >= 0, and only a
            // strictly larger gain wins — so this cut cannot win, and the
            // build it skips would have been released net-zero.
            if (strat.mffc_cost(n, cut_leaves, mffc) <= best_gain) {
                ++stats.cuts_pruned;
                continue;
            }

            leaf_sigs.clear();
            leaf_nodes.clear();
            for (const auto idx : view.support) {
                leaf_nodes.push_back(cut_leaves[idx]);
                leaf_sigs.push_back(signal{cut_leaves[idx], false});
            }

            const auto scored = build_scored_candidate(
                net, sim, mffc, strat,
                [&](const truth_table&, std::span<const signal> ls) {
                    return strat.splice(*match, ls);
                },
                view.function, leaf_sigs, leaf_nodes, cut_leaves, n,
                &stats.candidates_built);
            if (!scored)
                continue;

            const bool structurally_new = scored->sig.node() != n;
            if (structurally_new && scored->gain > best_gain) {
                if (have_best)
                    net.release_ref(net.resolve(best));
                best = scored->sig;
                best_gain = scored->gain;
                have_best = true;
                best_leaves.assign(cut_leaves.begin(), cut_leaves.end());
            } else {
                net.release_ref(net.resolve(scored->sig));
            }
        }

        bool rejected = false;
        if (have_best && env.verifier != nullptr &&
            env.verifier->verify(net, n, best, best_leaves, 0, ctx.token) ==
                sat::equivalence_result::not_equivalent) {
            // The simulation proof and the SAT proof disagree: keep the
            // network untouched, and leave the node uncached so it is
            // re-examined next round.
            net.release_ref(net.resolve(best));
            have_best = false;
            rejected = true;
        }
        if (have_best) {
            net.substitute(n, best);
            net.release_ref(net.resolve(best));
            ++stats.replacements;
        } else if (cache != nullptr && !rejected) {
            cache->no_improvement[n] = 1;
        }

        // ---- consume the journal suffix this visit appended.
        if (!overlay_all) {
            if (!net.changes().armed || net.changes().overflowed) {
                overlay_all = true;
            } else {
                const auto& journal = net.changes().nodes;
                if (journal.size() > journal_consumed) {
                    if (ctx_dirty.size() < net.size())
                        ctx_dirty.resize(net.size(), 0);
                    for (size_t j = journal_consumed; j < journal.size();
                         ++j) {
                        const auto id = journal[j];
                        if (!net.is_dead(id)) {
                            seed_tfo(id);
                            if (net.is_gate(id)) {
                                seed_tfo(net.fanin0(id).node());
                                seed_tfo(net.fanin1(id).node());
                            }
                        } else if (id < round_start_size &&
                                   net.is_gate(id)) {
                            seed_tfo(net.fanin0(id).node());
                            seed_tfo(net.fanin1(id).node());
                        }
                        // else: spliced and released inside the round.
                    }
                    journal_consumed = journal.size();
                }
            }
        }
    }
}

// ------------------------------------------------ two-phase parallel round
//
// The deterministic engine behind `num_threads >= 1` (docs/parallel.md):
//
//  * EVALUATE (parallel): every gate node is scored independently against
//    the network as it stands at round start — resolve its cuts, batch-
//    simulate their functions on the worker's own cone_simulator, classify
//    through the worker's cache shard, look the class up in the (striped,
//    once-per-class) database, and record the best candidate by estimated
//    gain (MFFC savings minus the database entry's cost).  Nothing touches
//    the network, so the per-node result is a pure function of (network,
//    cut sets, node) and the winner array is identical for any thread
//    count and any work-stealing schedule.
//
//  * COMMIT (sequential, ascending node order): re-validate each winner
//    against the network as modified by the commits before it — the node
//    and every cut leaf must still be live and unmoved — then build the
//    real candidate, verify its function and containment, and commit when
//    the exact gain (actual created cost, current MFFC) clears the
//    threshold.  Winners invalidated by an earlier commit are simply
//    dropped; the next round re-enumerates and re-scores them (the
//    "deferred to the next round" half of the contract).
//
// Unlike the in-place loop, the evaluate phase never sees this round's own
// rewrites, so per-round replacement counts differ between the engines —
// but both converge, and the parallel engine's output depends only on the
// input network and the parameters, never on the thread count.

// (eval_winner lives in pass.h now: it doubles as the evaluate cache's
// payload for the incremental-evaluate path.)

template <typename Strategy>
void evaluate_node(const xag& net, const cut_sets& cuts, Strategy& strat,
                   pass_scratch& sc, bool allow_zero_gain, uint32_t n,
                   eval_winner& winner)
{
    // ---- phases 1-2, shared with the in-place loop (resolution is a
    // formality here — the network is frozen during the phase — but the
    // filtering must stay identical so both engines score the same cuts).
    const auto num_resolved = resolve_and_simulate(
        net, cuts[n], n, sc.simulator, sc.resolved, sc.words, sc.chunk_words,
        sc.valid, sc.cuts_evaluated);
    if (num_resolved == 0)
        return;
    const std::span<const cone_simulator::leaf_set> active{
        sc.resolved.data(), num_resolved};

    // ---- score: estimated gain = MFFC savings - database entry cost.
    // The MFFC comes first: the cost is >= 0, so a cut whose MFFC cannot
    // beat the best gain so far is dropped before any classification or
    // database lookup (a database miss is an exact SAT synthesis).
    int64_t best_gain = allow_zero_gain ? -1 : 0;
    for (size_t i = 0; i < active.size(); ++i) {
        if (!sc.valid[i])
            continue;
        const auto& cut_leaves = active[i];
        const int64_t saved = strat.mffc_cost(n, cut_leaves, sc.mffc);
        if (saved <= best_gain) {
            ++sc.cuts_pruned;
            continue;
        }
        const auto k = static_cast<uint32_t>(cut_leaves.size());
        const truth_table tt{k, sc.words[i]};
        const auto view = shrink_to_support(tt);

        uint64_t created = 0;
        if (view.support.size() >= 2) {
            bool ok = false;
            created = strat.estimated_cost(view.function, sc, ok);
            if (!ok)
                continue;
        }
        ++sc.candidates_built;
        const int64_t gain = saved - static_cast<int64_t>(created);
        if (gain <= best_gain)
            continue;
        best_gain = gain;
        winner.node = n;
        winner.function = view.function;
        winner.num_cut_leaves = static_cast<uint8_t>(cut_leaves.size());
        std::copy(cut_leaves.begin(), cut_leaves.end(),
                  winner.cut_leaves.begin());
        winner.num_support = static_cast<uint8_t>(view.support.size());
        for (size_t s = 0; s < view.support.size(); ++s)
            winner.support[s] = static_cast<uint8_t>(view.support[s]);
        winner.valid = true;
    }
}

template <typename Strategy>
void run_two_phase_round(xag& net, pass_context& ctx, round_stats& stats,
                         bool allow_zero_gain, uint32_t num_threads,
                         Strategy& strat, const round_env& env)
{
    // Gate nodes in topological order: the evaluate phase's index space
    // and the commit phase's application order.
    std::vector<uint32_t> nodes;
    for (const auto n : net.topological_order())
        if (net.is_gate(n) && !net.is_dead(n))
            nodes.push_back(n);

    auto& pool = ctx.pool(num_threads);
    const auto workers = pool.num_workers();
    uint64_t shard_hits0 = 0, shard_misses0 = 0;
    uint64_t traversals0 = 0, visited0 = 0;
    for (uint32_t w = 0; w < workers; ++w) {
        auto& sc = ctx.scratch(w); // created before the team needs it
        sc.cuts_evaluated = 0;
        sc.classify_failures = 0;
        sc.candidates_built = 0;
        sc.cuts_pruned = 0;
        const auto [h, m] = strat.scratch_traffic(sc);
        shard_hits0 += h;
        shard_misses0 += m;
        traversals0 += sc.simulator.traversals();
        visited0 += sc.simulator.nodes_evaluated();
    }

    // ---- phase 1: parallel evaluate over the frozen network — but only
    // for nodes the maintainer's dirty set reaches.  A winner is a pure
    // function of (network, cut sets, node), so a clean node's cached
    // winner from an earlier round is byte-equal to what re-evaluating it
    // would produce, at any thread count.
    auto* cache = env.cache;
    std::vector<eval_winner> winners(nodes.size());
    std::vector<uint32_t> fresh; // indices into `nodes` needing evaluation
    fresh.reserve(nodes.size());
    {
        obs::trace::trace_span eval_span{"phase.evaluate"};
        for (size_t idx = 0; idx < nodes.size(); ++idx) {
            const auto n = nodes[idx];
            if (env.cache_valid && n < env.dirty.size() &&
                env.dirty[n] == 0 && n < cache->has_entry.size() &&
                cache->has_entry[n] != 0) {
                winners[idx] = cache->winners[n];
                ++stats.nodes_clean;
            } else {
                fresh.push_back(static_cast<uint32_t>(idx));
            }
        }
        stats.nodes_evaluated += fresh.size();
        eval_span.set_arg(fresh.size());

        const auto& cuts = ctx.cuts();
        const auto& token = ctx.token;
        pool.parallel_for(0, fresh.size(), [&](size_t i, uint32_t worker) {
            if (token.stop_possible() && token.stop_requested())
                return; // leave the winner invalid; the round is discarded
            const auto idx = fresh[i];
            evaluate_node(net, cuts, strat, ctx.scratch(worker),
                          allow_zero_gain, nodes[idx], winners[idx]);
            winners[idx].worker = worker;
        });
    }
    const auto& token = ctx.token;

    for (uint32_t w = 0; w < workers; ++w) {
        auto& sc = ctx.scratch(w);
        stats.cuts_evaluated += sc.cuts_evaluated;
        stats.classify_failures += sc.classify_failures;
        stats.candidates_built += sc.candidates_built;
        stats.cuts_pruned += sc.cuts_pruned;
        stats.cone_traversals += sc.simulator.traversals();
        stats.cone_nodes_visited += sc.simulator.nodes_evaluated();
    }
    stats.cone_traversals -= traversals0;
    stats.cone_nodes_visited -= visited0;

    // A stop during evaluate discards the whole round before anything is
    // committed: a partially-scored winner array would make the committed
    // prefix depend on timing, and the network has not been touched yet —
    // dropping the round keeps uninterrupted runs bit-identical and the
    // interrupted one consistent.  The cache is poisoned by the same
    // partial scoring, so it resets too.
    if (token.stop_requested()) {
        if (cache != nullptr)
            cache->reset();
        stats.status = token.stop_reason();
        if (stats.status == outcome::ok)
            stats.status = outcome::cancelled;
        return;
    }

    // Store the freshly scored winners back by node id; the cache now
    // reflects the refresh this round started from (generic_round stamps
    // the serial after the engine returns).
    if (cache != nullptr) {
        if (cache->winners.size() < net.size()) {
            cache->winners.resize(net.size());
            cache->has_entry.resize(net.size(), 0);
        }
        for (const auto idx : fresh) {
            cache->winners[nodes[idx]] = winners[idx];
            cache->has_entry[nodes[idx]] = 1;
        }
    }

    // ---- phase 2: sequential commit in node order.
    const obs::trace::trace_span commit_span{"phase.commit"};
    auto& sim = ctx.simulator();
    std::vector<signal> leaf_sigs;
    std::vector<uint32_t> support_nodes;
    std::vector<uint32_t> full_leaves;
    for (const auto& w : winners) {
        // Between winners every commit is complete; stopping here keeps
        // the applied prefix (already equivalence-preserving) and drops
        // the rest.
        if (token.stop_possible() && token.stop_requested()) {
            stats.status = token.stop_reason();
            if (stats.status == outcome::ok)
                stats.status = outcome::cancelled;
            break;
        }
        if (!w.valid)
            continue;
        const auto n = w.node;
        if (net.is_dead(n))
            continue; // consumed by an earlier commit — next round's problem

        // Every leaf of the scored cut must still be exactly the node the
        // evaluation saw; a leaf merged or freed by an earlier commit
        // invalidates both the function and the MFFC bound.
        bool leaves_ok = true;
        full_leaves.clear();
        for (uint8_t k = 0; k < w.num_cut_leaves; ++k) {
            const auto l = w.cut_leaves[k];
            if (net.is_dead(l) ||
                net.resolve(signal{l, false}) != signal{l, false}) {
                leaves_ok = false;
                break;
            }
            full_leaves.push_back(l);
        }
        if (!leaves_ok)
            continue;
        leaf_sigs.clear();
        support_nodes.clear();
        for (uint8_t s = 0; s < w.num_support; ++s) {
            const auto l = w.cut_leaves[w.support[s]];
            support_nodes.push_back(l);
            leaf_sigs.push_back(signal{l, false});
        }

        // Exact gain against the *current* network: actual created cost
        // (structural hashing may have shared most of the candidate) and
        // the MFFC as it stands after the commits above.  Classification
        // goes through the scoring worker's shard, where it is a warm hit.
        auto& shard = ctx.scratch(w.worker);
        const auto scored = build_scored_candidate(
            net, sim, ctx.mffc(), strat,
            [&](const truth_table& f, std::span<const signal> ls) {
                return strat.make_candidate_cached(f, ls, shard);
            },
            w.function, leaf_sigs, support_nodes, full_leaves, n, nullptr);
        if (!scored)
            continue;
        bool commit = scored->sig.node() != n &&
                      scored->gain > (allow_zero_gain ? -1 : 0);
        if (commit && env.verifier != nullptr &&
            env.verifier->verify(net, n, scored->sig, full_leaves, 0,
                                 token) ==
                sat::equivalence_result::not_equivalent)
            commit = false; // simulation and SAT disagree: keep the node
        if (commit) {
            net.substitute(n, scored->sig);
            net.release_ref(net.resolve(scored->sig));
            ++stats.replacements;
        } else {
            net.release_ref(net.resolve(scored->sig));
        }
    }

    // Shard-cache traffic for this round's stats, including the commit
    // phase's (warm) lookups.
    uint64_t shard_hits1 = 0, shard_misses1 = 0;
    for (uint32_t w = 0; w < workers; ++w) {
        const auto [h, m] = strat.scratch_traffic(ctx.scratch(w));
        shard_hits1 += h;
        shard_misses1 += m;
    }
    stats.canon_cache_hits += shard_hits1 - shard_hits0;
    stats.canon_cache_misses += shard_misses1 - shard_misses0;
}

/// Round boilerplate shared by both rewrite flavors: network shape and
/// cache-traffic deltas, stage timing, cut refresh into the context's
/// arena (incremental across rounds by default — only the previous
/// round's dirty region is re-enumerated, level-parallel on the worker
/// pool when the two-phase engine is active), then the shared loop above.
/// `make_strategy(stats)` builds the flavor's strategy bound to this
/// round's stats object.
template <typename StrategyFactory>
round_stats generic_round(xag& network, pass_context& ctx, uint32_t cut_size,
                          uint32_t cut_limit, bool allow_zero_gain,
                          uint32_t num_threads, bool incremental_cuts,
                          bool incremental_evaluate,
                          bool sat_verify, StrategyFactory&& make_strategy)
{
    const auto start = std::chrono::steady_clock::now();
    obs::trace::trace_span round_span{"round"};
    round_stats stats;
    auto strat = make_strategy(stats);
    using strategy_type = std::remove_reference_t<decltype(strat)>;
    stats.ands_before = network.num_ands();
    stats.xors_before = network.num_xors();
    const auto [cache_hits0, cache_misses0] = strat.cache_traffic();
    const auto [db_hits0, db_misses0] = strat.db_traffic();
    // The context's simulator serves the sequential loop and every
    // candidate check; the two-phase engine adds its workers' own.
    const auto& sim = ctx.simulator();
    const auto traversals0 = sim.traversals();
    const auto visited0 = sim.nodes_evaluated();
    uint64_t verify_checks0 = 0, verify_conflicts0 = 0, verify_warm0 = 0;
    if (sat_verify) {
        const auto& v = ctx.commit_verifier();
        verify_checks0 = v.checks();
        verify_conflicts0 = v.conflicts();
        verify_warm0 = v.warm_starts();
    }

    // Exceptions from the layers below — cancelled_error unwinding out of
    // a cut sweep or a database build, an injected or organic fault from a
    // worker task — are converted to a typed round status right here, the
    // round boundary.  In every case the network itself is consistent:
    // substitutions are atomic and function-preserving, and the cut
    // maintainer invalidates itself when a sweep dies half-way (the next
    // round simply pays for a full rebuild).
    auto cuts_done = start;
    try {
        auto& maint = ctx.cut_maintenance();
        {
            const obs::trace::trace_span refresh_span{"phase.cut-refresh"};
            maint.refresh(
                network, ctx.cuts(),
                {.cut_size = cut_size, .cut_limit = cut_limit,
                 .incremental = incremental_cuts},
                &stats.cut_stats,
                num_threads >= 1 ? &ctx.pool(num_threads) : nullptr,
                ctx.token);
        }
        cuts_done = std::chrono::steady_clock::now();
        stats.cut_seconds =
            std::chrono::duration<double>(cuts_done - start).count();

        // ---- incremental-evaluate handshake (docs/hot-path.md).  The
        // cache is consulted iff it was populated against this exact
        // network at the previous refresh serial, the refresh chain is
        // unbroken (this refresh was incremental, so its dirty set covers
        // the whole window since the entries were written), and every
        // parameter that shapes an evaluation matches.  Anything else
        // resets the cache; it repopulates this round and is usable the
        // next.  The engine tag matters because the two engines cache
        // different payloads; the thread count does not — winners are
        // thread-count independent.
        round_env env;
        if (sat_verify)
            env.verifier = &ctx.commit_verifier();
        if (incremental_evaluate && incremental_cuts) {
            auto& cache = ctx.eval_cache();
            env.cache = &cache;
            const uint8_t engine = num_threads >= 1 ? 1 : 0;
            env.cache_valid =
                cache.net == &network && cache.cut_size == cut_size &&
                cache.cut_limit == cut_limit &&
                cache.allow_zero_gain == allow_zero_gain &&
                cache.strategy == strategy_type::kind &&
                cache.engine == engine &&
                maint.last_refresh_incremental() &&
                cache.serial + 1 == maint.refresh_serial();
            if (env.cache_valid) {
                env.dirty = maint.evaluate_dirty();
            } else {
                cache.reset();
                cache.net = &network;
                cache.cut_size = cut_size;
                cache.cut_limit = cut_limit;
                cache.allow_zero_gain = allow_zero_gain;
                cache.strategy = strategy_type::kind;
                cache.engine = engine;
            }
        }

        if (num_threads >= 1)
            run_two_phase_round(network, ctx, stats, allow_zero_gain,
                                num_threads, strat, env);
        else
            run_rewrite_loop(network, ctx, stats, allow_zero_gain, strat,
                             env);

        if (env.cache != nullptr)
            env.cache->serial = maint.refresh_serial();
    } catch (const cancelled_error& e) {
        stats.status = e.reason();
        ctx.cut_maintenance().invalidate();
        ctx.eval_cache().reset();
    } catch (const std::exception&) {
        stats.status = outcome::resource_exhausted;
        ctx.cut_maintenance().invalidate();
        ctx.eval_cache().reset();
    }

    stats.ands_after = network.num_ands();
    stats.xors_after = network.num_xors();
    const auto end = std::chrono::steady_clock::now();
    stats.rewrite_seconds =
        std::chrono::duration<double>(end - cuts_done).count();
    stats.seconds = std::chrono::duration<double>(end - start).count();
    const auto [cache_hits1, cache_misses1] = strat.cache_traffic();
    const auto [db_hits1, db_misses1] = strat.db_traffic();
    // += : the two-phase engine has already added its per-worker shard
    // traffic; the shared-cache delta below covers the commit phase and
    // the whole of the sequential engine.
    stats.canon_cache_hits += cache_hits1 - cache_hits0;
    stats.canon_cache_misses += cache_misses1 - cache_misses0;
    stats.db_hits = db_hits1 - db_hits0;
    stats.db_misses = db_misses1 - db_misses0;
    stats.cone_traversals += sim.traversals() - traversals0;
    stats.cone_nodes_visited += sim.nodes_evaluated() - visited0;
    if (sat_verify) {
        const auto& v = ctx.commit_verifier();
        stats.sat_verifications = v.checks() - verify_checks0;
        stats.sat_conflicts = v.conflicts() - verify_conflicts0;
        stats.sat_warm_starts = v.warm_starts() - verify_warm0;
    }

    static const auto rounds_metric = obs::register_metric("rewrite.rounds");
    static const auto replacements_metric =
        obs::register_metric("rewrite.replacements");
    static const auto cuts_metric =
        obs::register_metric("rewrite.cuts_evaluated");
    static const auto pruned_metric =
        obs::register_metric("rewrite.cuts_pruned");
    static const auto evaluated_metric =
        obs::register_metric("rewrite.nodes_evaluated");
    static const auto clean_metric =
        obs::register_metric("rewrite.nodes_clean");
    static const auto traversals_metric =
        obs::register_metric("cone.traversals");
    static const auto visited_metric =
        obs::register_metric("cone.nodes_visited");
    rounds_metric.add();
    replacements_metric.add(stats.replacements);
    cuts_metric.add(stats.cuts_evaluated);
    pruned_metric.add(stats.cuts_pruned);
    evaluated_metric.add(stats.nodes_evaluated);
    clean_metric.add(stats.nodes_clean);
    traversals_metric.add(stats.cone_traversals);
    visited_metric.add(stats.cone_nodes_visited);
    round_span.set_arg(stats.replacements);
    // A round cut short (deadline, cancellation, fault) leaves a marker at
    // the exact spot in the timeline; to_string yields a literal, which is
    // what the trace record stores.
    if (stats.status != outcome::ok)
        obs::trace::instant(to_string(stats.status));
    return stats;
}

/// Proposed method: affine classification + AND-minimal database, AND-count
/// cost model.
struct mc_strategy {
    static constexpr uint8_t kind = 0; ///< evaluate_cache::strategy tag
    xag& net;
    mc_database& db;
    classification_cache& cache;
    round_stats& stats;
    cancellation_token token;

    /// Sequential-engine candidate, in two steps: `lookup` classifies and
    /// fetches the database entry (nullopt when classification fails),
    /// `splice` builds it over the leaves.
    struct match {
        const classification_result* cls;
        const mc_database::entry* entry;
    };
    std::optional<match> lookup(const truth_table& f)
    {
        const auto& cls = cache.classify(f);
        if (!cls.success) {
            ++stats.classify_failures;
            return std::nullopt;
        }
        return match{&cls, &db.lookup_or_build(cls.representative, token)};
    }
    std::optional<signal> splice(const match& m,
                                 std::span<const signal> leaves)
    {
        return splice_affine(net, m.cls->transform, leaves, m.entry->circuit);
    }
    /// Commit-phase builder (two-phase engine): lookup + splice, but
    /// classifies through the scoring worker's shard,
    /// where the evaluate phase already paid for the search.  Failures
    /// are not re-counted — the evaluate phase counted them.
    std::optional<signal> make_candidate_cached(const truth_table& f,
                                                std::span<const signal>
                                                    leaves,
                                                pass_scratch& sc)
    {
        const auto& cls = sc.classification.classify(f);
        if (!cls.success)
            return std::nullopt;
        const auto& entry = db.lookup_or_build(cls.representative, token);
        return splice_affine(net, cls.transform, leaves, entry.circuit);
    }
    /// Evaluate-phase cost bound (two-phase engine): the database entry's
    /// AND count.  splice_affine adds only XOR gates around the entry, so
    /// this equals the real created cost up to structural-hashing savings
    /// (the commit phase re-measures exactly).  Thread-safe: touches only
    /// the worker's scratch and the striped database.
    uint64_t estimated_cost(const truth_table& f, pass_scratch& sc,
                            bool& ok) const
    {
        const auto& cls = sc.classification.classify(f);
        if (!cls.success) {
            ++sc.classify_failures;
            ok = false;
            return 0;
        }
        ok = true;
        return db.lookup_or_build(cls.representative, token).num_ands;
    }
    int64_t mffc_cost(uint32_t root, std::span<const uint32_t> leaves,
                      mffc_workspace& ws) const
    {
        return mffc_and_count(net, root, leaves, ws);
    }
    uint64_t created_cost() const { return net.num_ands(); }
    std::pair<uint64_t, uint64_t> cache_traffic() const
    {
        return {cache.hits(), cache.misses()};
    }
    std::pair<uint64_t, uint64_t> scratch_traffic(const pass_scratch& sc) const
    {
        return {sc.classification.hits(), sc.classification.misses()};
    }
    std::pair<uint64_t, uint64_t> db_traffic() const
    {
        return {db.hits(), db.misses()};
    }
};

/// Size baseline: NPN canonization + gate-minimal database, unit cost for
/// AND and XOR.
struct size_strategy {
    static constexpr uint8_t kind = 1; ///< evaluate_cache::strategy tag
    xag& net;
    size_database& db;
    npn_cache& cache;
    round_stats& stats;
    cancellation_token token;

    /// Sequential-engine candidate: see mc_strategy::lookup.
    struct match {
        const npn_result* canon;
        const size_database::entry* entry;
    };
    std::optional<match> lookup(const truth_table& f)
    {
        const auto& canon = cache.canonize(f);
        return match{&canon, &db.lookup_or_build(canon.representative, token)};
    }
    std::optional<signal> splice(const match& m,
                                 std::span<const signal> leaves)
    {
        return splice_npn(net, m.canon->transform, leaves, m.entry->circuit);
    }
    /// Commit-phase builder through the scoring worker's shard; see
    /// mc_strategy::make_candidate_cached.
    std::optional<signal> make_candidate_cached(const truth_table& f,
                                                std::span<const signal>
                                                    leaves,
                                                pass_scratch& sc)
    {
        const auto& canon = sc.npn.canonize(f);
        const auto& entry = db.lookup_or_build(canon.representative, token);
        return splice_npn(net, canon.transform, leaves, entry.circuit);
    }
    /// Evaluate-phase cost bound: the entry's gate count (splice_npn adds
    /// no gates — negations ride on the edges).  See mc_strategy.
    uint64_t estimated_cost(const truth_table& f, pass_scratch& sc,
                            bool& ok) const
    {
        const auto& canon = sc.npn.canonize(f);
        ok = true;
        return db.lookup_or_build(canon.representative, token).num_gates;
    }
    int64_t mffc_cost(uint32_t root, std::span<const uint32_t> leaves,
                      mffc_workspace& ws) const
    {
        return mffc_gate_count(net, root, leaves, ws);
    }
    uint64_t created_cost() const { return net.num_gates(); }
    std::pair<uint64_t, uint64_t> cache_traffic() const
    {
        return {cache.hits(), cache.misses()};
    }
    std::pair<uint64_t, uint64_t> scratch_traffic(const pass_scratch& sc) const
    {
        return {sc.npn.hits(), sc.npn.misses()};
    }
    std::pair<uint64_t, uint64_t> db_traffic() const
    {
        return {db.hits(), db.misses()};
    }
};

/// The ONE convergence driver: repeat `round` until the cost (AND count or
/// gate count) stops improving, or `max_rounds`; fills the rounds,
/// converged and status fields of `ps`.
template <typename Round>
void run_until_convergence(xag& network, Round&& round, uint32_t max_rounds,
                           bool count_ands, pass_stats& ps)
{
    for (uint32_t i = 0; i < max_rounds; ++i) {
        obs::set_progress_round(i + 1);
        const auto stats = round(network);
        ps.rounds.push_back(stats);
        if (stats.status != outcome::ok) {
            // The round was cut short — its counters do not mean "no more
            // gains", so this is a stop, not convergence.
            ps.status = stats.status;
            break;
        }
        const auto before = count_ands
                                ? stats.ands_before
                                : stats.ands_before + stats.xors_before;
        const auto after = count_ands ? stats.ands_after
                                      : stats.ands_after + stats.xors_after;
        if (after >= before) {
            ps.converged = true;
            break;
        }
    }
}

pass_stats finish_pass(pass_context& ctx, pass_stats ps, const xag& network,
                       std::chrono::steady_clock::time_point start)
{
    ps.after = stats_of(network);
    ps.seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    ctx.history.push_back(ps);
    return ps;
}

} // namespace

// ---------------------------------------------------------- round engine

round_stats mc_rewrite_round(xag& network, pass_context& ctx,
                             const rewrite_params& params)
{
    return generic_round(network, ctx, params.cut_size, params.cut_limit,
                         params.allow_zero_gain, params.num_threads, params.incremental_cuts,
                         params.incremental_evaluate,
                         params.sat_verify_commits,
                         [&](round_stats& stats) {
                             return mc_strategy{network, ctx.mc_db(),
                                                ctx.classification(), stats,
                                                ctx.token};
                         });
}

round_stats size_rewrite_round(xag& network, pass_context& ctx,
                               const size_rewrite_params& params)
{
    return generic_round(network, ctx, params.cut_size, params.cut_limit,
                         params.allow_zero_gain, params.num_threads, params.incremental_cuts,
                         params.incremental_evaluate,
                         params.sat_verify_commits,
                         [&](round_stats& stats) {
                             return size_strategy{network, ctx.size_db(),
                                                  ctx.npn(), stats,
                                                  ctx.token};
                         });
}

// ----------------------------------------------------------------- passes

pass_stats mc_rewrite_pass::run(xag& network, pass_context& ctx) const
{
    const auto start = std::chrono::steady_clock::now();
    pass_stats ps;
    ps.pass_name = name();
    ps.before = stats_of(network);
    ps.num_threads = std::max(1u, params_.num_threads);
    auto& db = ctx.mc_db();
    const auto db_hits0 = db.hits();
    const auto db_misses0 = db.misses();
    run_until_convergence(
        network,
        [&](xag& net) { return mc_rewrite_round(net, ctx, params_); },
        max_rounds_, true, ps);
    ps.db_hits = db.hits() - db_hits0;
    ps.db_misses = db.misses() - db_misses0;
    ps.db_entries = db.size();
    ps.db_exact = db.exact_entries();
    ps.db_heuristic = db.heuristic_entries();
    return finish_pass(ctx, std::move(ps), network, start);
}

pass_stats size_rewrite_pass::run(xag& network, pass_context& ctx) const
{
    const auto start = std::chrono::steady_clock::now();
    pass_stats ps;
    ps.pass_name = name();
    ps.before = stats_of(network);
    ps.num_threads = std::max(1u, params_.num_threads);
    auto& db = ctx.size_db();
    const auto db_hits0 = db.hits();
    const auto db_misses0 = db.misses();
    run_until_convergence(
        network,
        [&](xag& net) { return size_rewrite_round(net, ctx, params_); },
        max_rounds_, false, ps);
    ps.db_hits = db.hits() - db_hits0;
    ps.db_misses = db.misses() - db_misses0;
    ps.db_entries = db.size();
    return finish_pass(ctx, std::move(ps), network, start);
}

pass_stats xor_resynthesis_pass::run(xag& network, pass_context& ctx) const
{
    const auto start = std::chrono::steady_clock::now();
    pass_stats ps;
    ps.pass_name = name();
    ps.before = stats_of(network);
    const auto stats = xor_resynthesis(network, {.token = ctx.token});
    ps.xor_blocks = stats.blocks;
    ps.xor_pairs_extracted = stats.pairs_extracted;
    ps.xor_pairs_counted = stats.pairs_counted;
    ps.xor_pair_queue_pops = stats.pair_queue_pops;
    ps.status = stats.status;
    ps.converged = stats.status == outcome::ok;
    return finish_pass(ctx, std::move(ps), network, start);
}

pass_stats cleanup_pass::run(xag& network, pass_context& ctx) const
{
    const auto start = std::chrono::steady_clock::now();
    pass_stats ps;
    ps.pass_name = name();
    ps.before = stats_of(network);
    network = cleanup(network);
    ps.converged = true;
    return finish_pass(ctx, std::move(ps), network, start);
}

} // namespace mcx
