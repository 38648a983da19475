// The pass framework: every optimization step (AND-minimizing rewrite, the
// generic size baseline, XOR resynthesis, cleanup) is a `pass` executed
// against a shared `pass_context`.
//
// The context owns everything the hot loop reuses across rounds and across
// passes — the arena-backed cut storage (src/cut/cut_arena.h), the batched
// cone simulator (src/xag/cone_batch.h), the LRU canonization caches, and
// the lazily constructed databases — so each resource is allocated once
// per flow instead of once per round.  `pass_stats` is the unified sink:
// one record per executed pass, with per-round breakdowns for the rewrite
// passes.
//
// The rewrite passes share ONE round implementation (pass.cpp): cut
// enumeration into the arena, batched evaluation of all of a node's cut
// functions in a single union-cone traversal, canonize/classify through
// the context caches, database splice, MFFC-gated commit.  mc vs. size
// differ only in a small strategy bundle (candidate builder + cost model).
//
// With `num_threads >= 1` the round runs on the parallel subsystem
// (src/par/): a work-stealing evaluate phase scores the best candidate
// per node against the frozen network (per-worker scratch, thread-safe
// databases), then a sequential commit phase applies non-conflicting
// winners in node order — bit-identical results for any thread count
// (docs/parallel.md).  `num_threads == 0` keeps the classic in-place
// loop, which commits as it scans and so sees its own rewrites within
// the round.
#pragma once

#include "core/budget.h"
#include "cut/cut_enumeration.h"
#include "cut/cut_incremental.h"
#include "db/mc_database.h"
#include "db/size_database.h"
#include "npn/npn.h"
#include "par/scratch.h"
#include "par/thread_pool.h"
#include "sat/equivalence.h"
#include "spectral/classification.h"
#include "xag/cone_batch.h"
#include "xag/xag.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mcx {

// ------------------------------------------------------------- parameters

struct rewrite_params {
    uint32_t cut_size = 6;   ///< paper: 6-cuts (64-bit truth tables)
    uint32_t cut_limit = 12; ///< paper: 12 cuts per node
    uint64_t classification_iteration_limit = 100'000; ///< paper §5
    /// Classify cut functions with the packed-spectrum engine; false keeps
    /// the scalar classify_affine_baseline on the hot path (A/B switch,
    /// identical results — see classification_params::word_parallel).
    bool classification_word_parallel = true;
    bool allow_zero_gain = false;
    /// 0 = the classic sequential in-place loop (default).  >= 1 = the
    /// deterministic two-phase engine on that many workers; results are
    /// bit-identical for every value >= 1 (docs/parallel.md), so
    /// `num_threads = 1` is the reference run of the parallel engine.
    uint32_t num_threads = 0;
    /// Maintain cut sets incrementally across rounds (default): after the
    /// first round only the dirty region — replaced MFFCs' transitive
    /// fanout plus new gates — is re-enumerated, level-parallel on the
    /// worker pool when num_threads >= 1.  `false` is the full-rebuild
    /// oracle; both modes produce byte-identical networks
    /// (src/cut/cut_incremental.h).
    bool incremental_cuts = true;
    /// Re-score only nodes whose cut spans or cone context (MFFC, leaf
    /// liveness) changed since the previous round; clean nodes reuse the
    /// persistent per-node evaluation cache in the pass_context.  Requires
    /// incremental_cuts (the dirty set is derived from the same journal);
    /// with it off, every round evaluates every node — the full-evaluate
    /// oracle, byte-identical to the incremental path at any thread count
    /// (docs/hot-path.md, "The evaluate dirty-set contract").
    bool incremental_evaluate = true;
    /// Commit-time SAT verification: check each replacement cone against
    /// its pre-image miter under assumptions on the context's persistent
    /// cone_verifier before substituting.  Off by default — simulation
    /// verification is already exact for cut-bounded cones — but the
    /// counters it fills (round_stats::sat_*) feed the mcx report.
    bool sat_verify_commits = false;
    mc_database_params db;
};

struct size_rewrite_params {
    uint32_t cut_size = 4; ///< NPN-4 database
    uint32_t cut_limit = 12;
    bool allow_zero_gain = false;
    uint32_t num_threads = 0;        ///< see rewrite_params
    bool incremental_cuts = true;    ///< see rewrite_params
    bool incremental_evaluate = true; ///< see rewrite_params
    bool sat_verify_commits = false; ///< see rewrite_params
    size_database_params db;
};

// ------------------------------------------------------------------ stats

struct round_stats {
    uint32_t ands_before = 0;
    uint32_t ands_after = 0;
    uint32_t xors_before = 0;
    uint32_t xors_after = 0;
    uint64_t cuts_evaluated = 0;
    uint64_t classify_failures = 0;
    uint64_t candidates_built = 0;
    uint64_t replacements = 0;
    double seconds = 0.0;

    // --- per-stage breakdown of the hot loop (filled by every round) ------
    double cut_seconds = 0.0;     ///< time inside enumerate_cuts
    double rewrite_seconds = 0.0; ///< time in the canonize/classify/splice pass
    cut_enumeration_stats cut_stats; ///< merge/dedup/domination counters
    /// Canonization-cache traffic this round: classification_cache for the
    /// proposed method, npn_cache for the size baseline.
    uint64_t canon_cache_hits = 0;
    uint64_t canon_cache_misses = 0;
    /// Database traffic this round (lookup served vs. circuit synthesized).
    uint64_t db_hits = 0;
    uint64_t db_misses = 0;
    /// Incremental-evaluate traffic: nodes re-scored this round vs. nodes
    /// served from the persistent evaluation cache.  With the feature off
    /// every visited gate counts as evaluated; a quiescent incremental
    /// round reports nodes_evaluated == 0.
    uint64_t nodes_evaluated = 0;
    uint64_t nodes_clean = 0;
    /// Commit-time SAT verification traffic (sat_verify_commits only).
    uint64_t sat_verifications = 0;
    uint64_t sat_conflicts = 0;
    uint64_t sat_warm_starts = 0;
    /// Why the round ended: ok, or the limit/fault that stopped it early.
    /// Non-ok rounds leave the network consistent and function-equivalent —
    /// only the not-yet-visited nodes keep their old structure.
    outcome status = outcome::ok;

    double canon_cache_hit_rate() const
    {
        const auto total = canon_cache_hits + canon_cache_misses;
        return total == 0 ? 0.0
                          : static_cast<double>(canon_cache_hits) /
                                static_cast<double>(total);
    }
};

/// Outcome of one executed pass — the unified stats sink.  Rewrite passes
/// fill `rounds`; xor_resynthesis fills the xor counters; every pass fills
/// the network before/after shape and its wall time.
struct pass_stats {
    std::string pass_name;
    xag_stats before{};
    xag_stats after{};
    double seconds = 0.0;
    bool converged = false;
    /// Workers the pass ran on: 1 for the sequential engine and for
    /// non-rewrite passes, the two-phase engine's worker count otherwise.
    uint32_t num_threads = 1;
    std::vector<round_stats> rounds; ///< rewrite passes only
    uint32_t xor_blocks = 0;         ///< xor_resynthesis only
    uint32_t xor_pairs_extracted = 0; ///< xor_resynthesis only
    /// Database traffic over this pass (rewrite passes only): sharded_store
    /// hits/misses delta, entry count after the pass, and — for the mc
    /// database — how many of the entries ever built were certified
    /// optimal vs heuristic fallbacks.
    uint64_t db_hits = 0;
    uint64_t db_misses = 0;
    uint64_t db_entries = 0;
    uint64_t db_exact = 0;
    uint64_t db_heuristic = 0;
    /// Why the pass ended.  Non-ok means the pass stopped cooperatively at
    /// a commit boundary: the network is consistent, function-equivalent,
    /// and carries whatever gains were committed before the stop.
    outcome status = outcome::ok;
};

// ---------------------------------------------------------------- context

/// Best replacement found for one node by the two-phase evaluate phase.
/// Engine-internal except for its role as the evaluate cache's payload: a
/// pure function of (network, cut sets, node), which is what makes caching
/// it across rounds sound (docs/hot-path.md).
struct eval_winner {
    uint32_t node = 0;
    truth_table function;                 ///< support-shrunk cut function
    std::array<uint32_t, 6> cut_leaves{}; ///< resolved full leaf set
    std::array<uint8_t, 6> support{};     ///< indices into cut_leaves
    uint8_t num_cut_leaves = 0;
    uint8_t num_support = 0;
    /// Worker that scored this node — its cache shard already holds the
    /// function's classification, so the commit phase classifies through
    /// the same shard (a warm hit) instead of re-running the search cold.
    uint32_t worker = 0;
    bool valid = false;
};

/// Persistent per-node evaluation results, reused across rounds for nodes
/// the cut_maintainer's dirty set clears (rewrite_params::
/// incremental_evaluate).  Coherence handshake: the cache is only
/// consulted when it was populated at the maintainer's previous refresh
/// serial, that refresh chain is unbroken (last refresh incremental), and
/// every parameter that shapes an evaluation matches.  Any mismatch
/// resets the cache — correctness never depends on it.
struct evaluate_cache {
    const xag* net = nullptr;
    uint64_t serial = 0; ///< cut_maintainer::refresh_serial() at population
    uint32_t cut_size = 0;
    uint32_t cut_limit = 0;
    bool allow_zero_gain = false;
    uint8_t strategy = 0; ///< 0 = mc, 1 = size
    uint8_t engine = 0;   ///< 0 = sequential in-place, 1 = two-phase
    /// Two-phase engine: cached winner per node id.
    std::vector<eval_winner> winners;
    std::vector<uint8_t> has_entry;
    /// Sequential engine: "visited, found no improvement" per node id
    /// (improvements commit immediately and kill the node, so this single
    /// bit is the whole cacheable outcome).
    std::vector<uint8_t> no_improvement;

    void reset()
    {
        net = nullptr;
        winners.clear();
        has_entry.clear();
        no_improvement.clear();
    }
};

struct pass_context_params {
    mc_database_params mc_db;
    size_database_params size_db;
    uint64_t classification_iteration_limit = 100'000;
    bool classification_word_parallel = true;
};

/// Shared execution state for a sequence of passes.  Databases and caches
/// are constructed lazily on first use; external instances (e.g. a database
/// loaded from disk) can be adopted instead.  All members persist across
/// rounds, passes, and flows, which is what makes the caches effective and
/// the arena/simulator allocation-free after warm-up.
class pass_context {
public:
    explicit pass_context(const pass_context_params& params = {})
        : params_{params}
    {
    }

    mc_database& mc_db();
    size_database& size_db();
    classification_cache& classification();
    npn_cache& npn();
    cut_sets& cuts() { return cuts_; }
    /// Incremental maintenance of cuts() across rounds — tracks one
    /// network at a time and falls back to a full rebuild whenever its
    /// change journal cannot vouch for the arena (different network, pass
    /// ran untracked, params changed).
    cut_maintainer& cut_maintenance() { return cut_maint_; }
    cone_simulator& simulator() { return simulator_; }

    /// Persistent evaluation cache for the incremental-evaluate path; the
    /// round engine owns its coherence protocol (see evaluate_cache).
    evaluate_cache& eval_cache() { return eval_cache_; }

    /// Persistent warm SAT solver for commit-time cone verification
    /// (rewrite_params::sat_verify_commits); one instance serves every
    /// round and pass so learnt clauses accumulate across commits.
    sat::cone_verifier& commit_verifier() { return commit_verifier_; }

    /// Worker team for the two-phase engine: exactly `num_threads`
    /// workers (>= 1), rebuilt only when the requested count changes.
    thread_pool& pool(uint32_t num_threads);

    /// Per-worker scratch (src/par/scratch.h), created on first request
    /// and persistent across rounds/passes/flows like every other context
    /// resource.  Not thread-safe to *create* — the engine touches every
    /// worker's scratch once before entering the parallel phase.
    pass_scratch& scratch(uint32_t worker);

    /// Adopt external components (nullptr restores the owned instance).
    /// The pointee must outlive the context's use.
    void adopt(mc_database* db) { external_mc_db_ = db; }
    void adopt(size_database* db) { external_size_db_ = db; }
    void adopt(classification_cache* cache) { external_cls_ = cache; }
    void adopt(npn_cache* cache) { external_npn_ = cache; }

    const pass_context_params& params() const { return params_; }

    /// Every pass executed against this context appends its record here.
    std::vector<pass_stats> history;

    /// Cooperative stop signal for every pass run against this context.
    /// Checked at commit boundaries (per node visit, per sweep level, per
    /// SAT conflict inside database miss synthesis); a stopped token makes
    /// the running pass finish early with a non-ok pass_stats::status and
    /// the network consistent.  Default: inert (never stops anything).
    cancellation_token token;

private:
    pass_context_params params_;
    std::unique_ptr<mc_database> mc_db_;
    std::unique_ptr<size_database> size_db_;
    std::unique_ptr<classification_cache> cls_cache_;
    std::unique_ptr<npn_cache> npn_cache_;
    mc_database* external_mc_db_ = nullptr;
    size_database* external_size_db_ = nullptr;
    classification_cache* external_cls_ = nullptr;
    npn_cache* external_npn_ = nullptr;
    cut_sets cuts_;
    cut_maintainer cut_maint_;
    cone_simulator simulator_;
    evaluate_cache eval_cache_;
    sat::cone_verifier commit_verifier_;
    std::unique_ptr<thread_pool> pool_;
    std::vector<std::unique_ptr<pass_scratch>> scratch_;
};

// ------------------------------------------------------------------ passes

/// One optimization step over a network.  run() appends its pass_stats to
/// ctx.history and also returns it.
class pass {
public:
    virtual ~pass() = default;
    virtual std::string_view name() const = 0;
    virtual pass_stats run(xag& network, pass_context& ctx) const = 0;
};

/// The paper's AND-minimizing rewrite (affine classification + MC
/// database), repeated until the AND count stops improving.
class mc_rewrite_pass final : public pass {
public:
    explicit mc_rewrite_pass(rewrite_params params = {},
                             uint32_t max_rounds = 100)
        : params_{params}, max_rounds_{max_rounds}
    {
    }
    std::string_view name() const override { return "mc-rewrite"; }
    pass_stats run(xag& network, pass_context& ctx) const override;

private:
    rewrite_params params_;
    uint32_t max_rounds_;
};

/// The generic size baseline (NPN-4 database, unit cost for AND and XOR),
/// repeated until the gate count stops improving.
class size_rewrite_pass final : public pass {
public:
    explicit size_rewrite_pass(size_rewrite_params params = {},
                               uint32_t max_rounds = 100)
        : params_{params}, max_rounds_{max_rounds}
    {
    }
    std::string_view name() const override { return "size-rewrite"; }
    pass_stats run(xag& network, pass_context& ctx) const override;

private:
    size_rewrite_params params_;
    uint32_t max_rounds_;
};

/// Paar-style resynthesis of maximal linear (XOR-only) blocks.  With
/// `num_threads >= 1` the quadratic pair-count seeding runs on the
/// context's worker pool and the admission budget scales with the team
/// (xor_resynthesis_params::pairing_work_budget).
class xor_resynthesis_pass final : public pass {
public:
    xor_resynthesis_pass() = default;
    explicit xor_resynthesis_pass(uint32_t num_threads)
        : num_threads_{num_threads}
    {
    }
    std::string_view name() const override { return "xor-resynthesis"; }
    pass_stats run(xag& network, pass_context& ctx) const override;

private:
    uint32_t num_threads_ = 0;
};

/// Rebuild a compacted, freshly strashed copy of the network.
class cleanup_pass final : public pass {
public:
    std::string_view name() const override { return "cleanup"; }
    pass_stats run(xag& network, pass_context& ctx) const override;
};

// ---------------------------------------------------- round-level engine

/// One round of the proposed method through a context (the single shared
/// pass-loop implementation; size_rewrite_round uses the same engine).
round_stats mc_rewrite_round(xag& network, pass_context& ctx,
                             const rewrite_params& params = {});

/// One round of the generic size baseline through a context.
round_stats size_rewrite_round(xag& network, pass_context& ctx,
                               const size_rewrite_params& params = {});

} // namespace mcx
