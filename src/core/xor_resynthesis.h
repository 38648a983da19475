// XOR-count resynthesis of linear blocks — the complementary optimization
// the paper explicitly leaves to related work ("Note that we do not
// consider any XOR optimization in this work. An algorithm to minimize the
// number of XOR for cryptography applications can be found in [14]").
//
// The XAG is partitioned into maximal XOR-only cones (linear blocks over
// GF(2)); each block is a linear system  y = M x  over its terminals
// (AND nodes, PIs).  The blocks are re-synthesized with Paar's greedy
// common-subexpression algorithm: repeatedly materialize the pair of
// columns that co-occurs in the most rows.  AND count — the paper's cost
// function — is untouched by construction.
//
// One sequential path, deterministic by construction:
//  * rows are built once, bottom-up in topological order — an XOR node's
//    row is the symmetric difference of its fanins' rows — so expansion
//    costs the total size of the rows it builds, not a cone walk per root;
//  * pair seeding is quadratic per row, so rows join the extraction
//    narrowest-first under one fixed Σwidth² budget (2 · 10⁶).  Every row
//    of rewrite-scale circuits is admitted; the widest accumulator rows
//    of full-hash linear systems keep their existing trees;
//  * Paar extraction costs one heap build over the seeded pairs plus one
//    push per new pair per step: seeding only counts (every pair of every
//    admitted row, in one flat open-addressing table); a step creates pairs
//    only with its freshly minted term and pushes each of them once, at its
//    final count; every other count only falls, and a stale heap entry is
//    requeued at its lower count when popped;
//  * a row's new chain replaces its old tree only when it creates no more
//    XOR gates than the tree's MFFC frees.
// No thread count or tuning knob reaches this pass: its output depends on
// the network alone.
#pragma once

#include "core/budget.h"
#include "xag/xag.h"

#include <cstdint>
#include <vector>

namespace mcx {

struct xor_resynthesis_params {
    /// Cooperative stop.  Checked between pair extractions and between row
    /// rebuilds; stopping skips the remaining work (the rows already
    /// rebuilt keep their gains, the rest keep their old trees) and the
    /// stats carry the stop reason — the network is always left consistent
    /// and function-equivalent.
    cancellation_token token;
};

struct xor_resynthesis_stats {
    uint32_t xors_before = 0;
    uint32_t xors_after = 0;
    uint32_t blocks = 0;         ///< linear block roots rewritten
    uint32_t pairs_extracted = 0; ///< shared pair gates materialized
    uint32_t widest_row = 0;      ///< terms in the widest linear row seen
    uint32_t rows_paired = 0;     ///< rows admitted to pair extraction
    uint32_t widest_row_paired = 0; ///< widest row admitted
    uint64_t pairs_counted = 0;   ///< distinct term pairs ever counted
    uint64_t pair_queue_pops = 0; ///< heap entries popped, stale included
    outcome status = outcome::ok; ///< non-ok when a token stopped the pass
};

/// Rewrite all maximal linear blocks.  Function-preserving; the AND count
/// never increases (it can drop when collapsed linear cones let downstream
/// AND gates constant-fold).
xor_resynthesis_stats xor_resynthesis(xag& network,
                                      const xor_resynthesis_params& params = {});

namespace detail {

/// One extraction step: the pair of terms (a, b), a < b, became term `id`.
struct extracted_pair {
    uint32_t a, b, id;
    bool operator==(const extracted_pair&) const = default;
};

struct pair_extraction {
    std::vector<extracted_pair> plan; ///< in extraction order
    uint64_t pairs_counted = 0;
    uint64_t queue_pops = 0;
    outcome status = outcome::ok;
};

/// Paar's greedy extraction over `rows`, each an ascending list of distinct
/// term ids below `num_terms`.  While some pair of terms co-occurs in at
/// least two rows, the pair with the highest count — ties to the largest
/// (a, b) — is replaced by a new term in every row holding both; new ids
/// count up from `num_terms`.  On return each row holds its final terms,
/// ascending.  A stop requested on `token` ends the extraction early
/// (polled every 1024 pops) with the reason in `status`.
pair_extraction extract_pairs(std::vector<std::vector<uint32_t>>& rows,
                              uint32_t num_terms,
                              const cancellation_token& token = {});

} // namespace detail

} // namespace mcx
