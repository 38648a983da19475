// Per-worker scratch state for the parallel rewrite round.
//
// The evaluate phase of the two-phase round (src/core/pass.cpp) runs one
// node per parallel_for index; everything a node evaluation mutates lives
// here, owned exclusively by one worker — so the phase needs no locking
// beyond the databases' internal stripes:
//
//  * the batched cone simulator's epoch-stamped buffers (simulate all of
//    a node's cut functions, verify nothing — verification happens at
//    commit time on the main thread);
//  * the canonization caches, as per-worker LRU *shards*: classification
//    and NPN canonization are pure functions, so sharding only costs
//    duplicate work when two workers see the same cut function, never
//    consistency.  Shard hit/miss counters are scheduling-dependent and
//    are reported in aggregate only — the determinism contract covers
//    networks and replacement counts, not cache traffic;
//  * the resolved-leaf pools and candidate buffers the sequential loop
//    kept as locals, and the MFFC kernel's workspace (src/core/mffc.h).
//
// The cut arena (pass_context::cuts()) stays shared: it is written once
// by cut enumeration before the phase starts and only read inside it.
#pragma once

#include "core/mffc.h"
#include "npn/npn.h"
#include "spectral/classification.h"
#include "xag/cone_batch.h"

#include <cstdint>
#include <vector>

namespace mcx {

struct pass_scratch {
    explicit pass_scratch(const classification_params& params)
        : classification{params}
    {
    }

    cone_simulator simulator;
    classification_cache classification; ///< per-worker shard
    npn_cache npn;                       ///< per-worker shard

    // Evaluate-phase buffers (capacity reused across nodes and rounds).
    std::vector<cone_simulator::leaf_set> resolved;
    std::vector<uint64_t> words;
    std::vector<uint64_t> chunk_words;
    std::vector<uint8_t> valid;
    std::vector<uint32_t> leaf_nodes;
    mffc_workspace mffc;

    // Per-worker partial round counters, summed after the phase joins
    // (each is a function of the node set alone, so the sums are
    // thread-count-independent).
    uint64_t cuts_evaluated = 0;
    uint64_t classify_failures = 0;
    uint64_t candidates_built = 0;
    uint64_t cuts_pruned = 0;
};

} // namespace mcx
