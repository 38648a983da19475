// Batched word-parallel cone evaluation — the rewrite engine's replacement
// for per-cut cone_function re-simulation (PR 1 measured that re-simulation
// as the dominant cost of a rewriting round).
//
// All cut functions have at most 6 leaves, so every value is one 64-bit
// word.  The simulator owns epoch-stamped dense buffers (no per-call
// unordered_map, no truth_table heap traffic) and evaluates all cuts of one
// root in a single traversal of the union cone: node values are vectors of
// C lanes (one lane per cut), leaves override their lane with a projection
// word, and a per-lane "failed" mask tracks cones that escape their leaf
// boundary (the batched equivalent of cone_function's
// `cone escapes the leaf boundary` exception).
//
// Reach rule.  A traversal walks only the union of the per-lane cones, never
// the root's whole fan-in.  A first pass computes each node's lane-reach
// mask: the root is reached by every lane, and a gate hands
// `reach & ~leaf` (the lanes for which it is interior) to both fanins.  The
// pass is a worklist, not an id-ordered sweep — node ids are not
// topological once substitute() has run.  The post-order walk and the
// evaluation then expand a gate iff `reach & ~leaf != 0`.  Lane j's value
// and fail bit at a node it reaches depend only on nodes it reaches, so the
// root's words equal per-cut cone_function.  Lanes at nodes they do not
// reach hold don't-care values that no reached node ever reads.
//
// Work bound.  One traversal visits (and nodes_evaluated() counts) at most
// the sum over lanes of that lane's cone size, leaves included; the reach
// pass pushes a node only when its mask gains a lane, so it obeys the same
// bound.  tests/pass_test.cpp checks the bound on a deep chain.
#pragma once

#include "xag/xag.h"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mcx {

class cone_simulator {
public:
    /// Lanes evaluated per traversal; larger requests are chunked.
    static constexpr uint32_t max_lanes = 32;

    /// One cut request: sorted, duplicate-free leaf node ids (<= 6).
    using leaf_set = std::vector<uint32_t>;

    /// Evaluate the function of `root` over each leaf set in `cuts` in one
    /// traversal per chunk of `max_lanes`.  `out[j]` receives the function
    /// word of cut j (masked to tt_mask(k_j)); bit j of the returned mask is
    /// set when lane j is valid.  A lane fails when its cone escapes the
    /// leaf boundary (reaches a PI that is not one of its leaves), when it
    /// contains `forbidden`, or when its leaf set has more than 6 leaves
    /// (its word is then 0 and it costs no traversal work).
    uint64_t simulate_cuts(const xag& net, uint32_t root,
                           std::span<const leaf_set> cuts,
                           std::vector<uint64_t>& out,
                           uint32_t forbidden = UINT32_MAX);

    /// Single-cone convenience lane: function word of `root` over `leaves`,
    /// or nullopt when the cone escapes the boundary / contains `forbidden`.
    std::optional<uint64_t> cone_word(const xag& net, uint32_t root,
                                     std::span<const uint32_t> leaves,
                                     uint32_t forbidden = UINT32_MAX);

    /// Nodes evaluated across all traversals (perf counter).
    uint64_t nodes_evaluated() const { return nodes_evaluated_; }
    /// Traversals run (one per root-chunk).
    uint64_t traversals() const { return traversals_; }

private:
    /// Per-node record, valid only when `epoch` equals the current epoch.
    struct node_state {
        uint32_t epoch; ///< traversal stamp for the three fields below
        uint32_t leaf;  ///< lanes where the node is a leaf
        uint32_t reach; ///< lanes whose cone contains the node
        uint32_t slot;  ///< lane-pool index, or unvisited / scheduled
    };
    static_assert(sizeof(node_state) == 16);
    static constexpr uint32_t unvisited = UINT32_MAX;
    static constexpr uint32_t scheduled = UINT32_MAX - 1;

    void ensure_size(size_t num_nodes);
    node_state& touch(uint32_t n);
    uint32_t run_chunk(const xag& net, uint32_t root,
                       std::span<const leaf_set> cuts,
                       std::span<uint64_t> out, uint32_t forbidden);

    std::vector<node_state> state_; ///< dense, index = node id
    uint32_t epoch_ = 0;

    // Per-traversal scratch (capacity reused across calls).
    std::vector<uint32_t> order_;      ///< post-order of the union cone
    std::vector<uint64_t> lanes_;      ///< values: slot * C + lane
    std::vector<uint32_t> fail_;       ///< failed-lane mask per slot
    std::vector<uint64_t> stack_;      ///< worklist; DFS: (node << 1) | done
    leaf_set single_;                  ///< cone_word's one-lane request

    uint64_t nodes_evaluated_ = 0;
    uint64_t traversals_ = 0;
};

} // namespace mcx
