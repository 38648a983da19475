// Maximum fanout-free cone measurement: the set of nodes that become
// dangling when a root is replaced, bounded below by a cut's leaves.  The
// AND count of the MFFC is the DAG-aware "what we save" side of the
// rewriting gain (paper §4, following Mishchenko's AIG rewriting).
//
// The kernel runs once per scored cut, so it allocates nothing in steady
// state: the caller owns an `mffc_workspace` (one per worker — it is not
// thread-safe) whose epoch-stamped slots stand in for a per-call map of
// simulated reference counts.
#pragma once

#include "xag/xag.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mcx {

/// Reusable MFFC state.  A slot is live for the current call iff its stamp
/// equals `epoch`; `remaining` then holds the node's simulated reference
/// count (or `leaf` for a boundary node).  Grows to the network size on
/// first use and is reused across calls, networks and rounds.
struct mffc_workspace {
    static constexpr uint32_t leaf = ~uint32_t{0};
    struct slot {
        uint32_t stamp = 0;
        uint32_t remaining = 0;
    };
    std::vector<slot> slots;
    std::vector<uint32_t> stack;
    uint32_t epoch = 0;
};

/// Number of AND gates in the MFFC of `root` with respect to `leaves`.
uint32_t mffc_and_count(const xag& network, uint32_t root,
                        std::span<const uint32_t> leaves,
                        mffc_workspace& ws);

/// Number of gates (AND + XOR) in the MFFC of `root` w.r.t. `leaves`.
uint32_t mffc_gate_count(const xag& network, uint32_t root,
                         std::span<const uint32_t> leaves,
                         mffc_workspace& ws);

} // namespace mcx
