#include "xag/cone_batch.h"

#include "tt/truth_table.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace mcx {

void cone_simulator::ensure_size(size_t num_nodes)
{
    // No record outlives its traversal, so growth releases the old array
    // before allocating the new one: peak memory never holds both copies.
    if (state_.capacity() < num_nodes) {
        const auto capacity = std::max(num_nodes, 2 * state_.capacity());
        state_ = {};
        state_.reserve(capacity);
    }
    if (state_.size() < num_nodes)
        state_.resize(num_nodes, node_state{0, 0, 0, unvisited});
}

cone_simulator::node_state& cone_simulator::touch(uint32_t n)
{
    auto& s = state_[n];
    if (s.epoch != epoch_)
        s = node_state{epoch_, 0, 0, unvisited};
    return s;
}

uint32_t cone_simulator::run_chunk(const xag& net, uint32_t root,
                                   std::span<const leaf_set> cuts,
                                   std::span<uint64_t> out, uint32_t forbidden)
{
    const auto C = static_cast<uint32_t>(cuts.size());
    const uint32_t full =
        C >= 32 ? ~0u : ((1u << C) - 1);
    ensure_size(net.size());
    if (epoch_ == UINT32_MAX) { // stamp wrap: invalidate everything once
        for (auto& s : state_)
            s.epoch = 0;
        epoch_ = 0;
    }
    ++epoch_;
    ++traversals_;
    std::fill(out.begin(), out.end(), uint64_t{0});

    // Lanes over the single-word limit are invalid up front: they stamp no
    // leaves and reach nothing, so no projection index ever exceeds 5.
    uint32_t live = full;
    for (uint32_t j = 0; j < C; ++j)
        if (cuts[j].size() > 6)
            live &= ~(1u << j);
    if (live == 0)
        return 0;

    // Stamp leaf membership: leaf = lanes where the node is a leaf.
    for (uint32_t j = 0; j < C; ++j) {
        if (((live >> j) & 1) == 0)
            continue;
        for (const auto l : cuts[j]) {
            if (l >= net.size())
                throw std::invalid_argument{"cone_simulator: bad leaf id"};
            touch(l).leaf |= 1u << j;
        }
    }
    const auto expands = [&](uint32_t n, const node_state& s) {
        return (s.reach & ~s.leaf) != 0 && net.is_gate(n);
    };

    // Reach pass (worklist): a gate hands the lanes it is interior to down
    // to both fanins; a node is re-pushed only when its mask gains a lane.
    stack_.clear();
    touch(root).reach = live;
    stack_.push_back(root);
    while (!stack_.empty()) {
        const auto n = static_cast<uint32_t>(stack_.back());
        stack_.pop_back();
        const auto& s = state_[n];
        if (!expands(n, s))
            continue;
        const uint32_t down = s.reach & ~s.leaf;
        for (const auto f : {net.fanin0(n).node(), net.fanin1(n).node()}) {
            auto& t = touch(f);
            if ((down & ~t.reach) != 0) {
                t.reach |= down;
                stack_.push_back(f);
            }
        }
    }

    // Iterative post-order DFS of the union of the lane cones; a node's
    // slot is its post-order index.
    order_.clear();
    stack_.push_back(uint64_t{root} << 1);
    while (!stack_.empty()) {
        const auto top = stack_.back();
        stack_.pop_back();
        const auto n = static_cast<uint32_t>(top >> 1);
        auto& s = state_[n];
        if (top & 1) { // children done: emit
            s.slot = static_cast<uint32_t>(order_.size());
            order_.push_back(n);
            continue;
        }
        if (s.slot != unvisited)
            continue; // already scheduled or emitted
        s.slot = scheduled;
        stack_.push_back(top | 1);
        if (expands(n, s)) {
            const auto n0 = net.fanin0(n).node();
            const auto n1 = net.fanin1(n).node();
            if (state_[n0].slot == unvisited)
                stack_.push_back(uint64_t{n0} << 1);
            if (state_[n1].slot == unvisited)
                stack_.push_back(uint64_t{n1} << 1);
        }
    }

    // Evaluate in post-order.
    lanes_.resize(order_.size() * C);
    fail_.resize(order_.size());
    nodes_evaluated_ += order_.size();
    for (uint32_t s = 0; s < order_.size(); ++s) {
        const auto n = order_[s];
        const auto& st = state_[n];
        auto* v = lanes_.data() + static_cast<size_t>(s) * C;
        uint32_t failed;
        if (expands(n, st)) {
            const auto f0 = net.fanin0(n);
            const auto f1 = net.fanin1(n);
            const auto s0 = state_[f0.node()].slot;
            const auto s1 = state_[f1.node()].slot;
            const auto* a = lanes_.data() + static_cast<size_t>(s0) * C;
            const auto* b = lanes_.data() + static_cast<size_t>(s1) * C;
            const uint64_t ca = f0.complemented() ? ~uint64_t{0} : 0;
            const uint64_t cb = f1.complemented() ? ~uint64_t{0} : 0;
            if (net.is_and(n)) {
                for (uint32_t j = 0; j < C; ++j)
                    v[j] = (a[j] ^ ca) & (b[j] ^ cb);
            } else {
                for (uint32_t j = 0; j < C; ++j)
                    v[j] = (a[j] ^ ca) ^ (b[j] ^ cb);
            }
            failed = fail_[s0] | fail_[s1];
        } else {
            // Constant, PI, or a gate that is a leaf in every lane reaching
            // it: no intrinsic value.  A PI reached by a lane it does not
            // serve as a leaf makes that lane escape its boundary.
            std::fill(v, v + C, uint64_t{0});
            failed = net.is_pi(n) ? full : 0;
        }
        if (n == forbidden)
            failed = full;
        // Leaf lanes override with their projection word and never fail.
        uint32_t pending = st.leaf;
        while (pending != 0) {
            const auto j = static_cast<uint32_t>(std::countr_zero(pending));
            pending &= pending - 1;
            const auto& ls = cuts[j];
            const auto it = std::lower_bound(ls.begin(), ls.end(), n);
            v[j] = tt_projection_word(
                static_cast<uint32_t>(it - ls.begin()));
            failed &= ~(1u << j);
        }
        fail_[s] = failed;
    }

    const auto root_slot = state_[root].slot;
    const auto* rv = lanes_.data() + static_cast<size_t>(root_slot) * C;
    const uint32_t valid = live & ~fail_[root_slot];
    for (uint32_t j = 0; j < C; ++j)
        if ((live >> j) & 1)
            out[j] = rv[j] & tt_mask(static_cast<uint32_t>(cuts[j].size()));
    return valid;
}

uint64_t cone_simulator::simulate_cuts(const xag& net, uint32_t root,
                                       std::span<const leaf_set> cuts,
                                       std::vector<uint64_t>& out,
                                       uint32_t forbidden)
{
    if (cuts.size() > 64)
        throw std::invalid_argument{"simulate_cuts: at most 64 cuts per call"};
    out.assign(cuts.size(), 0);
    uint64_t valid = 0;
    for (size_t base = 0; base < cuts.size(); base += max_lanes) {
        const auto n = std::min<size_t>(max_lanes, cuts.size() - base);
        const auto chunk_valid =
            run_chunk(net, root, cuts.subspan(base, n),
                      std::span<uint64_t>{out.data() + base, n}, forbidden);
        valid |= static_cast<uint64_t>(chunk_valid) << base;
    }
    return valid;
}

std::optional<uint64_t> cone_simulator::cone_word(
    const xag& net, uint32_t root, std::span<const uint32_t> leaves,
    uint32_t forbidden)
{
    single_.assign(leaves.begin(), leaves.end());
    uint64_t word = 0;
    const auto valid =
        run_chunk(net, root, {&single_, 1}, {&word, 1}, forbidden);
    if ((valid & 1) == 0)
        return std::nullopt;
    return word;
}

} // namespace mcx
