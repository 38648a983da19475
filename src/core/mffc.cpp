#include "core/mffc.h"

namespace mcx {

namespace {

uint32_t mffc_count(const xag& network, uint32_t root,
                    std::span<const uint32_t> leaves, bool count_xor,
                    mffc_workspace& ws)
{
    if (ws.slots.size() < network.size())
        ws.slots.resize(network.size());
    if (++ws.epoch == 0) { // wrapped: forget every stale stamp
        for (auto& s : ws.slots)
            s.stamp = 0;
        ws.epoch = 1;
    }
    const auto epoch = ws.epoch;
    for (const auto l : leaves)
        ws.slots[l] = {epoch, mffc_workspace::leaf};

    // Simulated dereferencing: a fanin whose (local) reference count drops
    // to zero joins the cone.
    auto& stack = ws.stack;
    stack.assign(1, root);
    uint32_t count = 0;
    while (!stack.empty()) {
        const auto n = stack.back();
        stack.pop_back();
        if (count_xor || network.is_and(n))
            ++count;
        for (const auto fi : {network.fanin0(n), network.fanin1(n)}) {
            const auto child = fi.node();
            if (!network.is_gate(child))
                continue;
            auto& s = ws.slots[child];
            if (s.stamp != epoch)
                s = {epoch, network.ref_count(child)};
            else if (s.remaining == mffc_workspace::leaf)
                continue;
            if (--s.remaining == 0)
                stack.push_back(child);
        }
    }
    return count;
}

} // namespace

uint32_t mffc_and_count(const xag& network, uint32_t root,
                        std::span<const uint32_t> leaves, mffc_workspace& ws)
{
    return mffc_count(network, root, leaves, false, ws);
}

uint32_t mffc_gate_count(const xag& network, uint32_t root,
                         std::span<const uint32_t> leaves, mffc_workspace& ws)
{
    return mffc_count(network, root, leaves, true, ws);
}

} // namespace mcx
