#include "core/xor_resynthesis.h"

#include "core/mffc.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <iterator>
#include <queue>
#include <span>
#include <utility>
#include <vector>

namespace mcx {

namespace {

/// A linear block root expressed over terminals: value = parity of the
/// terminal node values in `terms` (sorted ascending), complemented if
/// `constant`.
struct linear_row {
    uint32_t root = 0;
    std::vector<uint32_t> terms;
    bool constant = false;
};

/// Pair counts in one flat open-addressing table (linear probing, load at
/// most 1/2), keyed by the packed pair (a << 32) | b with a < b — so key
/// order is the (a, b) order extraction breaks ties by.  A slot holds the
/// pair and its count together (12 bytes), so a lookup mostly touches one
/// cache line.  A pair is never erased: a count that falls to zero keeps
/// its slot, and size() is the number of distinct pairs ever counted.
class pair_table {
public:
    pair_table() { grow(); }

    static uint64_t key(uint32_t a, uint32_t b)
    {
        return a < b ? (uint64_t{a} << 32) | b : (uint64_t{b} << 32) | a;
    }

    /// Count one more occurrence of `k` (inserted if new); the new count.
    uint32_t increment(uint64_t k)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        auto& s = slots_[probe(k)];
        if (s.a == empty) {
            s = {static_cast<uint32_t>(k >> 32), static_cast<uint32_t>(k), 0};
            ++size_;
        }
        return ++s.count;
    }

    /// Count one occurrence of `k` less; `k` must have been counted.
    void decrement(uint64_t k) { --slots_[probe(k)].count; }

    /// The count of `k`, zero if it was never counted.
    uint32_t count(uint64_t k) const { return slots_[probe(k)].count; }

    size_t size() const { return size_; }

    template <typename F>
    void for_each(F&& f) const
    {
        for (const auto& s : slots_)
            if (s.a != empty)
                f((uint64_t{s.a} << 32) | s.b, s.count);
    }

private:
    static constexpr uint32_t empty = ~uint32_t{0}; // a < b: never a key
    struct slot {
        uint32_t a = empty, b = 0, count = 0;
    };

    /// The slot holding `k`, or the empty slot where it would go.
    size_t probe(uint64_t k) const
    {
        // Fibonacci hashing: the top bits of k * 2^64 / phi.
        auto i = static_cast<size_t>((k * 0x9E3779B97F4A7C15ull) >> shift_);
        const auto a = static_cast<uint32_t>(k >> 32);
        const auto b = static_cast<uint32_t>(k);
        while (slots_[i].a != empty && (slots_[i].a != a || slots_[i].b != b))
            i = (i + 1) & (slots_.size() - 1);
        return i;
    }

    void grow()
    {
        std::vector<slot> old(slots_.empty() ? 1024 : 2 * slots_.size());
        slots_.swap(old);
        shift_ = 64 - std::countr_zero(slots_.size());
        for (const auto& s : old)
            if (s.a != empty)
                slots_[probe((uint64_t{s.a} << 32) | s.b)] = s;
    }

    std::vector<slot> slots_;
    size_t size_ = 0;
    int shift_ = 64;
};

/// Rows join the pair extraction narrowest-first while the cumulative
/// sum of width² stays within this bound: pair seeding is quadratic per
/// row, and extraction cost tracks the same sum.  It admits every row of
/// rewrite-scale circuits — 16-term and 200-term rows alike — while the
/// widest accumulator rows of full-hash linear systems (MD5's run to
/// ~4 500 terms, Σwidth² ≈ 8.5 · 10¹⁰) keep their existing trees.
constexpr uint64_t pairing_work_budget = 2'000'000;

/// The rows of every block root (`is_root`), in ascending root id, built
/// in one topological sweep: an XOR node's terms are the symmetric
/// difference of its fanins' terms — a terminal (AND node or PI) stands
/// for itself, node 0 for nothing — so a terminal reached along an even
/// number of paths cancels; its constant is the XOR of its fanins'
/// constants and edge complements.  A non-root row is released once its
/// last XOR fanout has read it.
std::vector<linear_row> build_rows(const xag& net,
                                   const std::vector<uint8_t>& is_root)
{
    std::vector<uint32_t> slot(net.size(), 0); // XOR node -> rows index
    std::vector<linear_row> rows;
    for (uint32_t n = 0; n < net.size(); ++n)
        if (net.is_xor(n) && !net.is_dead(n)) {
            slot[n] = static_cast<uint32_t>(rows.size());
            rows.push_back({n, {}, false});
        }
    std::vector<uint32_t> pending(rows.size(), 0); // XOR fanouts unswept
    for (const auto& row : rows)
        for (const auto fi : {net.fanin0(row.root), net.fanin1(row.root)})
            if (net.is_xor(fi.node()))
                ++pending[slot[fi.node()]];
    const auto release_if_done = [&](uint32_t n) {
        if (pending[slot[n]] == 0 && !is_root[n])
            std::vector<uint32_t>{}.swap(rows[slot[n]].terms);
    };

    std::vector<uint32_t> merged;
    for (const auto n : net.topological_order()) {
        if (!net.is_xor(n))
            continue;
        const std::array<signal, 2> fanins{net.fanin0(n), net.fanin1(n)};
        std::array<uint32_t, 2> single{};
        std::array<std::span<const uint32_t>, 2> terms;
        bool constant = false;
        for (size_t i = 0; i < 2; ++i) {
            const auto m = fanins[i].node();
            constant ^= fanins[i].complemented();
            if (net.is_xor(m)) {
                terms[i] = rows[slot[m]].terms;
                constant ^= rows[slot[m]].constant;
            } else if (m != 0) {
                single[i] = m;
                terms[i] = std::span{&single[i], 1};
            }
        }
        // Merged in scratch so each row is allocated at its exact size.
        merged.clear();
        std::set_symmetric_difference(terms[0].begin(), terms[0].end(),
                                      terms[1].begin(), terms[1].end(),
                                      std::back_inserter(merged));
        rows[slot[n]].terms.assign(merged.begin(), merged.end());
        rows[slot[n]].constant = constant;
        for (const auto fi : fanins)
            if (net.is_xor(fi.node())) {
                --pending[slot[fi.node()]];
                release_if_done(fi.node());
            }
        release_if_done(n);
    }
    std::erase_if(rows,
                  [&](const linear_row& row) { return !is_root[row.root]; });
    return rows;
}

/// Why a polled token stopped the pass.  Stopping must not throw: the
/// protected-ref release sweeps at the end of the pass are unconditional
/// cleanup, so the token breaks out of the loops and the stats carry this.
outcome stop_outcome(const cancellation_token& token)
{
    const auto reason = token.stop_reason();
    return reason == outcome::ok ? outcome::cancelled : reason;
}

} // namespace

namespace detail {

pair_extraction extract_pairs(std::vector<std::vector<uint32_t>>& rows,
                              uint32_t num_terms,
                              const cancellation_token& token)
{
    pair_extraction out;
    // Seeding only counts.
    std::vector<std::vector<uint32_t>> rows_of_term(num_terms);
    pair_table count;
    for (uint32_t r = 0; r < rows.size(); ++r) {
        const auto& t = rows[r];
        for (size_t i = 0; i < t.size(); ++i) {
            rows_of_term[t[i]].push_back(r);
            for (size_t j = i + 1; j < t.size(); ++j)
                count.increment(pair_table::key(t[i], t[j]));
        }
    }

    // Max-heap on (count, key), built once over the repeated seeded pairs.
    // After seeding, only the pairs (t, id) of a step's fresh `id` are ever
    // incremented; each is pushed once, at its count after the step.  Every
    // other count only falls, so an entry is never below its pair's count,
    // and a stale one is requeued at the lower count while it repeats.
    using entry = std::pair<uint32_t, uint64_t>;
    std::vector<entry> repeated;
    count.for_each([&](uint64_t k, uint32_t c) {
        if (c >= 2)
            repeated.push_back({c, k});
    });
    std::priority_queue<entry> heap{std::less<entry>{}, std::move(repeated)};

    std::vector<uint64_t> fresh;
    while (!heap.empty()) {
        if (((out.queue_pops + 1) & 1023u) == 0 && token.stop_requested()) {
            out.status = stop_outcome(token);
            break;
        }
        const auto [c, k] = heap.top();
        heap.pop();
        ++out.queue_pops;
        if (const auto now = count.count(k); now != c) {
            if (now >= 2)
                heap.push({now, k});
            continue;
        }
        const auto a = static_cast<uint32_t>(k >> 32);
        const auto b = static_cast<uint32_t>(k);
        const auto id = static_cast<uint32_t>(rows_of_term.size());
        rows_of_term.emplace_back();
        out.plan.push_back({a, b, id});

        fresh.clear();
        for (const auto r : rows_of_term[a]) {
            auto& row = rows[r];
            if (!std::binary_search(row.begin(), row.end(), a) ||
                !std::binary_search(row.begin(), row.end(), b))
                continue;
            for (const auto t : row) {
                if (t == a || t == b)
                    continue;
                count.decrement(pair_table::key(a, t));
                count.decrement(pair_table::key(b, t));
                if (count.increment(pair_table::key(t, id)) == 1)
                    fresh.push_back(pair_table::key(t, id));
            }
            count.decrement(k);
            std::erase_if(row, [&](uint32_t t) { return t == a || t == b; });
            row.push_back(id); // the largest id yet: the row stays ascending
            rows_of_term[id].push_back(r);
        }
        for (const auto f : fresh)
            if (const auto n = count.count(f); n >= 2)
                heap.push({n, f});
    }

    out.pairs_counted = count.size();
    return out;
}

} // namespace detail

xor_resynthesis_stats xor_resynthesis(xag& network,
                                      const xor_resynthesis_params& params)
{
    xor_resynthesis_stats stats;
    stats.xors_before = network.num_xors();
    const uint32_t base_size = network.size(); // term ids below are real

    // Block roots: XOR nodes consumed by an AND gate or a primary output.
    // Interior XOR nodes (all fanouts are XOR gates feeding the same
    // blocks) are folded into their fanouts' rows.
    std::vector<uint8_t> is_root(network.size(), 0);
    for (const auto n : network.topological_order()) {
        if (!network.is_and(n))
            continue;
        for (const auto fi : {network.fanin0(n), network.fanin1(n)})
            if (network.is_xor(fi.node()))
                is_root[fi.node()] = 1;
    }
    for (uint32_t i = 0; i < network.num_pos(); ++i)
        if (network.is_xor(network.po_at(i).node()))
            is_root[network.po_at(i).node()] = 1;

    std::vector<linear_row> rows;
    {
        obs::trace::trace_span expand_span{"phase.xor-expand"};
        rows = build_rows(network, is_root);
        expand_span.set_arg(rows.size());
    }
    if (rows.empty()) {
        stats.xors_after = stats.xors_before;
        return stats;
    }
    stats.blocks = static_cast<uint32_t>(rows.size());

    // Paar's greedy algorithm on the whole system (detail::extract_pairs).
    // Pairing works in a DENSE id space: the distinct terminals of the
    // narrow rows get ids [0, num_terms) in ascending node order, and the
    // extraction mints ids above them, so its per-term tables span only
    // the ids that can occur.  The mapping is monotone, so pair order,
    // tie-breaking and the ascending chain-rebuild scan are those of the
    // node-id formulation.  The phase.xor-pair span covers admission,
    // seeding and extraction.
    std::vector<uint8_t> narrow(rows.size(), 0);
    std::vector<uint32_t> slot(rows.size(), 0); // narrow row -> paired row
    std::vector<uint32_t> term_of;              // dense id -> node id
    std::vector<std::vector<uint32_t>> paired;  // narrow rows, dense ids
    detail::pair_extraction extraction;
    {
        obs::trace::trace_span pair_span{"phase.xor-pair"};
        // Rows join narrowest-first under pairing_work_budget; the rest
        // keep their trees.  Admission depends only on the multiset of row
        // widths, so it is deterministic.
        std::vector<uint32_t> by_width(rows.size());
        for (uint32_t r = 0; r < rows.size(); ++r) {
            by_width[r] = r;
            stats.widest_row =
                std::max(stats.widest_row,
                         static_cast<uint32_t>(rows[r].terms.size()));
        }
        std::stable_sort(by_width.begin(), by_width.end(),
                         [&](uint32_t a, uint32_t b) {
                             return rows[a].terms.size() <
                                    rows[b].terms.size();
                         });
        uint64_t work = 0;
        for (const auto r : by_width) {
            const auto w = static_cast<uint64_t>(rows[r].terms.size());
            if (work + w * w > pairing_work_budget)
                break; // sorted: every later row is at least as wide
            work += w * w;
            narrow[r] = 1;
            ++stats.rows_paired;
            stats.widest_row_paired =
                std::max(stats.widest_row_paired, static_cast<uint32_t>(w));
        }

        for (size_t r = 0; r < rows.size(); ++r)
            if (narrow[r])
                term_of.insert(term_of.end(), rows[r].terms.begin(),
                               rows[r].terms.end());
        std::sort(term_of.begin(), term_of.end());
        term_of.erase(std::unique(term_of.begin(), term_of.end()),
                      term_of.end());
        std::vector<uint32_t> dense_of(base_size, 0);
        for (uint32_t d = 0; d < term_of.size(); ++d)
            dense_of[term_of[d]] = d;

        paired.resize(stats.rows_paired);
        for (uint32_t r = 0, p = 0; r < rows.size(); ++r)
            if (narrow[r]) {
                slot[r] = p;
                for (const auto t : rows[r].terms)
                    paired[p].push_back(dense_of[t]);
                ++p;
            }
        extraction = detail::extract_pairs(
            paired, static_cast<uint32_t>(term_of.size()), params.token);
        pair_span.set_arg(extraction.plan.size());
    }
    const auto num_terms = static_cast<uint32_t>(term_of.size());
    const auto& plan = extraction.plan;
    stats.pairs_extracted = static_cast<uint32_t>(plan.size());
    stats.pairs_counted = extraction.pairs_counted;
    stats.pair_queue_pops = extraction.queue_pops;
    stats.status = extraction.status;

    // Pin every real terminal: substitution cascades below may restructure
    // later rows' old cones and would otherwise free terminals before
    // their new chains are built.  Flags instead of a set; the take/release
    // sweeps walk them in the same ascending order.
    std::vector<uint8_t> is_protected(base_size, 0);
    for (uint32_t r = 0; r < rows.size(); ++r) {
        if (narrow[r]) {
            for (const auto term : paired[slot[r]])
                if (term < num_terms)
                    is_protected[term_of[term]] = 1;
        } else
            for (const auto term : rows[r].terms)
                is_protected[term] = 1;
    }
    for (const auto& p : plan) {
        if (p.a < num_terms)
            is_protected[term_of[p.a]] = 1;
        if (p.b < num_terms)
            is_protected[term_of[p.b]] = 1;
    }
    for (uint32_t term = 0; term < base_size; ++term)
        if (is_protected[term])
            network.take_ref(signal{term, false});

    // Materialize lazily: a planned pair gate is created the first time a
    // chain consumes it (recursively: pairs of pairs), so its cost lands in
    // that chain's `created` and the gain check below charges the first
    // consumer for it — later consumers share it for free, and a pair no
    // chain ever uses is never built.  Building all pairs up front instead
    // charged them to nobody, which let wide-row pairing *grow* the
    // network when rebuilds were rejected.  Terminals merged away by
    // cascades are followed via resolve().
    std::vector<signal> planned_signal(plan.size());
    std::vector<uint8_t> planned_built(plan.size(), 0);
    std::vector<uint32_t> built_this_row;
    const auto signal_of = [&](auto&& self, uint32_t term) -> signal {
        if (term < num_terms)
            return network.resolve(signal{term_of[term], false});
        const auto idx = term - num_terms;
        if (!planned_built[idx]) {
            const auto& p = plan[idx];
            const auto g = network.create_xor(self(self, p.a),
                                              self(self, p.b));
            planned_signal[idx] = g;
            planned_built[idx] = 1;
            built_this_row.push_back(idx);
            network.take_ref(g);
        }
        return network.resolve(planned_signal[idx]);
    };
    // Drop the pair gates a rejected rebuild materialized (reverse build
    // order releases pair-of-pair parents before their children): keeping
    // them would hand later rows gates whose cost no gain check ever
    // approved.  A later chain that does profit re-creates them and pays.
    const auto rollback_pairs = [&] {
        for (auto it = built_this_row.rbegin(); it != built_this_row.rend();
             ++it) {
            network.release_ref(planned_signal[*it]);
            planned_built[*it] = 0;
        }
    };

    mffc_workspace mffc_ws;
    for (uint32_t r = 0; r < rows.size(); ++r) {
        if (params.token.stop_requested()) {
            // Rows already rebuilt keep their gains; the rest keep their
            // old trees.  Either way the network stays equivalent.
            stats.status = stop_outcome(params.token);
            break;
        }
        const auto& row = rows[r];
        if (network.is_dead(row.root))
            continue; // collapsed by an earlier substitution in this pass
        if (!narrow[r])
            continue; // rows beyond the pairing budget keep their trees
        built_this_row.clear();
        const auto xors_before_row = network.num_xors();
        auto acc = network.get_constant(row.constant);
        for (const auto term : paired[slot[r]])
            acc = network.create_xor(acc, signal_of(signal_of, term));
        const auto created = network.num_xors() - xors_before_row;
        const auto resolved = network.resolve(acc);
        if (resolved.node() == row.root) {
            // Already in optimal form: every chain gate strash-hit an
            // existing node, so only this row's fresh pair gates (if any)
            // need dropping.
            rollback_pairs();
            continue;
        }
        network.take_ref(resolved);
        // Gain check mirroring the rewriting engine: what the new chain
        // costs (after strashing) vs. the XOR gates exclusively owned by
        // the old cone (the chain's references pin anything shared).
        const auto freed =
            mffc_gate_count(network, row.root, row.terms, mffc_ws) -
            mffc_and_count(network, row.root, row.terms, mffc_ws);
        if (created <= freed) {
            network.substitute(row.root, resolved);
            network.release_ref(network.resolve(resolved));
        } else {
            network.release_ref(resolved);
            rollback_pairs();
        }
    }

    // Release the tokens on the nodes they were taken on: a reference taken
    // on a node that was merged away afterwards must not be released on the
    // merge survivor (that would steal one of its real references).  Pair
    // gates only the rejected rebuilds needed die right here.
    for (const auto& p : plan)
        if (planned_built[p.id - num_terms])
            network.release_ref(planned_signal[p.id - num_terms]);
    for (uint32_t term = 0; term < base_size; ++term)
        if (is_protected[term])
            network.release_ref(signal{term, false});

    static const auto blocks_metric = obs::register_metric("xor.blocks");
    static const auto pairs_metric = obs::register_metric("xor.pairs");
    static const auto pops_metric = obs::register_metric("xor.queue_pops");
    blocks_metric.add(stats.blocks);
    pairs_metric.add(stats.pairs_extracted);
    pops_metric.add(stats.pair_queue_pops);
    stats.xors_after = network.num_xors();
    return stats;
}

} // namespace mcx
