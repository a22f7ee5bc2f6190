/**
 * @file
 * Load/store unit logic of the Core: policy-gated memory accesses,
 * store-to-load forwarding over virtual addresses, memory-dependence
 * speculation, and violation detection.
 */

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "uarch/core.h"

namespace spt {

namespace {

bool
rangesOverlap(uint64_t a, unsigned an, uint64_t b, unsigned bn)
{
    return a < b + bn && b < a + an;
}

bool
rangeCovers(uint64_t outer, unsigned outer_n, uint64_t inner,
            unsigned inner_n)
{
    return outer <= inner && inner + inner_n <= outer + outer_n;
}

} // namespace

DynInstPtr
Core::headStore() const
{
    const GateLists &g = store_gates_;
    if (g.open.empty())
        return g.refused.empty() ? nullptr : g.refused.front();
    if (g.refused.empty() ||
        g.open.front()->seq < g.refused.front()->seq)
        return g.open.front();
    return g.refused.front();
}

void
Core::memStage()
{
    // Only open entries are asked their gate. A refused entry's gate
    // stays shut until a wake event moves it back (its arrival at
    // the VP in updateVp, or an engine's wakeTransmitter), so it is
    // charged its delay cycle without a query, at the seq-order
    // position the query would have taken: observer events keep
    // their order, and the counters are charged in bulk.

    // Stores: the policy-gated "execution" step (address translation
    // and everything the paper counts as the store's transmit), in
    // order: the pass stops at the first store whose gate is shut.
    unsigned store_ports = params_.store_ports;
    GateLists &sg = store_gates_;
    while (store_ports != 0) {
        DynInstPtr st = headStore();
        if (!st)
            break;
        if (st->gate_list == GateList::kRefused) {
            noteTransmitterDelay(*st, DelayKind::kMemAccess);
            stats_.inc(ctr_.lsu_store_policy_delays);
            engine_->accrueBlockedTransmit(*st, DelayKind::kMemAccess,
                                           1);
            break;
        }
        sg.open.erase(sg.open.begin());
        if (!engine_->mayAccessMemory(*st)) {
            noteTransmitterDelay(*st, DelayKind::kMemAccess);
            stats_.inc(ctr_.lsu_store_policy_delays);
            st->gate_list = GateList::kRefused;
            sg.refused.insert(sg.refused.begin(), st);
            break;
        }
        st->gate_list = GateList::kNone;
        st->access_done = true;
        st->completed = true;
        --store_ports;
        stats_.inc(ctr_.lsu_store_translations);
        if (observer_) {
            observer_->gateOpened(cycle_, *st, DelayKind::kMemAccess);
            observer_->memAccess(cycle_, *st);
        }
    }

    // Loads, oldest first, until the ports are used: the refused
    // loads older than the last one visited are charged.
    unsigned load_ports = params_.load_ports;
    GateLists &lg = load_gates_;
    std::size_t charged = 0; // lg.refused[0, charged) charged this cycle
    uint64_t bulk = 0;       // of which charged without a query
    const auto chargeRefusedBefore = [&](SeqNum bound) {
        const auto end = std::lower_bound(
            lg.refused.begin() + static_cast<std::ptrdiff_t>(charged),
            lg.refused.end(), bound,
            [](const DynInstPtr &e, SeqNum s) { return e->seq < s; });
        const std::size_t n =
            static_cast<std::size_t>(end - lg.refused.begin());
        if (observer_)
            for (std::size_t i = charged; i < n; ++i)
                reportDelay(*lg.refused[i], DelayKind::kMemAccess);
        bulk += n - charged;
        charged = n;
    };
    std::size_t next = 0, kept = 0; // compacts lg.open in place
    while (next < lg.open.size() && load_ports != 0) {
        DynInstPtr ld = lg.open[next++];
        chargeRefusedBefore(ld->seq);
        if (!engine_->mayAccessMemory(*ld)) {
            noteTransmitterDelay(*ld, DelayKind::kMemAccess);
            stats_.inc(ctr_.lsu_load_policy_delay_cycles);
            ld->gate_list = GateList::kRefused;
            lg.refused.insert(
                lg.refused.begin() + static_cast<std::ptrdiff_t>(charged),
                ld);
            ++charged;
            continue;
        }
        if (tryLoadAccess(ld)) {
            ld->gate_list = GateList::kNone;
            --load_ports;
        } else {
            lg.open[kept++] = ld;
        }
    }
    lg.open.erase(lg.open.begin() + static_cast<std::ptrdiff_t>(kept),
                  lg.open.begin() + static_cast<std::ptrdiff_t>(next));
    if (load_ports != 0)
        chargeRefusedBefore(std::numeric_limits<SeqNum>::max());
    if (bulk != 0) {
        delay_mem_cycles_ += bulk;
        stats_.inc(ctr_.lsu_load_policy_delay_cycles, bulk);
        engine_->accrueBlockedTransmit(*lg.refused.front(),
                                       DelayKind::kMemAccess, bulk);
    }
}

/**
 * Attempts to start the memory access / forwarding of @p ld.
 * Returns true if the access was started (consumes a port).
 */
bool
Core::tryLoadAccess(const DynInstPtr &ld)
{
    // Scan older stores, youngest first, over *virtual* addresses
    // (which the LSQ knows even for stores whose policy-gated
    // execution has not happened yet — Section 6.7).
    DynInstPtr fwd = nullptr;
    bool unknown_addr_seen = false;
    for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
        const DynInstPtr &st = *it;
        if (st->seq > ld->seq || st->squashed)
            continue;
        if (!st->addr_known) {
            if (!params_.mem_dep_speculation) {
                stats_.inc(ctr_.lsu_load_dep_stall_cycles);
                return false;
            }
            if (ld->wait_store_seq != 0 &&
                st->seq == ld->wait_store_seq) {
                // Store-set predicted dependence: wait for it.
                stats_.inc(ctr_.lsu_store_set_stall_cycles);
                return false;
            }
            unknown_addr_seen = true;
            continue;
        }
        if (!rangesOverlap(st->eff_addr, st->mem_bytes, ld->eff_addr,
                           ld->mem_bytes))
            continue;
        if (rangeCovers(st->eff_addr, st->mem_bytes, ld->eff_addr,
                        ld->mem_bytes)) {
            fwd = st;
            break;
        }
        // Partial overlap: wait until the store drains to memory.
        stats_.inc(ctr_.lsu_partial_overlap_stall_cycles);
        return false;
    }

    unsigned latency;
    if (fwd) {
        ld->forwarded = true;
        ld->forwarding_store = fwd->seq;
        bool fast_path = engine_->stlForwardingPublic(*ld, *fwd);
        if (fast_path && faults_ &&
            faults_->fire(FaultSite::kStlDeny)) {
            // Deny the forwarding fast path: take the hidden
            // cache-access route below even though STLPublic holds.
            // The data is still forwarded from the store — only the
            // latency (and cache state) changes.
            fast_path = false;
            stats_.inc(ctr_.fault_stl_denials);
        }
        if (fast_path) {
            // Ordinary forwarding fast path, no cache access.
            latency = memsys_.l1d().params().latency;
            stats_.inc(ctr_.lsu_forwards_public);
        } else {
            // Hide the forwarding decision: access the cache anyway
            // and ignore the returned data (Section 6.7).
            const MemAccessResult res = memsys_.access(
                ld->eff_addr, AccessKind::kLoad, cycle_);
            if (!res.accepted) {
                stats_.inc(ctr_.lsu_mshr_retries);
                ld->forwarded = false;
                ld->forwarding_store = 0;
                return false;
            }
            latency = res.latency;
            stats_.inc(ctr_.lsu_forwards_hidden);
        }
    } else {
        const MemAccessResult res =
            memsys_.access(ld->eff_addr, AccessKind::kLoad, cycle_);
        if (!res.accepted) {
            stats_.inc(ctr_.lsu_mshr_retries);
            return false;
        }
        latency = res.latency;
        if (unknown_addr_seen)
            ld->speculated_past_store = true;
        stats_.inc(ctr_.lsu_load_accesses);
    }

    ld->access_done = true;
    if (observer_) {
        observer_->gateOpened(cycle_, *ld, DelayKind::kMemAccess);
        observer_->memAccess(cycle_, *ld);
    }
    completions_.push(cycle_ + latency, refOf(*ld));
    return true;
}

void
Core::completeLoadData(const DynInstPtr &ld)
{
    uint64_t raw;
    if (ld->forwarded) {
        const DynInst *st = findInst(ld->forwarding_store);
        if (st) {
            raw = st->store_data >>
                  (8 * (ld->eff_addr - st->eff_addr));
        } else {
            // The forwarding store retired while the load was in
            // flight; its data is in memory now.
            raw = mem_.read(ld->eff_addr, ld->mem_bytes);
        }
    } else {
        raw = mem_.read(ld->eff_addr, ld->mem_bytes);
    }
    ld->result = finishLoad(ld->si.op, raw);

    engine_->onLoadData(*ld, ld->forwarded, ld->forwarding_store);

    if (ld->has_dest)
        writeReg(ld->prd, ld->result);
    ld->executed = true;
    ld->completed = true;
    if (observer_)
        observer_->executed(cycle_, *ld);
}

/**
 * A store's virtual address just became known: flag younger loads
 * that already obtained data from a stale source.
 */
void
Core::checkViolationsFromStore(const DynInstPtr &st)
{
    for (const DynInstPtr &ld : lq_) {
        if (ld->seq < st->seq || ld->squashed || !ld->access_done)
            continue;
        if (ld->mem_violation_pending)
            continue;
        if (!rangesOverlap(st->eff_addr, st->mem_bytes, ld->eff_addr,
                           ld->mem_bytes))
            continue;
        // The load got its data from memory or from a store older
        // than st; either way it missed st's data.
        if (ld->forwarded && ld->forwarding_store > st->seq)
            continue;
        ld->mem_violation_pending = true;
        addPendingSquash(ld);
        ld->violating_store_pc = st->pc;
        stats_.inc(ctr_.lsu_violations_detected);
    }
}

} // namespace spt
