/**
 * @file
 * Commit, squash/recovery, and visibility-point logic of the Core.
 */

#include <algorithm>

#include "common/logging.h"
#include "uarch/core.h"

namespace spt {

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
Core::commitStage()
{
    for (unsigned n = 0; n < params_.commit_width; ++n) {
        if (rob_.empty())
            break;
        DynInst *d = rob_.front();
        if (!d->completed || d->squash_pending ||
            d->mem_violation_pending)
            break;

        if (d->is_store) {
            // The store buffer drains to the L1D; commit does not
            // stall on the access latency.
            mem_.write(d->eff_addr, d->store_data, d->mem_bytes);
            memsys_.access(d->eff_addr, AccessKind::kStore, cycle_);
            engine_->onStoreCommit(*d);
            store_sets_.storeRemoved(d->pc, d->seq);
            SPT_ASSERT(!sq_.empty() && sq_.front() == d,
                       "store commit out of order");
            sq_.erase(sq_.begin());
        }
        if (d->is_load) {
            SPT_ASSERT(!lq_.empty() && lq_.front() == d,
                       "load commit out of order");
            lq_.erase(lq_.begin());
        }
        if (d->is_ctrl) {
            bpu_.commitUpdate(d->pc, d->si, d->exec.is_taken,
                              d->exec.target);
        }
        if (d->has_dest && d->prev_prd != kNoPhysReg)
            prf_.free(d->prev_prd);

        engine_->onRetire(*d);
        if (commit_hook_)
            commit_hook_(*d);
        if (observer_)
            observer_->retired(cycle_, *d);
        rob_.pop_front();
        // The head is at the VP; a squash resolved this cycle may
        // have let it commit before the cursor passed it.
        if (vp_frontier_ != 0)
            --vp_frontier_;
        ++retired_;
        stats_.inc(ctr_.commit_instructions);

        const bool halt = d->si.op == Opcode::kHalt;
        const SeqNum seq = d->seq;
        const uint64_t pc = d->pc;
        releaseInst(d);
        if (halt) {
            halted_ = true;
            // Drain: squash everything fetched past the halt so the
            // RAT reflects final architectural state.
            squashFrom(seq + 1, pc + 1, nullptr);
            break;
        }
    }
}

// --------------------------------------------------------------------
// Squash handling
// --------------------------------------------------------------------

void
Core::handleSquashes()
{
    // At most one squash per cycle; oldest eligible first. A blocked
    // candidate older than the performed squash is charged one delay
    // cycle (candidates younger than it are squashed this cycle and
    // charge nothing — the same engine queries fire either way).
    // Only flagged entries are visited, in ROB order; the pointer is
    // copied out because a squash edits the list.
    for (std::size_t i = 0; i < pending_squashes_.size(); ++i) {
        const DynInstPtr d = pending_squashes_[i];
        if (d->squash_pending) {
            if (engine_->mayResolveBranch(*d)) {
                performControlSquash(d);
                return;
            }
            noteTransmitterDelay(*d, DelayKind::kBranchResolve);
        }
        if (d->mem_violation_pending) {
            if (engine_->maySquashMemViolation(*d)) {
                performMemSquash(d);
                return;
            }
            noteTransmitterDelay(*d, DelayKind::kMemOrderSquash);
        }
    }
}

void
Core::performControlSquash(const DynInstPtr &branch)
{
    branch->squash_pending = false;
    stats_.inc(ctr_.squash_control);
    if (observer_)
        observer_->gateOpened(cycle_, *branch,
                              DelayKind::kBranchResolve);
    squashFrom(branch->seq + 1, branch->actual_next_pc, branch);
    // squashFrom dropped every younger entry, so the branch is last
    // (a branch never carries mem_violation_pending).
    SPT_ASSERT(!pending_squashes_.empty() &&
                   pending_squashes_.back() == branch,
               "pending-squash list out of sync");
    pending_squashes_.pop_back();
    bpu_.repair(branch->pc, branch->si, branch->exec.is_taken);
}

void
Core::performMemSquash(const DynInstPtr &load)
{
    stats_.inc(ctr_.squash_mem_violation);
    if (observer_)
        observer_->gateOpened(cycle_, *load,
                              DelayKind::kMemOrderSquash);
    store_sets_.trainViolation(load->pc, load->violating_store_pc);
    // Squash the load itself and everything younger; refetch from the
    // load's own pc.
    squashFrom(load->seq, load->pc, nullptr);
}

void
Core::squashFrom(SeqNum first_squashed, uint64_t new_fetch_pc,
                 const DynInstPtr &resolved_branch)
{
    // If no explicit control checkpoint drives the recovery (memory
    // violation), restore the oldest squashed control instruction's
    // pre-prediction state.
    const DynInstPtr *restore_from = nullptr;
    if (resolved_branch) {
        restore_from = &resolved_branch;
    } else {
        for (const DynInstPtr &d : rob_) {
            if (d->seq >= first_squashed && d->has_checkpoint) {
                restore_from = &d;
                break;
            }
        }
        if (!restore_from) {
            // The oldest squashed control instruction may still be
            // in the fetch queue (predicted but not yet renamed).
            for (const FetchEntry &fe : fetch_queue_) {
                if (fe.inst->seq >= first_squashed &&
                    fe.inst->has_checkpoint) {
                    restore_from = &fe.inst;
                    break;
                }
            }
        }
    }
    if (restore_from)
        bpu_.restore((*restore_from)->checkpoint);

    // The seq-ordered lists lose their squashed tails first: the
    // ROB walk below releases the instructions they point to.
    const auto drop_tail = [first_squashed](std::vector<DynInstPtr> &v) {
        while (!v.empty() && v.back()->seq >= first_squashed)
            v.pop_back();
    };
    drop_tail(pending_squashes_);
    drop_tail(ready_);
    drop_tail(lq_);
    drop_tail(sq_);
    drop_tail(load_gates_.open);
    drop_tail(load_gates_.refused);
    drop_tail(store_gates_.open);
    drop_tail(store_gates_.refused);

    // Walk the ROB from the tail, undoing rename mappings.
    while (!rob_.empty() && rob_.back()->seq >= first_squashed) {
        DynInst *d = rob_.back();
        d->squashed = true;
        engine_->onSquash(*d);
        if (observer_)
            observer_->squashed(cycle_, *d);
        if (d->has_dest) {
            rat_.set(d->si.rd, d->prev_prd);
            prf_.free(d->prd);
        }
        if (d->is_store)
            store_sets_.storeRemoved(d->pc, d->seq);
        if (d->in_rs)
            --rs_count_;
        rob_.pop_back();
        stats_.inc(ctr_.squash_instructions);
        releaseInst(d);
    }
    vp_frontier_ = std::min(vp_frontier_, rob_.size());
    for (FetchEntry &fe : fetch_queue_) {
        fe.inst->squashed = true;
        engine_->onSquash(*fe.inst);
        if (observer_)
            observer_->squashed(cycle_, *fe.inst);
        releaseInst(fe.inst);
    }
    fetch_queue_.clear();

    fetch_pc_ = new_fetch_pc;
    fetch_stall_until_ = cycle_ + params_.redirect_penalty;
}

void
Core::addPendingSquash(const DynInstPtr &d)
{
    // Completions arrive out of order, so insert at the seq position.
    insertBySeq(pending_squashes_, d);
}

// --------------------------------------------------------------------
// Visibility point
// --------------------------------------------------------------------

bool
Core::blocksVp(const DynInst &d) const
{
    if (params_.attack_model == AttackModel::kSpectre) {
        // Control-flow speculation, augmented with data speculation
        // sources (unresolved store addresses and pending
        // violations) so the VP stays sound under memory-dependence
        // speculation (paper Section 8).
        return (d.is_squash_source && (!d.executed || d.squash_pending)) ||
               (d.is_store && !d.addr_known) || d.mem_violation_pending;
    }
    // Futuristic: non-squashable.
    return !d.completed || d.squash_pending || d.mem_violation_pending;
}

void
Core::updateVp()
{
    // The at_vp prefix reaches up to and including the oldest
    // blocker. An entry that blocks nothing never blocks again (a
    // branch is unresolved only until it executes and its squash is
    // performed, a store's address stays known, and a violation is
    // flagged only on a load younger than a store whose address was
    // unknown, i.e. behind a blocker), and squashes cut only the
    // tail, so the cursor resumes at the last blocker and visits
    // each instruction once. The vp-frontier invariant re-derives
    // it from the head.
    while (vp_frontier_ < rob_.size()) {
        DynInst *d = rob_[vp_frontier_];
        if (!d->at_vp) {
            d->at_vp = true;
            if (observer_)
                observer_->reachedVp(cycle_, *d);
            // Every engine's memory gate opens at the VP.
            wakeTransmitter(*d);
        }
        if (blocksVp(*d))
            break;
        ++vp_frontier_;
    }
}

} // namespace spt
