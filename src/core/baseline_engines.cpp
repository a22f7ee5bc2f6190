#include "core/baseline_engines.h"

#include <algorithm>

#include "common/logging.h"
#include "uarch/core.h"

namespace spt {

void
SttEngine::attach(Core &core)
{
    SecurityEngine::attach(core);
    // Architectural state present before execution is, by STT's
    // definition, non-speculatively accessed: no roots.
    root_.assign(core.physRegs().numRegs(), RootRef{});
    roots_.assign(core.params().lq_size, RootSlot{});
    roots_head_ = 0;
    roots_count_ = 0;
    roots_at_vp_ = 0;
}

void
SttEngine::onRename(DynInst &d)
{
    if (!d.has_dest)
        return;
    if (d.is_load) {
        // Access instruction: its own output is the taint root.
        SPT_ASSERT(roots_count_ < roots_.size(),
                   "more root loads in flight than LQ entries");
        const std::size_t slot =
            (roots_head_ + roots_count_++) % roots_.size();
        roots_[slot] = {d.seq, &d};
        root_[d.prd] = {d.seq, static_cast<uint32_t>(slot)};
        return;
    }
    RootRef root;
    if (d.num_srcs >= 1 && rootLive(root_[d.prs1]))
        root = root_[d.prs1];
    if (d.num_srcs >= 2 && rootLive(root_[d.prs2]) &&
        root_[d.prs2].seq > root.seq)
        root = root_[d.prs2];
    root_[d.prd] = root;
}

void
SttEngine::onRetire(const DynInst &d)
{
    // Retired roots no longer taint.
    if (roots_count_ != 0 && roots_[roots_head_].seq == d.seq) {
        roots_[roots_head_].seq = 0;
        roots_head_ = (roots_head_ + 1) % roots_.size();
        --roots_count_;
        if (roots_at_vp_ != 0)
            --roots_at_vp_;
    }
}

void
SttEngine::onSquash(const DynInst &d)
{
    // Squashed roots no longer taint.
    if (roots_count_ == 0)
        return;
    const std::size_t tail =
        (roots_head_ + roots_count_ - 1) % roots_.size();
    if (roots_[tail].seq == d.seq) {
        roots_[tail].seq = 0;
        --roots_count_;
        roots_at_vp_ = std::min(roots_at_vp_, roots_count_);
    }
}

void
SttEngine::tick()
{
    // A root at the VP no longer taints: its refused dependents may
    // access memory now. This is the only event that can open a
    // refused STT memory gate besides the transmitter's own arrival
    // at the VP, which the core handles.
    if (!rootReachedVp())
        return;
    do {
        ++roots_at_vp_;
    } while (rootReachedVp());
    core_->wakeTransmitters(
        [this](const DynInst &d) { return !regTainted(d.prs1); });
}

bool
SttEngine::taintRootsConsistent() const
{
    // The reference: a root taints iff the ROB still holds its load
    // short of the VP (STT's single-cycle untaint at the VP).
    for (const RootRef &root : root_) {
        const DynInst *d =
            root.seq != 0 ? core_->findInst(root.seq) : nullptr;
        if (rootLive(root) != (d != nullptr && !d->at_vp))
            return false;
    }
    return true;
}

bool
SttEngine::regTainted(PhysReg reg) const
{
    return reg != kNoPhysReg && rootLive(root_[reg]);
}

uint64_t
SttEngine::taintedRegCount() const
{
    uint64_t n = 0;
    for (std::size_t reg = 0; reg < root_.size(); ++reg)
        if (regTainted(static_cast<PhysReg>(reg)))
            ++n;
    return n;
}

bool
SttEngine::mayAccessMemory(const DynInst &d) const
{
    if (d.at_vp)
        return true;
    const bool blocked = regTainted(d.prs1);
    if (blocked)
        stats_.inc(mem_blocked_checks_);
    return !blocked;
}

bool
SttEngine::mayResolveBranch(const DynInst &d) const
{
    if (d.at_vp)
        return true;
    if (d.num_srcs >= 1 && regTainted(d.prs1))
        return false;
    if (d.num_srcs >= 2 && regTainted(d.prs2))
        return false;
    return true;
}

bool
SttEngine::maySquashMemViolation(const DynInst &d) const
{
    if (d.at_vp)
        return true;
    if (regTainted(d.prs1))
        return false;
    for (const DynInstPtr &st : core_->storeQueue()) {
        if (st->squashed || st->seq > d.seq)
            continue;
        if (!st->at_vp && regTainted(st->prs1))
            return false;
    }
    return true;
}

bool
SttEngine::transmitPublic(const DynInst &d, DelayKind kind) const
{
    // Stats-free mirror of the policy gates (the checker's ground
    // truth; STT has no mutation modes, so gate == claim).
    switch (kind) {
      case DelayKind::kMemAccess:
        return d.at_vp || !regTainted(d.prs1);
      case DelayKind::kBranchResolve:
        return mayResolveBranch(d);
      case DelayKind::kMemOrderSquash:
        return maySquashMemViolation(d);
    }
    return true;
}

bool
SttEngine::stlForwardingPublic(const DynInst &load,
                               const DynInst &store) const
{
    // The forwarding decision is public when the addresses of the
    // load and of every store between the source and the load are
    // s-untainted.
    if (!load.at_vp && regTainted(load.prs1))
        return false;
    for (const DynInstPtr &st : core_->storeQueue()) {
        if (st->squashed || st->seq < store.seq ||
            st->seq >= load.seq)
            continue;
        if (!st->at_vp && regTainted(st->prs1))
            return false;
    }
    return true;
}

} // namespace spt
