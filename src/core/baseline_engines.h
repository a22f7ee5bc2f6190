/**
 * @file
 * Comparison protection schemes from the paper's evaluation
 * (Table 2):
 *
 *  - SecureBaselineEngine: delays every load/store until it reaches
 *    the visibility point. Same protection scope as SPT, maximal
 *    overhead.
 *  - SttEngine: Speculative Taint Tracking [MICRO'19]. Protects only
 *    speculatively-accessed data: a load's output is s-tainted until
 *    the load reaches the VP; s-taint propagates through register
 *    dataflow via youngest-root-of-taint (YRoT) tracking, and
 *    transmitters/branches with s-tainted operands are delayed.
 *    Untainting is implicit and single-cycle: a root that reached
 *    the VP (or left the pipeline) no longer taints its dependents.
 *    In-flight roots sit in a ring indexed from each register's
 *    root reference, so a liveness check is one slot read; tick()
 *    wakes the refused transmitters a root untaints as it reaches
 *    the VP.
 */

#ifndef SPT_CORE_BASELINE_ENGINES_H
#define SPT_CORE_BASELINE_ENGINES_H

#include <vector>

#include "uarch/security_engine.h"
#include "uarch/types.h"

namespace spt {

class SecureBaselineEngine : public SecurityEngine
{
  public:
    SecureBaselineEngine()
        : mem_blocked_checks_(stats_.counter("policy.mem_blocked_checks"))
    {
    }

    const char *name() const override { return "secure-baseline"; }

    bool
    mayAccessMemory(const DynInst &d) const override
    {
        if (!d.at_vp)
            stats_.inc(mem_blocked_checks_);
        return d.at_vp;
    }

    bool
    transmitPublic(const DynInst &d, DelayKind kind) const override
    {
        // The scheme's claim: no memory access before the VP. It
        // makes no claims about the other channels.
        return kind == DelayKind::kMemAccess ? d.at_vp : true;
    }

    void
    accrueBlockedTransmit(const DynInst &, DelayKind kind,
                          uint64_t cycles) override
    {
        // Bulk form of the blocked mayAccessMemory stat (the only
        // stat-carrying gate this scheme has).
        if (kind == DelayKind::kMemAccess)
            stats_.inc(mem_blocked_checks_, cycles);
    }

  private:
    StatSet::Counter mem_blocked_checks_;
};

class SttEngine : public SecurityEngine
{
  public:
    SttEngine()
        : mem_blocked_checks_(stats_.counter("policy.mem_blocked_checks"))
    {
    }

    void attach(Core &core) override;
    const char *name() const override { return "stt"; }

    void onRename(DynInst &d) override;
    void onRetire(const DynInst &d) override;
    void onSquash(const DynInst &d) override;
    void tick() override;
    bool quiescent() const override { return !rootReachedVp(); }

    bool mayAccessMemory(const DynInst &d) const override;
    bool mayResolveBranch(const DynInst &d) const override;
    bool maySquashMemViolation(const DynInst &d) const override;
    bool stlForwardingPublic(const DynInst &load,
                             const DynInst &store) const override;

    bool transmitPublic(const DynInst &d,
                        DelayKind kind) const override;

    void
    accrueBlockedTransmit(const DynInst &, DelayKind kind,
                          uint64_t cycles) override
    {
        // Bulk form of the blocked mayAccessMemory stat; the other
        // gates are stats-pure.
        if (kind == DelayKind::kMemAccess)
            stats_.inc(mem_blocked_checks_, cycles);
    }

    /** Is the value in @p reg currently s-tainted? */
    bool regTainted(PhysReg reg) const;

    // --- observability ------------------------------------------------
    /** STT delays on s-tainted operands (no broadcast structure, so
     *  a blocked memory gate is always a tainted address). */
    DelayCause
    delayCause(const DynInst &d, DelayKind kind) const override
    {
        if (kind == DelayKind::kMemAccess)
            return DelayCause::kTaintedAddr;
        return SecurityEngine::delayCause(d, kind);
    }
    uint64_t taintedRegCount() const override;

    /** Slot liveness equals the ROB's: for every register's root,
     *  rootLive matches the Core::findInst reference. */
    bool taintRootsConsistent() const override;

  private:
    /** An in-flight root load; seq is 0 once it retired or was
     *  squashed. */
    struct RootSlot {
        SeqNum seq = 0;
        const DynInst *inst = nullptr;
    };
    /** A register's youngest root of taint: the root load's seq
     *  (0 = none) and its slot in roots_. */
    struct RootRef {
        SeqNum seq = 0;
        uint32_t slot = 0;
    };

    StatSet::Counter mem_blocked_checks_;
    std::vector<RootRef> root_;
    /** Ring of the in-flight root loads in rename order: pushed at
     *  rename, popped from the head at retire and from the tail at
     *  squash (the core squashes youngest first). Sized by the load
     *  queue, which bounds the loads in flight. */
    std::vector<RootSlot> roots_;
    std::size_t roots_head_ = 0;
    std::size_t roots_count_ = 0;
    /** Roots from the head already seen at the VP by tick(). The VP
     *  is a prefix of the ROB, so it is a prefix of the ring too. */
    std::size_t roots_at_vp_ = 0;

    /** Has a root reached the VP that tick() has not seen yet? */
    bool
    rootReachedVp() const
    {
        return roots_at_vp_ < roots_count_ &&
               roots_[(roots_head_ + roots_at_vp_) % roots_.size()]
                   .inst->at_vp;
    }

    /** A root taints while its load is in flight short of the VP. */
    bool
    rootLive(RootRef root) const
    {
        if (root.seq == 0)
            return false;
        const RootSlot &s = roots_[root.slot];
        return s.seq == root.seq && !s.inst->at_vp;
    }
};

} // namespace spt

#endif // SPT_CORE_BASELINE_ENGINES_H
