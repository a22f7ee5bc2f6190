/**
 * @file
 * Cycle-level out-of-order core: 8-wide fetch/rename/issue/commit,
 * 192-entry ROB, unified reservation station, split 32/32 LQ/SQ with
 * store-to-load forwarding and store-set memory-dependence
 * speculation, LTAGE front end, and Table-1 memory hierarchy.
 *
 * Every security-relevant action is routed through the attached
 * SecurityEngine:
 *  - load/store memory accesses wait for mayAccessMemory(),
 *  - branch-resolution effects (redirect + squash) wait for
 *    mayResolveBranch(),
 *  - memory-order-violation squashes wait for
 *    maySquashMemViolation(),
 *  - predictor training happens only at commit.
 *
 * The ROB computes per-cycle visibility-point (VP) flags under the
 * configured attack model; engines build declassification on top.
 */

#ifndef SPT_UARCH_CORE_H
#define SPT_UARCH_CORE_H

#include <functional>
#include <memory>
#include <vector>

#include "bp/bpu.h"
#include "common/byte_memory.h"
#include "common/fault_hooks.h"
#include "common/stats.h"
#include "isa/program.h"
#include "mem/memory_system.h"
#include "uarch/completion_queue.h"
#include "uarch/dyn_inst.h"
#include "uarch/phys_reg_file.h"
#include "uarch/rename_map.h"
#include "uarch/ring.h"
#include "uarch/security_engine.h"
#include "uarch/store_set.h"
#include "uarch/types.h"

namespace spt {

struct CoreParams {
    unsigned fetch_width = 8;
    unsigned rename_width = 8;
    unsigned issue_width = 8;
    unsigned commit_width = 8;
    unsigned rob_size = 192;
    unsigned rs_size = 64;
    unsigned lq_size = 32;
    unsigned sq_size = 32;
    unsigned num_phys_regs = 320;
    unsigned fetch_queue_size = 32;
    unsigned frontend_extra_delay = 3; ///< decode/rename pipe depth
    unsigned redirect_penalty = 2;
    unsigned load_ports = 2;  ///< loads starting a memory access/cycle
    unsigned store_ports = 1; ///< stores translating per cycle
    bool mem_dep_speculation = true;
    /** Ideal instruction fetch (no I-cache timing); useful for
     *  micro-tests that need deterministic backend timing. */
    bool perfect_icache = false;
    /** Skip provably dead cycles in run(): when every stage is
     *  blocked and the engine is quiescent, jump to the next timed
     *  event (completion, fetch wakeup, watchdog bound) and
     *  bulk-apply the per-cycle blocked-stat accruals. Stat- and
     *  result-identical to ticking each cycle (pinned by the
     *  fast-forward equivalence tests); auto-disabled while an
     *  observer or fault injector is attached or the engine refuses
     *  (fastForwardSafe). */
    bool fast_forward = false;
    AttackModel attack_model = AttackModel::kSpectre;
    /** Retire-progress watchdog: if no instruction commits within
     *  this many cycles, run() stops with RunResult::livelocked
     *  instead of spinning to max_cycles (0 disables). */
    uint64_t watchdog_cycles = 200'000;
};

class Core
{
  public:
    struct RunResult {
        uint64_t cycles = 0;
        uint64_t instructions = 0;
        bool halted = false;
        /** Retire watchdog tripped (see CoreParams::watchdog_cycles). */
        bool livelocked = false;
        /** Cooperative wall-clock limit tripped (see setWallTimeout). */
        bool wall_timeout = false;
    };

    using CommitHook = std::function<void(const DynInst &)>;

    /** The program is copied, so temporaries are safe. */
    Core(Program program, const CoreParams &params,
         const MemorySystemParams &mem_params,
         std::unique_ptr<SecurityEngine> engine);

    /** Advances the machine one clock cycle. */
    void tick();

    /** Runs until HALT commits or @p max_cycles elapse. */
    RunResult run(uint64_t max_cycles);

    /** Arms the checkpoint drain barrier: once @p retires
     *  instructions have committed, run() suppresses fetch, drains
     *  the pipeline (ROB, fetch queue, completion events empty),
     *  invokes @p hook exactly once, and resumes normal execution.
     *  The barrier itself is deterministic machine behavior — a run
     *  that arms it with a null hook executes identically to one
     *  that serializes a snapshot at it. */
    void armCheckpoint(uint64_t retires, std::function<void()> hook);

    /** Pipeline empty (checkpoint barrier / snapshot precondition). */
    bool drained() const
    {
        return rob_.empty() && fetch_queue_.empty() &&
               completions_.empty() && rs_count_ == 0 &&
               lq_.empty() && sq_.empty();
    }

    bool halted() const { return halted_; }
    uint64_t cycle() const { return cycle_; }
    uint64_t instructionsRetired() const { return retired_; }

    /** Architectural register value via the current RAT mapping
     *  (exact once the pipeline has drained, e.g., after HALT). */
    uint64_t archReg(unsigned arch) const;

    // --- engine/test access ------------------------------------------
    const Ring<DynInstPtr> &rob() const { return rob_; }
    const std::vector<DynInstPtr> &loadQueue() const { return lq_; }
    const std::vector<DynInstPtr> &storeQueue() const { return sq_; }

    /** The loads (or stores) whose address is known and whose memory
     *  access has not started, split by their memory gate's last
     *  answer. Both lists are in seq order. memStage asks the gate
     *  only for `open` entries; a `refused` entry goes back to
     *  `open` only on an event that can open its gate: it reaches
     *  the VP, or the engine calls wakeTransmitter(s). */
    struct GateLists {
        std::vector<DynInstPtr> open;
        std::vector<DynInstPtr> refused;
    };
    const GateLists &loadGates() const { return load_gates_; }
    const GateLists &storeGates() const { return store_gates_; }

    /** Engine wake site: @p d's memory gate may have opened (an
     *  input of the gate changed). A refused @p d is asked again at
     *  the next memStage; otherwise a no-op. */
    void
    wakeTransmitter(const DynInst &d)
    {
        if (d.gate_list == GateList::kRefused)
            reopenGate(d);
    }

    /** Engine wake site: asks again every refused transmitter for
     *  which @p opened(const DynInst &) holds. */
    template <typename Pred>
    void
    wakeTransmitters(Pred opened)
    {
        for (GateLists *g : {&load_gates_, &store_gates_}) {
            std::size_t keep = 0;
            for (DynInstPtr d : g->refused) {
                if (opened(*d)) {
                    d->gate_list = GateList::kOpen;
                    insertBySeq(g->open, d);
                } else {
                    g->refused[keep++] = d;
                }
            }
            g->refused.resize(keep);
        }
    }

    /** The VP cursor: the ROB offset of the oldest entry that is
     *  short of the VP or blocks younger ones from reaching it.
     *  Every older entry is at the VP and blocks nothing. */
    std::size_t vpFrontier() const { return vp_frontier_; }
    /** Does @p d keep every younger instruction short of the VP
     *  under the configured attack model? */
    bool blocksVp(const DynInst &d) const;

    /** Finds an in-flight (non-squashed) instruction by seq: a
     *  binary search, since the ROB is in strictly increasing seq
     *  order. Null if @p seq is not in the ROB. */
    const DynInst *findInst(SeqNum seq) const;

    /** The ROB entries with squash_pending or mem_violation_pending
     *  set, in seq order (the squash gates' work list). */
    const std::vector<DynInstPtr> &pendingSquashes() const
    {
        return pending_squashes_;
    }

    /** The reservation-station entries whose source registers are
     *  all written, in seq order: what issueStage selects from. */
    const std::vector<DynInstPtr> &readyList() const { return ready_; }

    MemorySystem &memorySystem() { return memsys_; }
    ByteMemory &memory() { return mem_; }
    PhysRegFile &physRegs() { return prf_; }
    SecurityEngine &engine() { return *engine_; }
    BranchPredictorUnit &bpu() { return bpu_; }
    const CoreParams &params() const { return params_; }
    const Program &program() const { return program_; }
    AttackModel attackModel() const { return params_.attack_model; }

    void setCommitHook(CommitHook hook)
    {
        commit_hook_ = std::move(hook);
    }

    /** Installs the timing-fault injector (nullptr detaches); also
     *  forwarded to the memory system. Faults are timing-only (see
     *  common/fault_hooks.h) and cost one pointer test per hook site
     *  when detached. Set before the first tick. */
    void setFaultInjector(FaultHooks *hooks)
    {
        faults_ = hooks;
        memsys_.setFaultHooks(hooks);
    }
    /** The engine's broadcast-starvation site reads this. */
    FaultHooks *faultHooks() const { return faults_; }

    /** Bounds run() by host wall-clock time (checked at the first
     *  cycle at or past each multiple of 8192, fast-forwarded or
     *  not); 0 disables. The resulting RunResult is
     *  schedule-dependent — sweeps exclude wall-timeout outcomes
     *  from determinism comparisons. */
    void setWallTimeout(double seconds)
    {
        wall_timeout_seconds_ = seconds;
    }

    /** Installs the observability sink (nullptr detaches); also
     *  forwarded to the engine so it can emit taint events. Must be
     *  set before the first tick — observers never perturb simulated
     *  state, but mid-run attachment would see partial lifecycles. */
    void setObserver(PipelineObserver *obs)
    {
        observer_ = obs;
        engine_->setObserver(obs);
    }

    StatSet &stats() { return stats_; }

  private:
    friend class Snapshotter; // checkpoint wire format (sim/snapshot)

    struct FetchEntry {
        DynInstPtr inst;
        uint64_t ready_cycle;
    };

    /** The per-cycle counters, interned once at construction. */
    struct Counters {
        explicit Counters(StatSet &s);
        StatSet::Counter fetch_instructions, fetch_invalid_pc_stalls,
            fetch_icache_miss_stalls;
        StatSet::Counter rename_instructions, rename_rob_full,
            rename_no_phys_regs, rename_lq_full, rename_sq_full,
            rename_rs_full;
        StatSet::Counter issue_instructions, fault_issue_stall_cycles;
        StatSet::Counter branch_mispredicts, branch_correct,
            fault_extra_squashes;
        StatSet::Counter commit_instructions;
        StatSet::Counter squash_control, squash_mem_violation,
            squash_instructions;
        StatSet::Counter lsu_store_policy_delays,
            lsu_store_translations, lsu_load_policy_delay_cycles,
            lsu_load_dep_stall_cycles, lsu_store_set_stall_cycles,
            lsu_partial_overlap_stall_cycles, lsu_forwards_public,
            lsu_forwards_hidden, lsu_mshr_retries, lsu_load_accesses,
            lsu_violations_detected, fault_stl_denials;
        StatSet::Counter ff_skipped_cycles, ff_windows;
    };

    Program program_;
    CoreParams params_;
    MemorySystem memsys_;
    ByteMemory mem_; ///< architectural backing store
    std::unique_ptr<SecurityEngine> engine_;
    BranchPredictorUnit bpu_;
    PhysRegFile prf_;
    RenameMap rat_;
    StoreSetPredictor store_sets_;
    StatSet stats_;
    Counters ctr_;

    uint64_t cycle_ = 0;
    uint64_t retired_ = 0;
    bool halted_ = false;
    SeqNum next_seq_ = 1;

    PipelineObserver *observer_ = nullptr;
    FaultHooks *faults_ = nullptr;
    double wall_timeout_seconds_ = 0.0;
    /** Checkpoint drain barrier (armCheckpoint); 0 = disarmed.
     *  While armed and retired_ >= ckpt_retires_, fetch is
     *  suppressed so the pipeline drains. */
    uint64_t ckpt_retires_ = 0;
    std::function<void()> ckpt_hook_;
    /** Transmitter-delay cycles per gate, accumulated as plain
     *  integers on the hot path and published to the engine's StatSet
     *  (delay.*) at the end of run(). */
    uint64_t delay_mem_cycles_ = 0;
    uint64_t delay_branch_cycles_ = 0;
    uint64_t delay_memorder_cycles_ = 0;

    // Frontend.
    uint64_t fetch_pc_;
    uint64_t fetch_stall_until_ = 0;
    /** Sized for a full queue plus one fetch group past it. */
    Ring<FetchEntry> fetch_queue_;

    // In-flight instruction storage.
    /** Every in-flight DynInst lives in a slot of slab_, sized at
     *  construction for the most that can be in flight: a full ROB,
     *  a full fetch queue and one fetch group past it. slot_seq_[i]
     *  is the seq of slot i's occupant, 0 while the slot is free; an
     *  InstRef whose seq differs is stale. Free slots are reused
     *  oldest-released first and, under ASan, poisoned while free so
     *  a stale handle that skips the seq check is reported. */
    std::unique_ptr<DynInst[]> slab_;
    std::vector<SeqNum> slot_seq_;
    std::vector<uint32_t> free_slots_; ///< ring of free slot ids
    std::size_t free_head_ = 0;
    std::size_t free_count_ = 0;

    // Backend structures.
    Ring<DynInstPtr> rob_;
    /** See vpFrontier(): retire and squash keep it within the ROB. */
    std::size_t vp_frontier_ = 0;
    /** Reservation-station occupancy (entries with in_rs set). */
    unsigned rs_count_ = 0;
    /** RS entries with every source register written, in seq order.
     *  An entry joins at dispatch or at the writeback of its last
     *  unready source, and leaves at issue or squash. */
    std::vector<DynInstPtr> ready_;
    /** Per physical register, the RS entries dispatched while it was
     *  unwritten; emptied by the register's writeback (writeReg) and
     *  at its allocation. Entries of squashed instructions go stale
     *  and are skipped. */
    std::vector<std::vector<InstRef>> waiters_;
    std::vector<DynInstPtr> lq_;
    std::vector<DynInstPtr> sq_;
    GateLists load_gates_;
    GateLists store_gates_;
    CompletionQueue completions_;
    /** Flagged ROB entries in seq order (see pendingSquashes()):
     *  added where a flag is set, removed where it is cleared or the
     *  entry is squashed. Flagged entries cannot commit, so nothing
     *  leaves the list at retire. */
    std::vector<DynInstPtr> pending_squashes_;

    CommitHook commit_hook_;

    // --- stages -------------------------------------------------------
    void commitStage();
    void handleSquashes();
    void writebackStage();
    void memStage();
    void issueStage();
    void renameDispatchStage();
    void fetchStage();
    void updateVp();

    // --- fast-forward --------------------------------------------------
    /** Would the next tick change any machine state? False only when
     *  every stage is provably blocked (stats-pure queries only). */
    bool quiescentCycle() const;
    /** Per-cycle stat charges a blocked (quiescent) cycle makes,
     *  applied in bulk for @p k skipped cycles. */
    void accrueSkippedCycles(uint64_t k);
    /** Skips dead cycles up to the next timed event; returns the
     *  number skipped (0 when the machine is live or the next event
     *  is imminent). */
    uint64_t tryFastForward(uint64_t max_cycles,
                            uint64_t last_progress_cycle);
    /** Stat charged if renaming @p d would stall on a structural
     *  hazard right now, or nullptr if it would proceed. */
    const StatSet::Counter *renameHazardStat(const DynInst &d) const;

    // --- helpers -------------------------------------------------------
    /** Takes a free slab slot for a new instruction @p seq. */
    DynInst *allocInst(SeqNum seq);
    /** Returns @p d's slot; every handle to it is stale from here. */
    void releaseInst(DynInst *d);
    InstRef refOf(const DynInst &d) const
    {
        return {static_cast<uint32_t>(&d - slab_.get()), d.seq};
    }
    /** The instruction @p ref names, or null if it is stale. */
    DynInst *liveInst(InstRef ref) const
    {
        return slot_seq_[ref.slot] == ref.seq ? &slab_[ref.slot]
                                              : nullptr;
    }
    /** The oldest store waiting on its memory gate, open or
     *  refused (stores translate in order); null if none. */
    DynInstPtr headStore() const;
    /** Inserts @p d into the seq-ordered list @p v. */
    static void insertBySeq(std::vector<DynInstPtr> &v, DynInstPtr d);
    /** Moves refused @p d back to its open list. */
    void reopenGate(const DynInst &d);
    /** Dispatches @p d to the RS: onto the waiter list of each
     *  unwritten source register, or onto the ready list. */
    void enterReservationStation(DynInst &d);
    /** Writeback of a destination register: writes the value and
     *  moves the waiters it completes onto the ready list. */
    void writeReg(PhysReg reg, uint64_t value);
    /** Charges one policy-gated stall cycle of @p d to @p kind: bumps
     *  the plain delay counter and reports the cycle (reportDelay).
     *  Refused loads that memStage does not ask again are counted in
     *  bulk there and reported one by one, so the profiler's
     *  attributed total still equals delay.total_cycles. */
    void noteTransmitterDelay(const DynInst &d, DelayKind kind);
    /** With an observer installed, reports one delay cycle of @p d
     *  with the engine's cause attribution. */
    void
    reportDelay(const DynInst &d, DelayKind kind)
    {
        if (observer_)
            observer_->delayCycle(cycle_, d, kind,
                                  engine_->delayCause(d, kind));
    }
    void completeInst(const DynInstPtr &d);
    void completeLoadData(const DynInstPtr &d);
    bool tryLoadAccess(const DynInstPtr &d);
    void checkViolationsFromStore(const DynInstPtr &st);
    /** Enters @p d, whose first squash flag was just set, into
     *  pending_squashes_ at its seq position. */
    void addPendingSquash(const DynInstPtr &d);
    void performControlSquash(const DynInstPtr &branch);
    void performMemSquash(const DynInstPtr &load);
    void squashFrom(SeqNum first_squashed, uint64_t new_fetch_pc,
                    const DynInstPtr &restore_ctrl);
    unsigned execLatency(const Instruction &si) const;
    uint64_t readOperand(PhysReg reg) const;
};

} // namespace spt

#endif // SPT_UARCH_CORE_H
