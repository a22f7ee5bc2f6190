#include "uarch/core.h"

#include <algorithm>
#include <chrono>
#include <new>

#include <sanitizer/asan_interface.h>

#include "common/logging.h"

namespace spt {

Core::Counters::Counters(StatSet &s)
    : fetch_instructions(s.counter("fetch.instructions")),
      fetch_invalid_pc_stalls(s.counter("fetch.invalid_pc_stalls")),
      fetch_icache_miss_stalls(s.counter("fetch.icache_miss_stalls")),
      rename_instructions(s.counter("rename.instructions")),
      rename_rob_full(s.counter("rename.rob_full")),
      rename_no_phys_regs(s.counter("rename.no_phys_regs")),
      rename_lq_full(s.counter("rename.lq_full")),
      rename_sq_full(s.counter("rename.sq_full")),
      rename_rs_full(s.counter("rename.rs_full")),
      issue_instructions(s.counter("issue.instructions")),
      fault_issue_stall_cycles(s.counter("fault.issue_stall_cycles")),
      branch_mispredicts(s.counter("branch.mispredicts")),
      branch_correct(s.counter("branch.correct")),
      fault_extra_squashes(s.counter("fault.extra_squashes")),
      commit_instructions(s.counter("commit.instructions")),
      squash_control(s.counter("squash.control")),
      squash_mem_violation(s.counter("squash.mem_violation")),
      squash_instructions(s.counter("squash.instructions")),
      lsu_store_policy_delays(s.counter("lsu.store_policy_delays")),
      lsu_store_translations(s.counter("lsu.store_translations")),
      lsu_load_policy_delay_cycles(
          s.counter("lsu.load_policy_delay_cycles")),
      lsu_load_dep_stall_cycles(s.counter("lsu.load_dep_stall_cycles")),
      lsu_store_set_stall_cycles(
          s.counter("lsu.store_set_stall_cycles")),
      lsu_partial_overlap_stall_cycles(
          s.counter("lsu.partial_overlap_stall_cycles")),
      lsu_forwards_public(s.counter("lsu.forwards_public")),
      lsu_forwards_hidden(s.counter("lsu.forwards_hidden")),
      lsu_mshr_retries(s.counter("lsu.mshr_retries")),
      lsu_load_accesses(s.counter("lsu.load_accesses")),
      lsu_violations_detected(s.counter("lsu.violations_detected")),
      fault_stl_denials(s.counter("fault.stl_denials")),
      ff_skipped_cycles(s.counter("ff.skipped_cycles")),
      ff_windows(s.counter("ff.windows"))
{
}

Core::Core(Program program, const CoreParams &params,
           const MemorySystemParams &mem_params,
           std::unique_ptr<SecurityEngine> engine)
    : program_(std::move(program)), params_(params),
      memsys_(mem_params), engine_(std::move(engine)),
      prf_(params.num_phys_regs), ctr_(stats_),
      fetch_pc_(program_.entry()),
      fetch_queue_(std::size_t{params.fetch_queue_size} +
                   params.fetch_width),
      rob_(params.rob_size)
{
    SPT_ASSERT(engine_ != nullptr, "core needs a security engine");
    // Live instructions are the ROB plus the fetch queue, which a
    // fetch group may overrun by fetch_width - 1 entries.
    const std::size_t slots = std::size_t{params_.rob_size} +
                              params_.fetch_queue_size +
                              params_.fetch_width;
    slab_ = std::make_unique<DynInst[]>(slots);
    slot_seq_.assign(slots, 0);
    free_slots_.resize(slots);
    for (std::size_t i = 0; i < slots; ++i)
        free_slots_[i] = static_cast<uint32_t>(i);
    free_count_ = slots;
    ASAN_POISON_MEMORY_REGION(slab_.get(), slots * sizeof(DynInst));
    // The lists grow past these only in rare bursts; a tick allocates
    // nothing otherwise.
    waiters_.resize(params_.num_phys_regs);
    for (std::vector<InstRef> &w : waiters_)
        w.reserve(4);
    completions_.reserve(params_.issue_width + params_.load_ports);
    load_gates_.open.reserve(params_.lq_size);
    load_gates_.refused.reserve(params_.lq_size);
    store_gates_.open.reserve(params_.sq_size);
    store_gates_.refused.reserve(params_.sq_size);
    program_.loadInto(mem_);
    // Architectural initial state: sp points at the stack top. The
    // initial RAT maps xN -> phys N, so write phys kRegSp directly.
    prf_.write(kRegSp, kDefaultStackTop);
    engine_->attach(*this);
}

uint64_t
Core::archReg(unsigned arch) const
{
    SPT_ASSERT(arch < kNumArchRegs, "arch register out of range");
    return prf_.value(rat_.lookup(static_cast<uint8_t>(arch)));
}

void
Core::insertBySeq(std::vector<DynInstPtr> &v, DynInstPtr d)
{
    const auto it = std::upper_bound(
        v.begin(), v.end(), d->seq,
        [](SeqNum s, const DynInstPtr &e) { return s < e->seq; });
    v.insert(it, d);
}

void
Core::reopenGate(const DynInst &d)
{
    GateLists &g = d.is_load ? load_gates_ : store_gates_;
    const auto it = std::lower_bound(
        g.refused.begin(), g.refused.end(), d.seq,
        [](const DynInstPtr &e, SeqNum s) { return e->seq < s; });
    SPT_ASSERT(it != g.refused.end() && (*it)->seq == d.seq,
               "refused transmitter missing from its list");
    DynInstPtr p = *it;
    g.refused.erase(it);
    p->gate_list = GateList::kOpen;
    insertBySeq(g.open, p);
}

const DynInst *
Core::findInst(SeqNum seq) const
{
    const auto it = std::lower_bound(
        rob_.begin(), rob_.end(), seq,
        [](const DynInstPtr &d, SeqNum s) { return d->seq < s; });
    return it != rob_.end() && (*it)->seq == seq ? *it : nullptr;
}

DynInst *
Core::allocInst(SeqNum seq)
{
    SPT_ASSERT(free_count_ != 0, "DynInst slab exhausted");
    const uint32_t slot = free_slots_[free_head_];
    free_head_ = (free_head_ + 1) % free_slots_.size();
    --free_count_;
    DynInst *d = &slab_[slot];
    ASAN_UNPOISON_MEMORY_REGION(d, sizeof(DynInst));
    // Default-initialised like a fresh record; the branch checkpoint
    // is left for fetch to fill.
    ::new (d) DynInst;
    d->seq = seq;
    slot_seq_[slot] = seq;
    return d;
}

void
Core::releaseInst(DynInst *d)
{
    const uint32_t slot = refOf(*d).slot;
    slot_seq_[slot] = 0;
    free_slots_[(free_head_ + free_count_) % free_slots_.size()] = slot;
    ++free_count_;
    ASAN_POISON_MEMORY_REGION(d, sizeof(DynInst));
}

uint64_t
Core::readOperand(PhysReg reg) const
{
    return reg == kNoPhysReg ? 0 : prf_.value(reg);
}

unsigned
Core::execLatency(const Instruction &si) const
{
    switch (si.op) {
      case Opcode::kMul:
      case Opcode::kMulh:
        return 3;
      case Opcode::kDiv:
      case Opcode::kRem:
        return 12;
      default:
        return 1;
    }
}

// --------------------------------------------------------------------
// Top level
// --------------------------------------------------------------------

void
Core::tick()
{
    ++cycle_;
    handleSquashes();
    commitStage();
    if (halted_)
        return;
    writebackStage();
    memStage();
    issueStage();
    renameDispatchStage();
    fetchStage();
    updateVp();
    engine_->tick();
    if (observer_)
        observer_->cycleEnd(cycle_);
}

void
Core::noteTransmitterDelay(const DynInst &d, DelayKind kind)
{
    switch (kind) {
      case DelayKind::kMemAccess: ++delay_mem_cycles_; break;
      case DelayKind::kBranchResolve: ++delay_branch_cycles_; break;
      case DelayKind::kMemOrderSquash: ++delay_memorder_cycles_; break;
    }
    reportDelay(d, kind);
}

void
Core::armCheckpoint(uint64_t retires, std::function<void()> hook)
{
    SPT_ASSERT(retires != 0, "checkpoint barrier needs a retire "
                             "target");
    ckpt_retires_ = retires;
    ckpt_hook_ = std::move(hook);
}

Core::RunResult
Core::run(uint64_t max_cycles)
{
    uint64_t last_retired = retired_;
    uint64_t last_progress_cycle = cycle_;
    bool livelocked = false;
    bool wall_timeout = false;
    const auto wall_start = std::chrono::steady_clock::now();
    // The wall clock is read at the first cycle at or past each
    // multiple of 8192, so a fast-forward skip cannot step over a
    // check.
    uint64_t next_wall_check = (cycle_ | 0x1fff) + 1;
    // Fast-forward needs stats-pure gate prediction and an untouched
    // event stream: observers see per-cycle callbacks and fault
    // injectors consume per-cycle RNG draws, so either disables it.
    const bool may_fast_forward = params_.fast_forward &&
                                  !observer_ && !faults_ &&
                                  engine_->fastForwardSafe();
    while (!halted_ && cycle_ < max_cycles) {
        tick();
        if (retired_ != last_retired) {
            last_retired = retired_;
            last_progress_cycle = cycle_;
        } else if (params_.watchdog_cycles != 0 &&
                   cycle_ - last_progress_cycle >
                       params_.watchdog_cycles) {
            // Bounded-time livelock failure instead of spinning to
            // max_cycles; the caller (Simulator) reports the
            // termination reason and any diagnostics.
            livelocked = true;
            stats_.inc("watchdog.livelocks");
            break;
        }
        if (ckpt_retires_ != 0 && !halted_ &&
            retired_ >= ckpt_retires_ && drained()) {
            // Checkpoint barrier reached: the machine is empty, so a
            // snapshot needs no in-flight state. Disarm before the
            // hook so fetch resumes on the next tick either way.
            ckpt_retires_ = 0;
            if (ckpt_hook_) {
                ckpt_hook_();
                ckpt_hook_ = nullptr;
            }
        }
        if (may_fast_forward && !halted_)
            tryFastForward(max_cycles, last_progress_cycle);
        if (wall_timeout_seconds_ > 0.0 && cycle_ >= next_wall_check) {
            next_wall_check = (cycle_ | 0x1fff) + 1;
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - wall_start;
            if (elapsed.count() > wall_timeout_seconds_) {
                wall_timeout = true;
                stats_.inc("watchdog.wall_timeouts");
                break;
            }
        }
    }
    stats_.set("cycles", cycle_);
    stats_.set("instructions", retired_);
    // Publish the per-gate delay totals with the engine's counters
    // (they are properties of the protection scheme, not the core).
    StatSet &es = engine_->stats();
    es.set("delay.mem_cycles", delay_mem_cycles_);
    es.set("delay.branch_cycles", delay_branch_cycles_);
    es.set("delay.memorder_cycles", delay_memorder_cycles_);
    es.set("delay.total_cycles", delay_mem_cycles_ +
                                     delay_branch_cycles_ +
                                     delay_memorder_cycles_);
    return {cycle_, retired_, halted_, livelocked, wall_timeout};
}

// --------------------------------------------------------------------
// Fast-forward (quiescent-cycle skipping)
// --------------------------------------------------------------------

bool
Core::quiescentCycle() const
{
    // A pure conjunction over tick()'s stages with stats-pure
    // queries only; a single stage that would change state makes
    // the cycle live. Quiescent state is frozen by construction:
    // every gate input (taint masks, at_vp, operand readiness) can
    // only change via the very stage activity this predicate rules
    // out, so a dead machine stays dead until a *timed* event
    // (completion, fetch wakeup) — exactly the wake set
    // tryFastForward computes. The conjuncts are ordered cheapest /
    // most-likely-live first so the predicate is O(1) on most live
    // cycles; conjunction order cannot change the verdict.

    // Fetch: an eligible fetch touches the I-cache and fetch queue.
    if (cycle_ >= fetch_stall_until_ &&
        fetch_queue_.size() < params_.fetch_queue_size &&
        program_.validPc(fetch_pc_))
        return false;
    // Commit: the ROB head must be blocked.
    if (!rob_.empty()) {
        const DynInst &f = *rob_.front();
        if (f.completed && !f.squash_pending &&
            !f.mem_violation_pending)
            return false;
    }
    // Rename: a ready, hazard-free fetch-queue head would rename.
    if (!fetch_queue_.empty()) {
        const FetchEntry &fe = fetch_queue_.front();
        if (fe.ready_cycle <= cycle_ &&
            renameHazardStat(*fe.inst) == nullptr)
            return false;
    }
    // Issue: any ready reservation-station entry would issue.
    if (!ready_.empty())
        return false;
    // Squash gates (stats-pure on every engine).
    for (const DynInstPtr &d : pending_squashes_) {
        if (d->squash_pending && engine_->mayResolveBranch(*d))
            return false;
        if (d->mem_violation_pending &&
            engine_->maySquashMemViolation(*d))
            return false;
    }
    // Memory gates. A refused entry stays refused until a wake
    // event, and a frozen machine makes none; an open one is asked
    // the stats-pure transmitPublic claim (equal to the gate
    // whenever fastForwardSafe holds). A gate-open load counts as
    // live even if the access would be refused (MSHR full /
    // dependence stalls mutate stats and cache state). Stores
    // translate in order: only the oldest matters.
    if (const DynInstPtr st = headStore(); st &&
        st->gate_list == GateList::kOpen &&
        engine_->transmitPublic(*st, DelayKind::kMemAccess))
        return false;
    for (const DynInstPtr &ld : load_gates_.open)
        if (engine_->transmitPublic(*ld, DelayKind::kMemAccess))
            return false;
    return engine_->quiescent();
}

void
Core::accrueSkippedCycles(uint64_t k)
{
    // Exactly the stat charges k blocked ticks would have made, in
    // bulk. Structured like tick(): squash gates, then the LSU, then
    // rename and fetch stalls.
    for (const DynInstPtr &d : pending_squashes_) {
        if (d->squash_pending)
            delay_branch_cycles_ += k;
        if (d->mem_violation_pending)
            delay_memorder_cycles_ += k;
    }
    if (const DynInstPtr st = headStore()) {
        delay_mem_cycles_ += k;
        stats_.inc(ctr_.lsu_store_policy_delays, k);
        engine_->accrueBlockedTransmit(*st, DelayKind::kMemAccess,
                                       k);
    }
    // Every waiting load is blocked on a quiescent cycle.
    const GateLists &lg = load_gates_;
    if (const uint64_t n = lg.open.size() + lg.refused.size()) {
        delay_mem_cycles_ += n * k;
        stats_.inc(ctr_.lsu_load_policy_delay_cycles, n * k);
        engine_->accrueBlockedTransmit(
            lg.open.empty() ? *lg.refused.front() : *lg.open.front(),
            DelayKind::kMemAccess, n * k);
    }
    if (!fetch_queue_.empty()) {
        const FetchEntry &fe = fetch_queue_.front();
        if (fe.ready_cycle <= cycle_)
            if (const StatSet::Counter *stat =
                    renameHazardStat(*fe.inst))
                stats_.inc(*stat, k);
    }
    if (cycle_ >= fetch_stall_until_ &&
        fetch_queue_.size() < params_.fetch_queue_size &&
        !program_.validPc(fetch_pc_))
        stats_.inc(ctr_.fetch_invalid_pc_stalls, k);
    stats_.inc(ctr_.ff_skipped_cycles, k);
}

uint64_t
Core::tryFastForward(uint64_t max_cycles,
                     uint64_t last_progress_cycle)
{
    // The wake cycle: the first future cycle whose tick may do real
    // work. max_cycles itself still ticks for real (matching the
    // run() loop bound), as does the watchdog-tripping cycle.
    uint64_t wake = max_cycles;
    wake = std::min(wake, completions_.nextCycle());
    if (fetch_stall_until_ > cycle_)
        wake = std::min(wake, fetch_stall_until_);
    if (!fetch_queue_.empty() &&
        fetch_queue_.front().ready_cycle > cycle_)
        wake = std::min(wake, fetch_queue_.front().ready_cycle);
    if (params_.watchdog_cycles != 0)
        wake = std::min(wake, last_progress_cycle +
                                  params_.watchdog_cycles + 1);
    if (wake <= cycle_ + 1)
        return 0; // nothing to skip
    if (!quiescentCycle())
        return 0;
    const uint64_t skipped = wake - 1 - cycle_;
    accrueSkippedCycles(skipped);
    cycle_ += skipped;
    stats_.inc(ctr_.ff_windows);
    return skipped;
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
Core::fetchStage()
{
    if (halted_ || cycle_ < fetch_stall_until_)
        return;
    // Checkpoint drain barrier: past the target retire count, stop
    // feeding the pipeline so it empties (uarch/core.h
    // armCheckpoint).
    if (ckpt_retires_ != 0 && retired_ >= ckpt_retires_)
        return;
    if (fetch_queue_.size() >= params_.fetch_queue_size)
        return;

    uint64_t pc = fetch_pc_;
    const unsigned line_bytes = memsys_.l1i().params().line_bytes;
    uint64_t cur_line = ~uint64_t{0};
    unsigned icache_latency = 0;

    for (unsigned count = 0; count < params_.fetch_width; ++count) {
        if (!program_.validPc(pc)) {
            // Wrong-path fetch ran off the program; wait for a
            // redirect.
            stats_.inc(ctr_.fetch_invalid_pc_stalls);
            break;
        }
        const uint64_t line = pc * kInstrBytes / line_bytes;
        if (line != cur_line && !params_.perfect_icache) {
            const MemAccessResult res = memsys_.access(
                pc * kInstrBytes, AccessKind::kIfetch, cycle_);
            if (res.hit_level > 1) {
                // Miss: stall until the fill arrives, then refetch.
                fetch_stall_until_ = cycle_ + res.latency;
                stats_.inc(ctr_.fetch_icache_miss_stalls);
                break;
            }
            cur_line = line;
            icache_latency = res.latency;
        }

        DynInst *d = allocInst(next_seq_++);
        d->pc = pc;
        d->si = program_.at(pc);
        const OpTraits &t = opTraits(d->si.op);
        d->is_load = t.is_load;
        d->is_store = t.is_store;
        d->is_ctrl = t.is_cond_branch || t.is_jump;
        d->is_squash_source =
            t.is_cond_branch || d->si.op == Opcode::kJalr;
        d->has_dest = t.has_dest && d->si.rd != kRegZero;
        d->num_srcs = t.num_srcs;
        d->mem_bytes = t.mem_bytes;

        if (d->is_ctrl) {
            d->has_checkpoint = true;
            d->checkpoint = bpu_.checkpoint();
            const BranchPrediction p = bpu_.predict(pc, d->si);
            d->predicted_taken = p.taken;
            d->pred_next_pc = p.next_pc;
        } else {
            d->pred_next_pc = pc + 1;
        }

        fetch_queue_.push_back(
            {d, cycle_ + icache_latency + params_.frontend_extra_delay});
        stats_.inc(ctr_.fetch_instructions);
        if (observer_)
            observer_->fetch(cycle_, *d);

        const uint64_t next = d->pred_next_pc;
        pc = next;
        if (d->is_ctrl && next != d->pc + 1) {
            // Redirected fetch resumes at the target next cycle.
            ++count;
            break;
        }
    }
    fetch_pc_ = pc;
}

// --------------------------------------------------------------------
// Rename + dispatch
// --------------------------------------------------------------------

namespace {

/** NOP/HALT/plain JAL complete at dispatch and skip the RS. */
bool
needsReservationStation(const DynInst &d)
{
    return !(d.si.op == Opcode::kNop || d.si.op == Opcode::kHalt ||
             (d.si.op == Opcode::kJal && !d.has_dest));
}

} // namespace

const StatSet::Counter *
Core::renameHazardStat(const DynInst &d) const
{
    // Check order matches the charge order below: the first failing
    // structural check is the one billed per stalled cycle.
    if (rob_.size() >= params_.rob_size)
        return &ctr_.rename_rob_full;
    if (d.has_dest && !prf_.hasFree())
        return &ctr_.rename_no_phys_regs;
    if (d.is_load && lq_.size() >= params_.lq_size)
        return &ctr_.rename_lq_full;
    if (d.is_store && sq_.size() >= params_.sq_size)
        return &ctr_.rename_sq_full;
    if (needsReservationStation(d) && rs_count_ >= params_.rs_size)
        return &ctr_.rename_rs_full;
    return nullptr;
}

void
Core::renameDispatchStage()
{
    for (unsigned n = 0; n < params_.rename_width; ++n) {
        if (fetch_queue_.empty())
            break;
        FetchEntry &fe = fetch_queue_.front();
        if (fe.ready_cycle > cycle_)
            break;
        DynInstPtr d = fe.inst;

        // Structural hazards.
        if (const StatSet::Counter *hazard = renameHazardStat(*d)) {
            stats_.inc(*hazard);
            break;
        }
        const bool needs_rs = needsReservationStation(*d);

        // Rename.
        if (d->num_srcs >= 1)
            d->prs1 = rat_.lookup(d->si.rs1);
        if (d->num_srcs >= 2)
            d->prs2 = rat_.lookup(d->si.rs2);
        if (d->has_dest) {
            d->prev_prd = rat_.lookup(d->si.rd);
            d->prd = prf_.allocate();
            rat_.set(d->si.rd, d->prd);
            // A free register has no live waiters; drop stale ones.
            waiters_[d->prd].clear();
        }
        if (observer_)
            observer_->rename(cycle_, *d);
        engine_->onRename(*d);

        // Dispatch.
        rob_.push_back(d);
        if (d->is_load) {
            lq_.push_back(d);
            if (auto wait = store_sets_.loadRenamed(d->pc))
                d->wait_store_seq = *wait;
        }
        if (d->is_store) {
            sq_.push_back(d);
            store_sets_.storeRenamed(d->pc, d->seq);
        }
        if (needs_rs) {
            enterReservationStation(*d);
        } else {
            // NOP/HALT/plain JAL complete at dispatch.
            d->executed = true;
            d->completed = true;
            d->actual_next_pc = d->pred_next_pc;
        }
        fetch_queue_.pop_front();
        stats_.inc(ctr_.rename_instructions);
    }
}

// --------------------------------------------------------------------
// Issue + execute scheduling
// --------------------------------------------------------------------

void
Core::enterReservationStation(DynInst &d)
{
    d.in_rs = true;
    ++rs_count_;
    if (d.num_srcs >= 1 && !prf_.ready(d.prs1)) {
        waiters_[d.prs1].push_back(refOf(d));
        ++d.pending_srcs;
    }
    if (d.num_srcs >= 2 && !prf_.ready(d.prs2)) {
        waiters_[d.prs2].push_back(refOf(d));
        ++d.pending_srcs;
    }
    // The youngest instruction in flight: appending keeps seq order.
    if (d.pending_srcs == 0)
        ready_.push_back(&d);
}

void
Core::writeReg(PhysReg reg, uint64_t value)
{
    prf_.write(reg, value);
    for (const InstRef &ref : waiters_[reg]) {
        DynInst *d = liveInst(ref);
        if (d && --d->pending_srcs == 0)
            insertBySeq(ready_, d);
    }
    waiters_[reg].clear();
}

void
Core::issueStage()
{
    unsigned issue_width = params_.issue_width;
    if (faults_ && faults_->fire(FaultSite::kIssueJitter)) {
        // Scheduler jitter: nothing issues this cycle.
        issue_width = 0;
        stats_.inc(ctr_.fault_issue_stall_cycles);
    }
    // Oldest first: the ready list is in seq order.
    const std::size_t n = std::min<std::size_t>(issue_width,
                                                ready_.size());
    for (std::size_t i = 0; i < n; ++i) {
        DynInst *d = ready_[i];
        d->in_rs = false;
        d->issued = true;
        stats_.inc(ctr_.issue_instructions);
        if (observer_)
            observer_->issue(cycle_, *d);

        const uint64_t rs1v = readOperand(d->prs1);
        const uint64_t rs2v = readOperand(d->prs2);
        d->exec = evaluateOp(d->si, d->pc, rs1v, rs2v);
        completions_.push(cycle_ + execLatency(d->si), refOf(*d));
    }
    ready_.erase(ready_.begin(),
                 ready_.begin() + static_cast<std::ptrdiff_t>(n));
    rs_count_ -= static_cast<unsigned>(n);
}

// --------------------------------------------------------------------
// Writeback (completion events)
// --------------------------------------------------------------------

void
Core::writebackStage()
{
    // Events of squashed instructions are stale and dropped.
    completions_.drain(cycle_, [this](InstRef ref) {
        if (DynInst *d = liveInst(ref))
            completeInst(d);
    });
}

void
Core::completeInst(const DynInstPtr &d)
{
    if (d->isMem() && !d->addr_known) {
        // AGU completion: the virtual address (and store data) is now
        // known to the LSQ, before any memory access is performed.
        d->addr_known = true;
        d->eff_addr = d->exec.mem_addr;
        // Now waiting on its memory gate (memStage).
        d->gate_list = GateList::kOpen;
        insertBySeq(d->is_load ? load_gates_.open : store_gates_.open,
                    d);
        if (d->is_store) {
            d->store_data = d->exec.value;
            d->executed = true;
            if (observer_)
                observer_->executed(cycle_, *d);
            checkViolationsFromStore(d);
        }
        return;
    }
    if (d->is_load) {
        completeLoadData(d);
        return;
    }

    // ALU / control completion.
    d->executed = true;
    d->completed = true;
    if (observer_)
        observer_->executed(cycle_, *d);
    if (d->has_dest) {
        d->result = d->exec.value;
        writeReg(d->prd, d->result);
    }
    if (d->is_ctrl) {
        d->actual_next_pc =
            d->exec.is_taken ? d->exec.target : d->pc + 1;
        if (d->actual_next_pc != d->pred_next_pc) {
            d->mispredicted = true;
            d->squash_pending = true;
            addPendingSquash(d);
            stats_.inc(ctr_.branch_mispredicts);
        } else {
            stats_.inc(ctr_.branch_correct);
            if (faults_ && d->is_squash_source &&
                faults_->fire(FaultSite::kExtraSquash)) {
                // Forced squash of a correctly predicted branch:
                // refetches down the same (correct) path, so the
                // architectural result is unchanged. Restricted to
                // squash-source branches — the VP already treats
                // them as unresolved until squash_pending clears,
                // so no instruction past the VP is ever squashed.
                d->squash_pending = true;
                addPendingSquash(d);
                stats_.inc(ctr_.fault_extra_squashes);
            }
        }
    }
}

} // namespace spt
