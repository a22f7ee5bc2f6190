/**
 * @file
 * The in-flight dynamic instruction record shared by ROB, reservation
 * station, and LSQ. Records live in their Core's slab (uarch/core.h):
 * a DynInstPtr is a plain pointer that is valid from fetch until the
 * instruction retires or is squashed; structures that may outlive an
 * instruction hold an InstRef instead.
 */

#ifndef SPT_UARCH_DYN_INST_H
#define SPT_UARCH_DYN_INST_H

#include "bp/bpu.h"
#include "isa/instruction.h"
#include "isa/semantics.h"
#include "uarch/types.h"

namespace spt {

/** Which of the core's memory-gate lists holds a load/store
 *  (Core::GateLists): none before its address is known and once its
 *  access has started. */
enum class GateList : uint8_t { kNone, kOpen, kRefused };

struct DynInst {
    // --- identity ---------------------------------------------------
    SeqNum seq = 0;
    uint64_t pc = 0;
    Instruction si;

    // --- static classification (cached from traits) ------------------
    bool is_load = false;
    bool is_store = false;
    bool is_ctrl = false;         ///< any control flow
    bool is_squash_source = false;///< cond branch or JALR (can mispredict)
    bool has_dest = false;        ///< writes a (non-x0) register
    uint8_t num_srcs = 0;
    unsigned mem_bytes = 0;

    // --- rename ------------------------------------------------------
    PhysReg prd = kNoPhysReg;
    PhysReg prs1 = kNoPhysReg;
    PhysReg prs2 = kNoPhysReg;
    PhysReg prev_prd = kNoPhysReg;

    // --- pipeline status ----------------------------------------------
    bool in_rs = false;      ///< dispatched to the RS, not yet issued
    bool issued = false;     ///< left the RS
    bool executed = false;   ///< result/outcome computed
    bool completed = false;  ///< commit-eligible
    bool squashed = false;
    /** Source registers not yet written while in the RS; the entry
     *  joins the ready list when this reaches 0. */
    uint8_t pending_srcs = 0;

    // --- control flow -------------------------------------------------
    bool predicted_taken = false;
    uint64_t pred_next_pc = 0;
    uint64_t actual_next_pc = 0;
    bool mispredicted = false;
    /** Resolution effects (redirect + squash) computed but deferred
     *  until the security policy allows them (implicit-channel rule). */
    bool squash_pending = false;
    bool has_checkpoint = false;
    BranchPredictorUnit::Checkpoint checkpoint;

    // --- memory --------------------------------------------------------
    bool addr_known = false;   ///< virtual effective address computed
    uint64_t eff_addr = 0;
    uint64_t store_data = 0;   ///< store: data operand value
    bool access_done = false;  ///< memory access performed/forwarded
    bool forwarded = false;    ///< load: value came via STL forwarding
    SeqNum forwarding_store = 0;
    /** Load issued to memory while older store addresses were still
     *  unknown (memory-dependence speculation). */
    bool speculated_past_store = false;
    /** A store discovered this load read stale data; squash deferred
     *  until the policy allows it. */
    bool mem_violation_pending = false;
    /** pc of the store that flagged the violation (for store-set
     *  training when the squash is performed). */
    uint64_t violating_store_pc = 0;
    /** Store-set predicted dependence: wait until this store's
     *  address is known (0 = none). */
    SeqNum wait_store_seq = 0;
    GateList gate_list = GateList::kNone;

    // --- execution ------------------------------------------------------
    ExecResult exec;
    uint64_t result = 0; ///< final dest value (after finishLoad)

    // --- security ---------------------------------------------------------
    /** Reached the visibility point (monotone until squash). */
    bool at_vp = false;
    /** Slot of this instruction's taint record in the security
     *  engine's ROB-parallel taint storage; assigned at rename,
     *  kNoTaintIdx while not renamed (or under engines that keep no
     *  per-instruction state). */
    uint32_t taint_idx = kNoTaintIdx;

    bool isMem() const { return is_load || is_store; }
};

using DynInstPtr = DynInst *;

/** A reference that may outlive its instruction: the slab slot and
 *  the seq it held when the reference was taken. Stale (to be
 *  dropped) once the slot holds another seq or none (Core::liveInst). */
struct InstRef {
    uint32_t slot = 0;
    SeqNum seq = 0;
};

} // namespace spt

#endif // SPT_UARCH_DYN_INST_H
