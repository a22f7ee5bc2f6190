#include "uarch/invariant_checker.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/json.h"
#include "uarch/core.h"

namespace spt {

namespace {

enum EventKind : uint8_t {
    kEvRename,
    kEvIssue,
    kEvExecuted,
    kEvMemAccess,
    kEvVp,
    kEvRetired,
    kEvSquashed,
    kEvTaint,
    kEvGate,
};

const char *
eventKindName(uint8_t kind)
{
    switch (kind) {
      case kEvRename:    return "rename";
      case kEvIssue:     return "issue";
      case kEvExecuted:  return "executed";
      case kEvMemAccess: return "mem-access";
      case kEvVp:        return "vp";
      case kEvRetired:   return "retired";
      case kEvSquashed:  return "squashed";
      case kEvTaint:     return "taint";
      case kEvGate:      return "gate-open";
    }
    return "?";
}

std::string
instLine(const DynInst &d)
{
    std::ostringstream os;
    os << "seq=" << d.seq << " pc=" << d.pc << " `"
       << toString(d.si) << "`";
    if (d.issued)
        os << " issued";
    if (d.executed)
        os << " executed";
    if (d.completed)
        os << " completed";
    if (d.at_vp)
        os << " at_vp";
    if (d.squash_pending)
        os << " squash_pending";
    if (d.mem_violation_pending)
        os << " mem_violation_pending";
    if (d.squashed)
        os << " squashed";
    return os.str();
}

std::vector<std::string>
robDump(const Core &core, std::size_t cap = 64)
{
    std::vector<std::string> lines;
    for (const DynInstPtr &d : core.rob()) {
        if (lines.size() >= cap) {
            lines.push_back("... (" +
                            std::to_string(core.rob().size() - cap) +
                            " more)");
            break;
        }
        lines.push_back(instLine(*d));
    }
    return lines;
}

} // namespace

// --------------------------------------------------------------------
// DiagnosticReport
// --------------------------------------------------------------------

void
DiagnosticReport::toJson(JsonWriter &jw) const
{
    jw.beginObject();
    jw.field("kind", kind);
    jw.field("message", message);
    jw.field("cycle", cycle);
    jw.field("seq", static_cast<uint64_t>(seq));
    jw.field("pc", pc);
    jw.key("rob").beginArray();
    for (const std::string &line : rob)
        jw.value(line);
    jw.endArray();
    jw.key("events").beginArray();
    for (const std::string &line : events)
        jw.value(line);
    jw.endArray();
    jw.key("engine_counters").beginObject();
    for (const auto &[name, value] : engine_counters)
        jw.field(name, value);
    jw.endObject();
    jw.endObject();
}

std::string
DiagnosticReport::toText() const
{
    std::ostringstream os;
    os << "invariant violation: " << kind << " at cycle " << cycle
       << "\n  " << message << "\n";
    if (!rob.empty()) {
        os << "  rob:\n";
        for (const std::string &line : rob)
            os << "    " << line << "\n";
    }
    if (!events.empty()) {
        os << "  recent events:\n";
        for (const std::string &line : events)
            os << "    " << line << "\n";
    }
    return os.str();
}

// --------------------------------------------------------------------
// InvariantChecker
// --------------------------------------------------------------------

InvariantChecker::InvariantChecker(Core &core)
    : InvariantChecker(core, Params())
{
}

InvariantChecker::InvariantChecker(Core &core, const Params &params)
    : core_(core), params_(params)
{
    ring_.reserve(kEventRing);
}

void
InvariantChecker::record(uint64_t cycle, uint8_t kind,
                         const DynInst &d)
{
    const Event ev{cycle, kind, d.seq, d.pc};
    if (ring_.size() < kEventRing) {
        ring_.push_back(ev);
    } else {
        ring_[ring_next_] = ev;
        ring_next_ = (ring_next_ + 1) % kEventRing;
    }
}

std::vector<std::string>
InvariantChecker::eventLines() const
{
    std::vector<std::string> lines;
    lines.reserve(ring_.size());
    const std::size_t n = ring_.size();
    const std::size_t start = n < kEventRing ? 0 : ring_next_;
    for (std::size_t i = 0; i < n; ++i) {
        const Event &ev = ring_[(start + i) % kEventRing];
        std::ostringstream os;
        os << "cycle=" << ev.cycle << " "
           << eventKindName(ev.kind) << " seq=" << ev.seq
           << " pc=" << ev.pc;
        lines.push_back(os.str());
    }
    return lines;
}

void
InvariantChecker::violation(const char *kind, std::string message,
                            uint64_t cycle, const DynInst *d)
{
    ++violations_;
    if (std::strcmp(kind, "livelock") == 0)
        ++livelock_violations_;
    if (reports_.size() >= params_.max_reports)
        return;
    DiagnosticReport rep;
    rep.kind = kind;
    rep.message = std::move(message);
    rep.cycle = cycle;
    if (d) {
        rep.seq = d->seq;
        rep.pc = d->pc;
    }
    rep.rob = robDump(core_);
    rep.events = eventLines();
    rep.engine_counters = core_.engine().stats().counters();
    reports_.push_back(std::move(rep));
}

void
InvariantChecker::rename(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvRename, d);
}

void
InvariantChecker::issue(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvIssue, d);
}

void
InvariantChecker::executed(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvExecuted, d);
}

void
InvariantChecker::reachedVp(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvVp, d);
}

void
InvariantChecker::squashed(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvSquashed, d);
}

void
InvariantChecker::checkTransmit(uint64_t cycle, const DynInst &d,
                                DelayKind kind, const char *what)
{
    if (core_.engine().transmitPublic(d, kind))
        return;
    std::ostringstream os;
    os << what << " `" << toString(d.si) << "` (seq " << d.seq
       << ", pc " << d.pc
       << ") proceeded while its operands are non-public under "
       << core_.engine().name();
    violation("tainted-transmitter", os.str(), cycle, &d);
}

void
InvariantChecker::memAccess(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvMemAccess, d);
    checkTransmit(cycle, d, DelayKind::kMemAccess,
                  d.is_load ? "load" : "store");
}

void
InvariantChecker::gateOpened(uint64_t cycle, const DynInst &d,
                             DelayKind kind)
{
    record(cycle, kEvGate, d);
    // kMemAccess gate openings are immediately followed by the
    // memAccess hook, which performs the check; avoid double counting.
    if (kind == DelayKind::kBranchResolve)
        checkTransmit(cycle, d, kind, "branch resolution of");
    else if (kind == DelayKind::kMemOrderSquash)
        checkTransmit(cycle, d, kind, "memory-order squash of");
}

void
InvariantChecker::retired(uint64_t cycle, const DynInst &d)
{
    record(cycle, kEvRetired, d);
    last_commit_cycle_ = cycle;
    if (d.seq <= last_retired_seq_) {
        std::ostringstream os;
        os << "commit order broken: seq " << d.seq
           << " retired after seq " << last_retired_seq_;
        violation("commit-order", os.str(), cycle, &d);
    }
    last_retired_seq_ = std::max(last_retired_seq_, d.seq);
}

void
InvariantChecker::taintEvent(uint64_t cycle, TaintEvent ev,
                             const DynInst &d, uint8_t /*slot*/)
{
    record(cycle, kEvTaint, d);
    if (ev != TaintEvent::kTaintedAtRename)
        ++observed_untaints_;
}

void
InvariantChecker::checkStructure(uint64_t cycle)
{
    const CoreParams &p = core_.params();
    const auto &rob = core_.rob();

    if (rob.size() > p.rob_size)
        violation("rob-overflow",
                  "ROB holds " + std::to_string(rob.size()) +
                      " > capacity " + std::to_string(p.rob_size),
                  cycle, nullptr);
    // The squash gates' work list must be exactly the flagged ROB
    // entries, and the issue ready list exactly the RS entries whose
    // source registers are written, both in ROB order: matched
    // against them in the same walk.
    const std::vector<DynInstPtr> &pending = core_.pendingSquashes();
    std::size_t listed = 0;
    bool worklist_ok = true;
    const std::vector<DynInstPtr> &ready = core_.readyList();
    const PhysRegFile &prf = core_.physRegs();
    std::size_t ready_listed = 0;
    bool ready_ok = true;
    // The from-head VP walk: every entry up to the first blocker
    // is at the VP, and the cursor rests on that blocker.
    std::size_t pos = 0;
    std::size_t first_blocker = rob.size();
    bool vp_prefix_ok = true;
    SeqNum prev = 0;
    for (const DynInstPtr &d : rob) {
        if (d->seq <= prev) {
            violation("rob-order",
                      "ROB seq not strictly increasing at seq " +
                          std::to_string(d->seq),
                      cycle, d);
            break;
        }
        prev = d->seq;
        if (!core_.engine().taintStateConsistent(*d)) {
            std::ostringstream os;
            os << "engine taint slot of seq " << d->seq
               << " does not resolve to its instruction";
            violation("taint-index", os.str(), cycle, d);
        }
        if (worklist_ok &&
            (d->squash_pending || d->mem_violation_pending)) {
            worklist_ok =
                listed < pending.size() && pending[listed] == d;
            ++listed;
        }
        const bool operands_ready =
            (d->num_srcs < 1 || prf.ready(d->prs1)) &&
            (d->num_srcs < 2 || prf.ready(d->prs2));
        if (ready_ok && d->in_rs && operands_ready) {
            ready_ok = ready_listed < ready.size() &&
                       ready[ready_listed] == d;
            ++ready_listed;
        }
        if (first_blocker == rob.size()) {
            vp_prefix_ok = vp_prefix_ok && d->at_vp;
            if (core_.blocksVp(*d))
                first_blocker = pos;
        }
        ++pos;
    }
    if (!worklist_ok || listed != pending.size())
        violation("squash-worklist",
                  "pending-squash list (" +
                      std::to_string(pending.size()) +
                      " entries) differs from the flagged ROB "
                      "entries",
                  cycle, nullptr);
    if (!ready_ok || ready_listed != ready.size())
        violation("ready-set",
                  "issue ready list (" + std::to_string(ready.size()) +
                      " entries) differs from the RS entries whose "
                      "operands are ready",
                  cycle, nullptr);
    if (!vp_prefix_ok || core_.vpFrontier() != first_blocker)
        violation("vp-frontier",
                  "VP cursor at ROB offset " +
                      std::to_string(core_.vpFrontier()) +
                      ", the from-head walk stops at " +
                      std::to_string(first_blocker) +
                      (vp_prefix_ok ? ""
                                    : " with an entry before it short "
                                      "of the VP"),
                  cycle, nullptr);
    if (!core_.engine().taintRootsConsistent())
        violation("stt-root",
                  "a taint root's slot liveness differs from its "
                  "ROB liveness",
                  cycle, nullptr);

    const auto in_rob = [&rob](const DynInstPtr &d) {
        const auto it = std::lower_bound(
            rob.begin(), rob.end(), d->seq,
            [](const DynInstPtr &e, SeqNum s) { return e->seq < s; });
        return it != rob.end() && *it == d;
    };
    const auto checkQueue = [&](const std::vector<DynInstPtr> &q,
                                unsigned cap, const char *name) {
        if (q.size() > cap)
            violation("lsq-overflow",
                      std::string(name) + " holds " +
                          std::to_string(q.size()) + " > capacity " +
                          std::to_string(cap),
                      cycle, nullptr);
        for (const DynInstPtr &d : q) {
            if (d->squashed || !in_rob(d)) {
                violation("lsq-orphan",
                          std::string(name) + " entry seq " +
                              std::to_string(d->seq) +
                              " is squashed or not in the ROB",
                          cycle, d);
                break;
            }
        }
    };
    checkQueue(core_.loadQueue(), p.lq_size, "LQ");
    checkQueue(core_.storeQueue(), p.sq_size, "SQ");
    checkGates(cycle, core_.loadGates(), core_.loadQueue(), "load");
    checkGates(cycle, core_.storeGates(), core_.storeQueue(), "store");

    const uint64_t occupancy =
        core_.engine().broadcastQueueOccupancy();
    const uint64_t bound = 3 * static_cast<uint64_t>(p.rob_size);
    if (occupancy > bound)
        violation("broadcast-unbounded",
                  "broadcast queue holds " +
                      std::to_string(occupancy) +
                      " flags > bound " + std::to_string(bound),
                  cycle, nullptr);
}

void
InvariantChecker::checkGates(uint64_t cycle, const Core::GateLists &g,
                             const std::vector<DynInstPtr> &queue,
                             const char *what)
{
    // The queue entries waiting on their memory gate are exactly the
    // two lists; each list is in seq order; an open entry may be
    // asked; a refused one must still be refused by the engine's
    // claim, or a wake event was missed and its delay cycles are
    // being charged without cause.
    const auto waiting = [](const DynInst &d) {
        return d.addr_known && !d.squashed &&
               (d.is_load ? !d.access_done && !d.mem_violation_pending
                          : !d.completed);
    };
    std::size_t expected = 0;
    for (const DynInstPtr &d : queue)
        expected += waiting(*d) ? 1 : 0;
    std::string why;
    if (g.open.size() + g.refused.size() != expected)
        why = std::to_string(g.open.size() + g.refused.size()) +
              " listed, " + std::to_string(expected) + " waiting";
    const DynInst *bad = nullptr;
    for (const auto *list : {&g.open, &g.refused}) {
        const bool refused = list == &g.refused;
        SeqNum prev = 0;
        for (const DynInstPtr &d : *list) {
            if (!why.empty())
                break;
            if (d->seq <= prev)
                why = "list out of seq order";
            else if (!waiting(*d) ||
                     d->gate_list != (refused ? GateList::kRefused
                                              : GateList::kOpen))
                why = "a listed entry is not waiting on its gate";
            else if (refused && core_.engine().transmitPublic(
                                    *d, DelayKind::kMemAccess))
                why = "a refused entry's gate is open";
            if (!why.empty())
                bad = d;
            prev = d->seq;
        }
    }
    if (!why.empty())
        violation("gate-wake", std::string(what) + " gates: " + why,
                  cycle, bad);
}

void
InvariantChecker::cycleEnd(uint64_t cycle)
{
    checkStructure(cycle);
    if (params_.watchdog_cycles != 0 && !core_.halted() &&
        cycle - last_commit_cycle_ > params_.watchdog_cycles) {
        livelocked_ = true;
        std::ostringstream os;
        os << "no instruction committed since cycle "
           << last_commit_cycle_ << " (watchdog "
           << params_.watchdog_cycles << " cycles)";
        violation("livelock", os.str(), cycle, nullptr);
        // Re-arm so a continuing run reports again only after
        // another full watchdog interval of silence.
        last_commit_cycle_ = cycle;
    }
}

void
InvariantChecker::finish(uint64_t final_cycle)
{
    const uint64_t counted =
        core_.engine().stats().get("untaint.events");
    if (counted != observed_untaints_) {
        std::ostringstream os;
        os << "taint conservation broken: engine counted " << counted
           << " untaint events, observer saw " << observed_untaints_;
        violation("untaint-conservation", os.str(), final_cycle,
                  nullptr);
    }
}

std::string
InvariantChecker::reportsJson() const
{
    JsonWriter jw;
    jw.beginArray();
    for (const DiagnosticReport &rep : reports_)
        rep.toJson(jw);
    jw.endArray();
    return jw.str();
}

DiagnosticReport
InvariantChecker::livelockReport(Core &core, uint64_t cycle)
{
    DiagnosticReport rep;
    rep.kind = "livelock";
    rep.message = "no instruction committed within the core retire "
                  "watchdog interval";
    rep.cycle = cycle;
    rep.rob = robDump(core);
    rep.engine_counters = core.engine().stats().counters();
    return rep;
}

} // namespace spt
