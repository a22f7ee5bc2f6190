/**
 * @file
 * Timing probes the benchmark wraps around the simulator's public
 * interfaces: a calibrated cycle counter, a fixed-size log-linear
 * histogram, a self-time clock that charges host time to the layer
 * on top of a small stack, a forwarding SecurityEngine and a
 * forwarding PipelineObserver that time every call, a global
 * allocation counter, and an in-memory span log.
 *
 * Nothing here changes simulated behaviour: the wrappers only
 * forward, and the traced run checks that every simulated counter
 * matches the untraced run.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "uarch/pipeline_observer.h"
#include "uarch/security_engine.h"

namespace perfbench {

// --- host clock --------------------------------------------------------

/** Raw timestamp: the TSC on x86-64, steady_clock ns elsewhere. */
uint64_t ticksNow();

/** Measures the timestamp rate against steady_clock (about 50 ms);
 *  call once before converting ticks. */
void calibrateTicks();

/** Nanoseconds per tick, as calibrated. */
double nsPerTick();

// --- histogram -----------------------------------------------------------

/** Count, total and a log-linear histogram (16 buckets per octave,
 *  so quantiles are within about 6%) of tick durations. Fixed size:
 *  recording never allocates. */
class Hist
{
  public:
    void add(uint64_t v);
    uint64_t count() const { return count_; }
    uint64_t total() const { return total_; }
    /** The @p q quantile in ticks, interpolated within its bucket;
     *  0 when empty. */
    double quantile(double q) const;

  private:
    static constexpr unsigned kSub = 16;
    std::array<uint64_t, 64 * kSub> buckets_{};
    uint64_t count_ = 0;
    uint64_t total_ = 0;
};

// --- self-time clock -----------------------------------------------------

/** The simulator layers whose host self time the traced run splits. */
enum class Layer : uint8_t { kHarness, kUarch, kEngine, kObserver, kCount };

/**
 * Charges elapsed ticks to the layer on top of a stack. enter()
 * and exit() each read the clock once; a layer's self time excludes
 * the time of the layers entered inside it (an observer callback
 * raised from an engine hook counts as observer time).
 */
class LayerClock
{
  public:
    LayerClock();
    /** Returns the timestamp taken. */
    uint64_t enter(Layer layer);
    uint64_t exit();
    uint64_t self(Layer layer) const
    {
        return self_[static_cast<size_t>(layer)];
    }

  private:
    std::array<Layer, 32> stack_{};
    unsigned depth_ = 0;
    uint64_t last_ = 0;
    std::array<uint64_t, static_cast<size_t>(Layer::kCount)> self_{};
};

// --- forwarding engine ---------------------------------------------------

/** Every SecurityEngine call the core makes; the first eight are
 *  the ones the benchmark reports per hook. */
enum class Hook : uint8_t {
    kOnRename,
    kOnSquash,
    kOnRetire,
    kOnLoadData,
    kMayAccessMemory,
    kMayResolveBranch,
    kTick,
    kAccrueBlockedTransmit,
    kOnStoreCommit,
    kMaySquashMemViolation,
    kStlForwardingPublic,
    kQuiescent,
    kTransmitPublic,
    kOther,
    kCount,
};

constexpr unsigned kReportedHooks = 8;
const char *hookName(Hook h);

/**
 * Forwards every SecurityEngine virtual to an engine built with
 * makeEngine, timing each call under Layer::kEngine. The inner
 * engine keeps its own StatSet: call publishInnerStats() after
 * Core::run so that readers of core.engine().stats() (the invariant
 * checker, the counter comparison) see the inner counters next to
 * the delay.* totals Core::run writes here. SecurityEngine::
 * setObserver is not virtual, so whoever installs an observer on
 * the core must also install it on inner().
 */
class TimedEngine final : public spt::SecurityEngine
{
  public:
    TimedEngine(std::unique_ptr<spt::SecurityEngine> inner,
                LayerClock &clock);

    spt::SecurityEngine &inner() { return *inner_; }
    /** Inclusive durations of every call of @p h. */
    const Hist &hook(Hook h) const
    {
        return hooks_[static_cast<size_t>(h)];
    }
    uint64_t blockedMemAccesses() const { return blocked_mem_; }
    void publishInnerStats();

    void attach(spt::Core &core) override;
    const char *name() const override;
    void onRename(spt::DynInst &d) override;
    void onSquash(const spt::DynInst &d) override;
    void onRetire(const spt::DynInst &d) override;
    void onLoadData(spt::DynInst &d, bool forwarded,
                    spt::SeqNum store_seq) override;
    void onStoreCommit(const spt::DynInst &d) override;
    bool mayAccessMemory(const spt::DynInst &d) const override;
    bool mayResolveBranch(const spt::DynInst &d) const override;
    bool maySquashMemViolation(const spt::DynInst &d) const override;
    bool stlForwardingPublic(const spt::DynInst &load,
                             const spt::DynInst &store) const override;
    void tick() override;
    bool quiescent() const override;
    bool fastForwardSafe() const override;
    void accrueBlockedTransmit(const spt::DynInst &d,
                               spt::DelayKind kind,
                               uint64_t cycles) override;
    bool transmitPublic(const spt::DynInst &d,
                        spt::DelayKind kind) const override;
    bool taintStateConsistent(const spt::DynInst &d) const override;
    spt::DelayCause delayCause(const spt::DynInst &d,
                               spt::DelayKind kind) const override;
    uint64_t broadcastQueueOccupancy() const override;
    uint64_t taintedRegCount() const override;

  private:
    class Scope;

    std::unique_ptr<spt::SecurityEngine> inner_;
    LayerClock &clock_;
    mutable std::array<Hist, static_cast<size_t>(Hook::kCount)> hooks_{};
    mutable uint64_t blocked_mem_ = 0;
};

// --- forwarding observer -------------------------------------------------

/** Forwards every PipelineObserver callback to @p inner, timing each
 *  under Layer::kObserver. */
class TimedObserver final : public spt::PipelineObserver
{
  public:
    TimedObserver(spt::PipelineObserver &inner, LayerClock &clock)
        : inner_(inner), clock_(clock)
    {
    }
    uint64_t calls() const { return calls_; }

    void fetch(uint64_t c, const spt::DynInst &d) override;
    void rename(uint64_t c, const spt::DynInst &d) override;
    void issue(uint64_t c, const spt::DynInst &d) override;
    void executed(uint64_t c, const spt::DynInst &d) override;
    void memAccess(uint64_t c, const spt::DynInst &d) override;
    void reachedVp(uint64_t c, const spt::DynInst &d) override;
    void retired(uint64_t c, const spt::DynInst &d) override;
    void squashed(uint64_t c, const spt::DynInst &d) override;
    void taintEvent(uint64_t c, spt::TaintEvent ev,
                    const spt::DynInst &d, uint8_t slot) override;
    void delayCycle(uint64_t c, const spt::DynInst &d,
                    spt::DelayKind kind,
                    spt::DelayCause cause) override;
    void gateOpened(uint64_t c, const spt::DynInst &d,
                    spt::DelayKind kind) override;
    void cycleEnd(uint64_t c) override;

  private:
    spt::PipelineObserver &inner_;
    LayerClock &clock_;
    uint64_t calls_ = 0;
};

// --- allocation counter --------------------------------------------------

/** Counts the calling thread's global operator new calls and bytes
 *  while enabled (the replacement operator new lives in
 *  probes.cpp). */
struct AllocCount {
    uint64_t calls = 0;
    uint64_t bytes = 0;
};
void setAllocCounting(bool on);
AllocCount allocCount();

// --- spans ---------------------------------------------------------------

/** Coarse spans (workload, job, cache / snapshot / analysis op),
 *  kept in memory and written as one JSON array at the end. */
class SpanLog
{
  public:
    SpanLog();
    /** Opens a span under @p parent (0 = root); returns its id. */
    uint32_t open(const std::string &name, uint32_t parent);
    void close(uint32_t id);
    /** Writes every span; returns false if the file cannot be
     *  written. */
    bool write(const std::string &path) const;
    size_t size() const { return spans_.size(); }

  private:
    struct Span {
        std::string name;
        uint32_t parent = 0;
        uint64_t start_ns = 0;
        uint64_t end_ns = 0;
    };
    std::vector<Span> spans_;
    uint64_t origin_ns_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
